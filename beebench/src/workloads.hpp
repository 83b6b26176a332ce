#pragma once

#include "common.hpp"
#include "trace.hpp"

namespace beebench {

/// serve-hot (cold = false) and serve-cold (cold = true).
Result run_serve(const Options& opt, bool cold);
/// clip-infer: the cloud side of queen detection.
Result run_clip(const Options& opt);
/// fleet-campaign: a sharded, checkpointed, merged sweep campaign.
Result run_campaign(const Options& opt);

/// Stores the traced phase's wall-time accounting as self_frac.<layer>
/// and trace.unattributed_frac, and fails the run when the layer self
/// times and the unattributed share do not add up to the wall time.
void record_accounting(Result& result, const trace::Accounting& acc);

/// Prints the input digest line every run carries.
void print_digest(const Options& opt, std::uint64_t digest);

}  // namespace beebench
