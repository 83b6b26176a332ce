#pragma once

#include <vector>

#include "fault/fault.hpp"
#include "util/units.hpp"

namespace beesim::fault {

/// The compiled fault state of one wake-up cycle — what every reacting
/// layer reads. Overlapping windows of the same kind compose: outage
/// booleans OR, capacity/bandwidth/battery factors multiply, and sensor
/// dropout fractions combine as independent failures.
struct CycleFaults {
  bool link_outage = false;
  /// Remaining uplink bandwidth fraction (1 = healthy; meaningful only
  /// when the link is not fully out).
  double link_bandwidth_factor = 1.0;
  bool cloud_outage = false;
  /// Remaining per-server slot-capacity fraction (1 = healthy).
  double cloud_capacity_factor = 1.0;
  /// Remaining usable battery/solar energy fraction (1 = healthy).
  double battery_factor = 1.0;
  /// Fraction of the fleet whose sensors are mute this cycle.
  double sensor_dropout_fraction = 0.0;

  /// True when any fault is active this cycle.
  bool any() const noexcept {
    return link_outage || cloud_outage || link_bandwidth_factor < 1.0 ||
           cloud_capacity_factor < 1.0 || battery_factor < 1.0 ||
           sensor_dropout_fraction > 0.0;
  }
};

/// Compiles a FaultPlan into a per-cycle timeline for O(1) lookups on the
/// slot clock. The injector is immutable and shared-state free, so one
/// instance may serve many threads (sweep points) concurrently; cycles
/// past the plan's horizon read as fault-free. Construction records no
/// metrics (core::ResilientFleet counts the plans it compiles), so it is
/// free to compile a plan just to inspect it.
class FaultInjector {
 public:
  /// Compiles `plan`; throws only if the plan itself was invalid.
  explicit FaultInjector(const FaultPlan& plan);

  /// Fault state of cycle `cycle` (fault-free for negative cycles or
  /// cycles beyond the horizon).
  const CycleFaults& at(int cycle) const noexcept;

  /// Maps a simulation timestamp onto the slot clock: the index of the
  /// wake-up cycle containing `t` for the given cycle length. This is how
  /// the DES layer (hive::SmartBeehive) addresses the same plan the
  /// analytic fleet model indexes directly.
  static int cycle_at(util::Seconds t, util::Seconds cycle_length);

  /// True when the source plan scheduled nothing.
  bool empty() const noexcept { return timeline_.empty(); }

  /// One past the last compiled cycle.
  int horizon() const noexcept { return static_cast<int>(timeline_.size()); }

  /// Number of cycles in [0, horizon) with at least one active fault.
  int faulted_cycles() const noexcept { return faulted_; }

 private:
  std::vector<CycleFaults> timeline_;
  CycleFaults clean_;
  int faulted_ = 0;
};

}  // namespace beesim::fault
