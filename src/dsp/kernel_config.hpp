#pragma once

namespace beesim::dsp {

/// Process-global tuning of the queen-detection kernels. Every kernel has
/// one implementation; this only decides how stft_power spreads its
/// frames, and both settings give bit-identical output. The naive
/// reference kernels the fast paths replaced live in tests/ as oracles
/// (tests/dsp_oracle.hpp). The SIMD tier is chosen separately, with
/// dsp::set_active_isa.
///
/// Meant to be set once at startup or around a serial check; flipping it
/// concurrently with running kernels is not supported.
struct KernelConfig {
  /// stft_power splits frames across util::parallel_for chunks with
  /// per-chunk scratch buffers (bit-identical to the serial order),
  /// including when nested inside an outer parallel region — the task
  /// pool composes nested regions without oversubscribing.
  bool parallel_stft = true;
};

/// The active kernel configuration (defaults to KernelConfig{}).
const KernelConfig& kernel_config() noexcept;
void set_kernel_config(const KernelConfig& config) noexcept;

}  // namespace beesim::dsp
