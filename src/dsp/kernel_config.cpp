#include "dsp/kernel_config.hpp"

namespace beesim::dsp {
namespace {

KernelConfig g_config;

}  // namespace

const KernelConfig& kernel_config() noexcept { return g_config; }

void set_kernel_config(const KernelConfig& config) noexcept {
  g_config = config;
}

}  // namespace beesim::dsp
