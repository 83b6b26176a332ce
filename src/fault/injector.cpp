#include "fault/injector.hpp"

#include <cmath>
#include <stdexcept>

namespace beesim::fault {

FaultInjector::FaultInjector(const FaultPlan& plan) {
  timeline_.resize(static_cast<std::size_t>(plan.horizon_cycles()));
  for (const auto& w : plan.windows()) {
    for (int c = w.first_cycle; c <= w.last_cycle; ++c) {
      CycleFaults& f = timeline_[static_cast<std::size_t>(c)];
      switch (w.kind) {
        case FaultKind::kLinkOutage:
          f.link_outage = true;
          break;
        case FaultKind::kLinkDegraded:
          f.link_bandwidth_factor *= w.severity;
          break;
        case FaultKind::kCloudOutage:
          f.cloud_outage = true;
          break;
        case FaultKind::kCloudBrownout:
          f.cloud_capacity_factor *= w.severity;
          break;
        case FaultKind::kBatteryDerate:
          f.battery_factor *= w.severity;
          break;
        case FaultKind::kSensorDropout:
          // Independent failure sources compose as 1 - prod(1 - p_i).
          f.sensor_dropout_fraction =
              1.0 - (1.0 - f.sensor_dropout_fraction) * (1.0 - w.severity);
          break;
      }
    }
  }
  for (const auto& f : timeline_)
    if (f.any()) ++faulted_;
}

const CycleFaults& FaultInjector::at(int cycle) const noexcept {
  if (cycle < 0 || cycle >= horizon()) return clean_;
  return timeline_[static_cast<std::size_t>(cycle)];
}

int FaultInjector::cycle_at(util::Seconds t, util::Seconds cycle_length) {
  if (cycle_length <= 0.0)
    throw std::invalid_argument("FaultInjector: cycle_length <= 0");
  if (t < 0.0) return -1;
  return static_cast<int>(std::floor(t / cycle_length));
}

}  // namespace beesim::fault
