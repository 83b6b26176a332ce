#pragma once

// Field-for-field, bit-for-bit comparison of simulation results (a served
// or merged point against a direct sweep).

#include "common.hpp"
#include "core/network_sim.hpp"
#include "core/resilience.hpp"

namespace beebench {

inline bool same_stats(const beesim::util::RunningStats& a,
                       const beesim::util::RunningStats& b) {
  const auto x = a.raw();
  const auto y = b.raw();
  return x.n == y.n && same_bits(x.mean, y.mean) && same_bits(x.m2, y.m2) &&
         same_bits(x.sum, y.sum) && same_bits(x.min, y.min) &&
         same_bits(x.max, y.max);
}

inline bool same_point(const beesim::core::SweepPoint& a,
                       const beesim::core::SweepPoint& b) {
  return a.initial_clients == b.initial_clients && a.cycles == b.cycles &&
         a.servers_used == b.servers_used &&
         same_stats(a.lost_clients, b.lost_clients) &&
         same_stats(a.active_slots, b.active_slots) &&
         same_stats(a.edge_energy, b.edge_energy) &&
         same_stats(a.cloud_energy, b.cloud_energy) &&
         same_stats(a.total_energy, b.total_energy);
}

inline bool same_point(const beesim::core::ResiliencePoint& a,
                       const beesim::core::ResiliencePoint& b) {
  return a.initial_clients == b.initial_clients && a.cycles == b.cycles &&
         a.servers_used == b.servers_used &&
         a.degraded_cycles == b.degraded_cycles &&
         a.edge_fallback_cycles == b.edge_fallback_cycles &&
         a.fallback_client_cycles == b.fallback_client_cycles &&
         a.shed_client_cycles == b.shed_client_cycles &&
         a.browned_client_cycles == b.browned_client_cycles &&
         a.sensor_mute_client_cycles == b.sensor_mute_client_cycles &&
         same_stats(a.lost_clients, b.lost_clients) &&
         same_stats(a.edge_energy, b.edge_energy) &&
         same_stats(a.cloud_energy, b.cloud_energy) &&
         same_stats(a.total_energy, b.total_energy) &&
         same_bits(a.bytes_generated, b.bytes_generated) &&
         same_bits(a.bytes_served, b.bytes_served) &&
         same_bits(a.bytes_recovered, b.bytes_recovered) &&
         same_bits(a.bytes_dropped, b.bytes_dropped) &&
         same_bits(a.bytes_pending, b.bytes_pending) &&
         same_bits(a.bytes_lost, b.bytes_lost);
}

}  // namespace beebench
