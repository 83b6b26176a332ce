// Plain reference loops for the fleet models: each point runs one public,
// always-recomputing LargeScaleSimulator::simulate_cycle per cycle and
// accumulates with util::RunningStats::add, in the order sweep() and
// ResilientFleet::run_point document. They share no code with the
// columnar advance (no memo, no batched Welford kernel, no columns), so
// the tests that compare sweep(), advance() and checkpointed campaigns
// against them check something independent. vector_cloud_cycle prices a
// cycle's cloud side from the materialized per-slot allocate() vectors
// instead of the compact occupancy histogram the simulator uses.

#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <vector>

#include "core/allocator.hpp"
#include "core/network_sim.hpp"
#include "core/resilience.hpp"
#include "fault/degradation.hpp"
#include "util/rng.hpp"

namespace oracle {

/// The cloud side of one cycle, as LargeScaleSimulator prices it.
struct CloudCycle {
  int servers_used = 0;
  int active_slots = 0;
  double cloud_energy = 0.0;
  std::uint64_t saturated_slots = 0;
};

/// Allocates `surviving` clients with the per-slot core::allocate() and
/// prices every server slot by slot: idle power for the unused part of
/// the cycle plus each occupied slot's active energy, scaled by the loss-A
/// saturation factor. O(servers x slots), against the simulator's O(1)
/// compact layout; energies agree to rounding (slot-by-slot sums against
/// slots x energy per band).
inline CloudCycle vector_cloud_cycle(
    const beesim::core::LargeScaleSimulator& sim, int surviving) {
  using namespace beesim;
  const core::ServerSpec& server = sim.effective_server();
  const core::LossConfig& loss = sim.params().loss;
  const core::Allocation alloc =
      core::allocate(surviving, server, sim.params().policy);
  CloudCycle out;
  out.servers_used = alloc.servers_used();
  for (const auto& load : alloc.servers) {
    out.active_slots += load.active_slots();
    double active_time = 0.0;
    double active_energy = 0.0;
    for (int k : load.slot_clients) {
      if (k <= 0) continue;
      active_time += server.slot_duration(k);
      active_energy += server.slot_active_energy(k) *
                       loss.saturation_factor(k, server.max_parallel);
      if (loss.saturates(k, server.max_parallel)) ++out.saturated_slots;
    }
    EXPECT_LE(active_time, server.cycle) << "active slots exceed the cycle";
    out.cloud_energy +=
        server.idle_power * (server.cycle - active_time) + active_energy;
  }
  return out;
}

/// LargeScaleSimulator::sweep(sizes, seed, cycles) as a plain loop.
inline std::vector<beesim::core::SweepPoint> sweep(
    const beesim::core::LargeScaleSimulator& sim,
    const std::vector<int>& sizes, std::uint64_t seed, int cycles) {
  using namespace beesim;
  std::vector<core::SweepPoint> out;
  for (int n : sizes) {
    util::Rng rng = util::Rng::for_stream(seed, static_cast<std::uint64_t>(n));
    core::SweepPoint point;
    point.initial_clients = n;
    point.cycles = cycles;
    for (int c = 0; c < cycles; ++c) {
      const core::CycleResult r = sim.simulate_cycle(n, rng);
      point.servers_used = std::max(point.servers_used, r.servers_used);
      point.lost_clients.add(static_cast<double>(r.lost_clients));
      point.active_slots.add(static_cast<double>(r.active_slots));
      point.edge_energy.add(r.edge_energy);
      point.cloud_energy.add(r.cloud_energy);
      point.total_energy.add(r.edge_energy + r.cloud_energy);
    }
    out.push_back(point);
  }
  return out;
}

/// ResilientFleet::sweep(sizes, seed, cycles) for plans of cloud outages
/// and cloud brownouts under the default policy, written as a plain loop
/// over the public simulate_cycle of the base simulator and of a
/// brownout sibling built here the way ResilientFleet builds it.
inline std::vector<beesim::core::ResiliencePoint> resilience(
    const beesim::core::ResilientFleet& fleet, const std::vector<int>& sizes,
    std::uint64_t seed, int cycles) {
  using namespace beesim;
  const core::ResiliencePolicy& policy = fleet.policy();
  const core::LargeScaleSimulator& base = fleet.base();
  const core::ClientSpec& client = base.params().client;
  const double upload = policy.upload_bytes_per_client;
  std::map<double, core::LargeScaleSimulator> browned;

  std::vector<core::ResiliencePoint> out;
  for (int n : sizes) {
    util::Rng rng = util::Rng::for_stream(seed, static_cast<std::uint64_t>(n));
    core::ResiliencePoint point;
    point.initial_clients = n;
    point.cycles = cycles;
    fault::StoreAndForwardBuffer buffer(policy.buffer_bytes_per_client *
                                        static_cast<double>(n));
    for (int c = 0; c < cycles; ++c) {
      const fault::CycleFaults& f = fleet.injector().at(c);
      EXPECT_FALSE(f.link_outage || f.link_bandwidth_factor < 1.0 ||
                   f.battery_factor < 1.0 || f.sensor_dropout_fraction > 0.0);
      double edge = 0.0;
      double cloud = 0.0;
      int servers = 0;
      int lost = 0;
      if (f.any()) ++point.degraded_cycles;
      if (f.cloud_outage) {
        lost = base.params().loss.draw_lost_clients(n, rng);
        const int active = n - lost;
        edge += static_cast<double>(lost) * client.sleep_cycle_energy();
        const double offered = static_cast<double>(active) * upload;
        point.bytes_generated += offered;
        edge += static_cast<double>(active) *
                fleet.edge_fallback_cycle_energy();
        ++point.edge_fallback_cycles;
        point.fallback_client_cycles += active;
        point.bytes_dropped += offered - buffer.offer(offered);
      } else {
        const core::LargeScaleSimulator* sim = &base;
        if (f.cloud_capacity_factor < 1.0) {
          auto it = browned.find(f.cloud_capacity_factor);
          if (it == browned.end()) {
            core::FleetParams p = base.params();
            p.server.max_parallel = std::max(
                1, static_cast<int>(std::floor(
                       static_cast<double>(p.server.max_parallel) *
                       f.cloud_capacity_factor)));
            it = browned.emplace(f.cloud_capacity_factor,
                                 core::LargeScaleSimulator(p))
                     .first;
          }
          sim = &it->second;
        }
        const core::CycleResult r = sim->simulate_cycle(n, rng);
        lost = r.lost_clients;
        edge += r.edge_energy;
        cloud = r.cloud_energy;
        servers = r.servers_used;
        const double produced =
            static_cast<double>(r.surviving_clients()) * upload;
        point.bytes_generated += produced;
        point.bytes_served += produced;
        if (buffer.buffered() > 0.0) {
          const double drained = buffer.drain(
              policy.catchup_factor * upload *
              static_cast<double>(r.surviving_clients()));
          point.bytes_recovered += drained;
          edge += drained / upload * policy.upload_energy_per_payload;
        }
      }
      point.servers_used = std::max(point.servers_used, servers);
      point.lost_clients.add(static_cast<double>(lost));
      point.edge_energy.add(edge);
      point.cloud_energy.add(cloud);
      point.total_energy.add(edge + cloud);
    }
    point.bytes_pending = buffer.buffered();
    out.push_back(point);
  }
  return out;
}

}  // namespace oracle
