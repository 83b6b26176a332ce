// Oracle tests for the cloud-side cycle memo: every point loop that looks
// the cloud side of a cycle up by survivor count (LargeScaleSimulator::
// sweep/advance, ResilientFleet::sweep/advance) must land bit for bit on a
// plain reference loop over the public, always-recomputing
// LargeScaleSimulator::simulate_cycle — and, with metrics on, must count
// the same physics.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/canonical.hpp"
#include "core/checkpoint.hpp"
#include "core/fleet_columns.hpp"
#include "core/network_sim.hpp"
#include "core/resilience.hpp"
#include "fault/fault.hpp"
#include "obs/catalog.hpp"
#include "obs/metrics.hpp"
#include "oracle.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace beesim;
using core::FleetParams;
using core::LossConfig;
using core::ResiliencePoint;
using core::SweepPoint;

constexpr std::uint64_t kSeed = 2023;
constexpr int kCycles = 96;

const std::vector<int>& fleet_sizes() {
  static const std::vector<int> sizes = {0,   1,   2,   9,   31,  32,
                                         33,  64,  179, 180, 181, 350,
                                         401, 999};
  return sizes;
}

/// One named fleet configuration of the oracle grid.
struct Case {
  std::string name;
  FleetParams params;
};

std::vector<Case> grid() {
  std::vector<std::pair<std::string, LossConfig>> losses = {
      {"lossless", LossConfig::none()},
      {"all", LossConfig::all()},
      {"dropout", LossConfig::only_dropout()},
  };
  // A wide dropout spreads survivors over far more than 32 counts, so the
  // direct-mapped memo keeps evicting and re-filling entries.
  LossConfig wide = LossConfig::all();
  wide.dropout_stddev = 40.0;
  losses.emplace_back("all_stddev40", wide);

  std::vector<Case> cases;
  for (core::FillPolicy policy :
       {core::FillPolicy::kFillFirst, core::FillPolicy::kBalanced,
        core::FillPolicy::kRoundRobin})
    for (int max_parallel : {10, 35})
      for (const auto& [loss_name, loss] : losses) {
        FleetParams p =
            FleetParams::paper_default(core::ServiceModel::kCnn,
                                       max_parallel);
        p.policy = policy;
        p.loss = loss;
        cases.push_back({std::string(core::to_string(policy)) + "/mp" +
                             std::to_string(max_parallel) + "/" + loss_name,
                         p});
      }
  return cases;
}

// ------------------------------------------------------------ comparisons

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Every RunningStats::raw() field, compared by bit pattern (field by
/// field, so struct padding never enters the comparison).
void expect_same_raw(const util::RunningStats& a, const util::RunningStats& b,
                     const std::string& what) {
  const auto ra = a.raw();
  const auto rb = b.raw();
  EXPECT_EQ(ra.n, rb.n) << what;
  EXPECT_TRUE(same_bits(ra.mean, rb.mean)) << what << " mean";
  EXPECT_TRUE(same_bits(ra.m2, rb.m2)) << what << " m2";
  EXPECT_TRUE(same_bits(ra.sum, rb.sum)) << what << " sum";
  EXPECT_TRUE(same_bits(ra.min, rb.min)) << what << " min";
  EXPECT_TRUE(same_bits(ra.max, rb.max)) << what << " max";
}

void expect_same(const std::vector<SweepPoint>& want,
                 const std::vector<SweepPoint>& got,
                 const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const std::string at =
        what + " n=" + std::to_string(want[i].initial_clients);
    EXPECT_EQ(want[i].initial_clients, got[i].initial_clients) << at;
    EXPECT_EQ(want[i].cycles, got[i].cycles) << at;
    EXPECT_EQ(want[i].servers_used, got[i].servers_used) << at;
    expect_same_raw(want[i].lost_clients, got[i].lost_clients, at + " lost");
    expect_same_raw(want[i].active_slots, got[i].active_slots, at + " slots");
    expect_same_raw(want[i].edge_energy, got[i].edge_energy, at + " edge");
    expect_same_raw(want[i].cloud_energy, got[i].cloud_energy, at + " cloud");
    expect_same_raw(want[i].total_energy, got[i].total_energy, at + " total");
  }
}

void expect_same(const std::vector<ResiliencePoint>& want,
                 const std::vector<ResiliencePoint>& got,
                 const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const ResiliencePoint& a = want[i];
    const ResiliencePoint& b = got[i];
    const std::string at = what + " n=" + std::to_string(a.initial_clients);
    EXPECT_EQ(a.initial_clients, b.initial_clients) << at;
    EXPECT_EQ(a.cycles, b.cycles) << at;
    EXPECT_EQ(a.servers_used, b.servers_used) << at;
    EXPECT_EQ(a.degraded_cycles, b.degraded_cycles) << at;
    EXPECT_EQ(a.edge_fallback_cycles, b.edge_fallback_cycles) << at;
    EXPECT_EQ(a.fallback_client_cycles, b.fallback_client_cycles) << at;
    EXPECT_EQ(a.shed_client_cycles, b.shed_client_cycles) << at;
    EXPECT_EQ(a.browned_client_cycles, b.browned_client_cycles) << at;
    EXPECT_EQ(a.sensor_mute_client_cycles, b.sensor_mute_client_cycles) << at;
    expect_same_raw(a.lost_clients, b.lost_clients, at + " lost");
    expect_same_raw(a.edge_energy, b.edge_energy, at + " edge");
    expect_same_raw(a.cloud_energy, b.cloud_energy, at + " cloud");
    expect_same_raw(a.total_energy, b.total_energy, at + " total");
    EXPECT_TRUE(same_bits(a.bytes_generated, b.bytes_generated)) << at;
    EXPECT_TRUE(same_bits(a.bytes_served, b.bytes_served)) << at;
    EXPECT_TRUE(same_bits(a.bytes_recovered, b.bytes_recovered)) << at;
    EXPECT_TRUE(same_bits(a.bytes_dropped, b.bytes_dropped)) << at;
    EXPECT_TRUE(same_bits(a.bytes_pending, b.bytes_pending)) << at;
    EXPECT_TRUE(same_bits(a.bytes_lost, b.bytes_lost)) << at;
  }
}

// -------------------------------------------------------------- references

/// The plain per-cycle sweep of the oracle grid (oracle.hpp).
std::vector<SweepPoint> reference_sweep(const core::LargeScaleSimulator& sim,
                                        const std::vector<int>& sizes) {
  return oracle::sweep(sim, sizes, kSeed, kCycles);
}

/// A fault plan of cloud outages and cloud brownouts — the two faulted
/// paths that bracket the memoized clean cycles: outages fill the
/// store-and-forward buffer that clean cycles drain, and brownouts run
/// on a reduced-capacity sibling whose cloud side differs from the base's
/// for the same survivor count.
fault::FaultPlan outage_plan() {
  fault::FaultPlan plan = fault::FaultPlan::random_outages(
      kSeed, kCycles, 0.3, 4, fault::FaultKind::kCloudOutage);
  const fault::FaultPlan brownouts = fault::FaultPlan::random_outages(
      kSeed + 1, kCycles, 0.3, 4, fault::FaultKind::kCloudBrownout, 0.5);
  EXPECT_FALSE(plan.empty());
  EXPECT_FALSE(brownouts.empty());
  for (const fault::FaultWindow& w : brownouts.windows()) plan.add(w);
  return plan;
}

/// ResilientFleet::run_point as a plain loop (oracle.hpp).
std::vector<ResiliencePoint> reference_resilience(
    const core::ResilientFleet& fleet, const std::vector<int>& sizes) {
  return oracle::resilience(fleet, sizes, kSeed, kCycles);
}

std::string temp_path(const std::string& name) {
  // Per-process name: ctest runs the cases of this binary concurrently.
  return ::testing::TempDir() + "cycle_memo_" +
         std::to_string(static_cast<long>(::getpid())) + "_" + name;
}

/// Advances `columns` in chunks of `chunk` cycles, saving and reloading
/// the campaign through a checkpoint file between chunks.
std::vector<SweepPoint> chunked_with_checkpoints(
    const core::LargeScaleSimulator& sim, const std::vector<int>& sizes,
    int chunk, unsigned threads) {
  const core::Hash128 hash = core::canonical_hash(sim.params());
  const std::string path = temp_path("fleet.ck");
  core::FleetColumns columns =
      core::FleetColumns::start(sizes, kSeed, kCycles);
  while (!sim.advance(columns, chunk, threads)) {
    core::save_checkpoint(path, columns, hash);
    columns = core::load_fleet_checkpoint(path, hash);
  }
  std::remove(path.c_str());
  return columns.points();
}

// ---------------------------------------------------------------- obs

/// The physics counters the memo must keep exact.
struct PhysicsCounters {
  std::uint64_t cycles, hives, edge, cloud, dropped, saturated, draws,
      dropout_clients;
  double max_servers;

  static PhysicsCounters read() {
    auto& reg = obs::registry();
    namespace m = obs::metric;
    return {reg.counter(m::kFleetCycles).value(),
            reg.counter(m::kFleetHivesSimulated).value(),
            reg.counter(m::kFleetRequestsEdge).value(),
            reg.counter(m::kFleetRequestsCloud).value(),
            reg.counter(m::kFleetRequestsDropped).value(),
            reg.counter(m::kLossSaturatedSlots).value(),
            reg.counter(m::kLossDropoutDraws).value(),
            reg.counter(m::kLossDropoutClients).value(),
            reg.gauge(m::kFleetMaxServersUsed).value()};
  }
};

void expect_same(const PhysicsCounters& a, const PhysicsCounters& b,
                 const std::string& what) {
  EXPECT_EQ(a.cycles, b.cycles) << what;
  EXPECT_EQ(a.hives, b.hives) << what;
  EXPECT_EQ(a.edge, b.edge) << what;
  EXPECT_EQ(a.cloud, b.cloud) << what;
  EXPECT_EQ(a.dropped, b.dropped) << what;
  EXPECT_EQ(a.saturated, b.saturated) << what;
  EXPECT_EQ(a.draws, b.draws) << what;
  EXPECT_EQ(a.dropout_clients, b.dropout_clients) << what;
  EXPECT_EQ(a.max_servers, b.max_servers) << what;
}

/// Turns metrics on for one test, zeroed, and restores the toggle after.
class MetricsOn {
 public:
  MetricsOn() : previous_(obs::enabled()) { obs::set_enabled(true); }
  ~MetricsOn() { obs::set_enabled(previous_); }

  template <typename Run>
  PhysicsCounters count(Run&& run) {
    obs::registry().reset_values();
    run();
    return PhysicsCounters::read();
  }

 private:
  bool previous_;
};

}  // namespace

TEST(CycleMemo, SweepMatchesPlainLoopAtEveryThreadCount) {
  for (const Case& c : grid()) {
    const core::LargeScaleSimulator sim(c.params);
    const auto want = reference_sweep(sim, fleet_sizes());
    expect_same(want, sim.sweep(fleet_sizes(), kSeed, kCycles, 1),
                c.name + " threads=1");
    expect_same(want, sim.sweep(fleet_sizes(), kSeed, kCycles, 0),
                c.name + " threads=0");
  }
}

TEST(CycleMemo, AdvanceMatchesPlainLoopWholeAndAcrossCheckpoints) {
  for (const Case& c : grid()) {
    const core::LargeScaleSimulator sim(c.params);
    const auto want = reference_sweep(sim, fleet_sizes());
    core::FleetColumns whole =
        core::FleetColumns::start(fleet_sizes(), kSeed, kCycles);
    EXPECT_TRUE(sim.advance(whole, 0, 0));
    expect_same(want, whole.points(), c.name + " whole");
    // 37 does not divide 96: chunks end mid-point and the last is short.
    expect_same(want, chunked_with_checkpoints(sim, fleet_sizes(), 37, 0),
                c.name + " chunked");
  }
}

TEST(CycleMemo, ResilientFleetMatchesPlainLoop) {
  const fault::FaultPlan faulted = outage_plan();
  ASSERT_FALSE(faulted.empty());
  for (const Case& c : grid()) {
    for (const fault::FaultPlan& plan : {fault::FaultPlan::none(), faulted}) {
      const core::ResilientFleet fleet(c.params, plan);
      const std::string what =
          c.name + (plan.empty() ? " empty plan" : " outages");
      const auto want = reference_resilience(fleet, fleet_sizes());
      expect_same(want, fleet.sweep(fleet_sizes(), kSeed, kCycles, 1),
                  what + " sweep threads=1");
      expect_same(want, fleet.sweep(fleet_sizes(), kSeed, kCycles, 0),
                  what + " sweep threads=0");
      core::ResilienceColumns columns =
          core::ResilienceColumns::start(fleet_sizes(), kSeed, kCycles);
      while (!fleet.advance(columns, 3, 0)) {
      }
      expect_same(want, columns.points(), what + " advance");
      if (!plan.empty()) {
        // The plan must exercise both sides of the buffer: outages fill
        // it, and memoized clean cycles drain it.
        const auto drained = [](const ResiliencePoint& p) {
          return p.bytes_recovered > 0.0;
        };
        EXPECT_TRUE(std::any_of(want.begin(), want.end(), drained)) << what;
      }
    }
  }
}

TEST(CycleMemo, PhysicsCountersMatchThePlainLoop) {
  MetricsOn metrics;
  for (const Case& c : grid()) {
    const core::LargeScaleSimulator sim(c.params);
    std::vector<SweepPoint> want;
    const PhysicsCounters plain =
        metrics.count([&] { want = reference_sweep(sim, fleet_sizes()); });
    EXPECT_GT(plain.cycles, 0u);
    std::vector<SweepPoint> got;
    expect_same(plain, metrics.count([&] {
                  got = sim.sweep(fleet_sizes(), kSeed, kCycles, 1);
                }),
                c.name + " sweep threads=1");
    expect_same(want, got, c.name + " sweep threads=1, metrics on");
    expect_same(plain, metrics.count([&] {
                  got = sim.sweep(fleet_sizes(), kSeed, kCycles, 0);
                }),
                c.name + " sweep threads=0");
    expect_same(want, got, c.name + " sweep threads=0, metrics on");
    expect_same(plain, metrics.count([&] {
                  core::FleetColumns columns =
                      core::FleetColumns::start(fleet_sizes(), kSeed, kCycles);
                  while (!sim.advance(columns, 37, 0)) {
                  }
                  got = columns.points();
                }),
                c.name + " chunked advance");
    expect_same(want, got, c.name + " chunked advance, metrics on");
  }
}

TEST(CycleMemo, AllocatorRunsOncePerDistinctSurvivorCount) {
  // Loss-free: every cycle of a point has the same survivor count, so the
  // allocator runs once per point however many cycles it simulates.
  MetricsOn metrics;
  const core::LargeScaleSimulator sim(FleetParams::paper_default());
  auto& calls = obs::registry().counter(obs::metric::kAllocatorCalls);
  metrics.count([&] { (void)sim.sweep({100, 200, 300}, kSeed, kCycles, 1); });
  EXPECT_EQ(calls.value(), 3u);
  metrics.count([&] {
    util::Rng rng(kSeed);
    for (int c = 0; c < kCycles; ++c) (void)sim.simulate_cycle(100, rng);
  });
  EXPECT_EQ(calls.value(), static_cast<std::uint64_t>(kCycles));
}
