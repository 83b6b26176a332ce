// Multi-tenant serving load generator for the simulation-as-a-service
// layer (docs/SERVING.md). `tenants` closed-loop tenant threads each
// issue `requests_per_tenant` scenario-evaluation requests — a mix of
// fig6-style sweeps, fig7-style what-if placements and resilience
// queries — drawn from a small shared scenario pool with overlapping
// fleet-size windows, so different tenants keep asking about the same
// points. The run reports throughput, p50/p99 request latency, the
// cache hit ratio and the coalescing rate, then repeats the identical
// workload with the content-addressed cache disabled and prints the
// speedup the cache buys.
//
// Two self-checks guard the serving story and make this bench a tier-1
// smoke test (bench_smoke_serving):
//  - "admission ledger ok": submitted = admitted + rejected and every
//    admitted request completed (nothing silently dropped);
//  - "serving parity ok": a response served from the warmed cache is
//    bit-identical, field by field, to a direct
//    LargeScaleSimulator::sweep over the same grid.
// The bench exits non-zero if either fails.
//
// Usage: serving_load [tenants=8] [requests_per_tenant=25] [scenarios=3]
//                     [grid_points=6] [window=3] [cycles_per_point=400]
//                     [workers=4] [queue_capacity=1024] [max_batch=32]
//                     [seed=7] [--metrics-out path]

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/canonical.hpp"
#include "serve/service.hpp"
#include "util/stats.hpp"

using namespace beesim;

namespace {

struct Workload {
  int tenants = 8;
  int requests_per_tenant = 25;
  int scenarios = 3;
  int grid_points = 6;
  int window = 3;
  // Heavy enough per point (Monte-Carlo cycles) that compute, not queue
  // hand-off, dominates a cold request — the regime the cache exists for.
  int cycles_per_point = 400;
  std::uint64_t seed = 7;
};

struct PhaseResult {
  double wall_seconds = 0.0;
  double throughput = 0.0;  // requests / second
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  serve::SimulationService::Ledger ledger;
  serve::PointCache::Stats cache;
};

// The shared scenario pool: paper-default fleets differing in server
// capacity and loss configuration, so distinct scenarios never share
// cache entries (their canonical hashes differ) while every tenant
// draws from the same pool.
core::FleetParams scenario_params(int scenario) {
  const int max_parallel = scenario % 2 == 0 ? 10 : 35;
  core::FleetParams params =
      core::FleetParams::paper_default(core::ServiceModel::kCnn, max_parallel);
  if (scenario % 3 == 1) params.loss = core::LossConfig::all();
  if (scenario % 3 == 2) params.loss = core::LossConfig::only_dropout();
  return params;
}

// Overlapping fleet-size window for one request: `window` consecutive
// grid sizes starting at a tenant/request-dependent offset.
std::vector<int> request_counts(const Workload& w, int tenant, int index) {
  std::vector<int> counts;
  const int start = (tenant + index) % (w.grid_points - w.window + 1);
  for (int i = 0; i < w.window; ++i)
    counts.push_back(100 * (start + i + 1));
  return counts;
}

serve::Request make_request(const Workload& w, int tenant, int index) {
  const int scenario = (tenant * 31 + index) % w.scenarios;
  const core::FleetParams params = scenario_params(scenario);
  std::vector<int> counts = request_counts(w, tenant, index);
  const auto id = static_cast<std::uint64_t>(tenant);

  switch (index % 5) {
    case 3: {  // fig7-style what-if placement
      serve::WhatIfRequest r;
      r.params = params;
      r.client_counts = std::move(counts);
      r.cycles_per_point = w.cycles_per_point;
      r.seed = w.seed;
      return serve::Request::make_what_if(std::move(r), id);
    }
    case 4: {  // resilience query under a seeded outage plan
      serve::ResilienceRequest r;
      r.params = params;
      r.plan = fault::FaultPlan::random_outages(
          w.seed + static_cast<std::uint64_t>(scenario), 20, 0.2, 3);
      r.client_counts = std::move(counts);
      r.cycles_per_point = w.cycles_per_point;
      r.seed = w.seed;
      return serve::Request::make_resilience(std::move(r), id);
    }
    default: {  // fig6-style sweep
      serve::SweepRequest r;
      r.params = params;
      r.client_counts = std::move(counts);
      r.cycles_per_point = w.cycles_per_point;
      r.seed = w.seed;
      return serve::Request::make_sweep(std::move(r), id);
    }
  }
}

PhaseResult run_phase(const Workload& w,
                      serve::SimulationService::Config config) {
  serve::SimulationService service(config);
  std::vector<std::vector<double>> latencies(
      static_cast<std::size_t>(w.tenants));

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int tenant = 0; tenant < w.tenants; ++tenant)
    threads.emplace_back([&w, &service, &latencies, tenant] {
      auto& lat = latencies[static_cast<std::size_t>(tenant)];
      lat.reserve(static_cast<std::size_t>(w.requests_per_tenant));
      for (int i = 0; i < w.requests_per_tenant; ++i) {
        const auto r0 = std::chrono::steady_clock::now();
        auto ticket = service.submit(make_request(w, tenant, i));
        if (!ticket.admitted()) continue;  // typed reject, counted below
        ticket.response.get();  // closed loop: wait before the next ask
        const auto r1 = std::chrono::steady_clock::now();
        lat.push_back(
            std::chrono::duration<double, std::milli>(r1 - r0).count());
      }
    });
  for (auto& t : threads) t.join();
  const auto t1 = std::chrono::steady_clock::now();
  service.shutdown();

  PhaseResult result;
  result.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  std::vector<double> all;
  for (auto& per_tenant : latencies)
    all.insert(all.end(), per_tenant.begin(), per_tenant.end());
  result.p50_ms = util::percentile(all, 0.50);
  result.p99_ms = util::percentile(all, 0.99);
  result.throughput = result.wall_seconds > 0.0
                          ? static_cast<double>(all.size()) /
                                result.wall_seconds
                          : 0.0;
  result.ledger = service.ledger();
  result.cache = service.cache_stats();
  return result;
}

// Bit-identity parity check: warm a service with the scenario-0 grid,
// re-request it (served from cache), and compare field by field against
// a direct LargeScaleSimulator::sweep. Exact FP equality — the serving
// layer promises the same bytes, not "close".
bool parity_ok(const Workload& w) {
  std::vector<int> grid;
  for (int i = 1; i <= w.grid_points; ++i) grid.push_back(100 * i);

  serve::SimulationService::Config config;
  config.workers = 0;
  serve::SimulationService service(config);
  serve::SweepRequest warm;
  warm.params = scenario_params(0);
  warm.client_counts = grid;
  warm.cycles_per_point = w.cycles_per_point;
  warm.seed = w.seed;
  auto cold_ticket = service.submit(serve::Request::make_sweep(warm));
  service.drain();
  cold_ticket.response.get();

  auto cached_ticket = service.submit(serve::Request::make_sweep(warm));
  service.drain();
  const serve::Response cached = cached_ticket.response.get();
  if (cached.points_from_cache != static_cast<int>(grid.size())) return false;

  const core::LargeScaleSimulator sim(scenario_params(0));
  const auto direct = sim.sweep(grid, w.seed, w.cycles_per_point, 1);
  for (std::size_t i = 0; i < direct.size(); ++i) {
    const core::SweepPoint& a = cached.sweep_points[i].point;
    const core::SweepPoint& b = direct[i];
    if (a.initial_clients != b.initial_clients || a.cycles != b.cycles ||
        a.servers_used != b.servers_used ||
        a.lost_clients.sum() != b.lost_clients.sum() ||
        a.active_slots.sum() != b.active_slots.sum() ||
        a.edge_energy.sum() != b.edge_energy.sum() ||
        a.cloud_energy.sum() != b.cloud_energy.sum() ||
        a.total_energy.sum() != b.total_energy.sum() ||
        a.total_energy.mean() != b.total_energy.mean() ||
        a.total_energy.min() != b.total_energy.min() ||
        a.total_energy.max() != b.total_energy.max())
      return false;
  }
  return true;
}

void print_phase(const char* label, const PhaseResult& r) {
  std::printf(
      "  %-12s %8.2f req/s   p50 %8.3f ms   p99 %8.3f ms   wall %6.2f s\n",
      label, r.throughput, r.p50_ms, r.p99_ms, r.wall_seconds);
  std::printf(
      "  %-12s admitted %llu  rejected %llu  completed %llu  "
      "cache hits %llu / misses %llu  entries %llu\n",
      "", static_cast<unsigned long long>(r.ledger.admitted),
      static_cast<unsigned long long>(r.ledger.rejected),
      static_cast<unsigned long long>(r.ledger.completed),
      static_cast<unsigned long long>(r.cache.hits),
      static_cast<unsigned long long>(r.cache.misses),
      static_cast<unsigned long long>(r.cache.entries));
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args(argc, argv);
  auto& cfg = args.config();

  Workload w;
  w.tenants = static_cast<int>(cfg.get_int("tenants", 8));
  w.requests_per_tenant =
      static_cast<int>(cfg.get_int("requests_per_tenant", 25));
  w.scenarios = static_cast<int>(cfg.get_int("scenarios", 3));
  w.grid_points = static_cast<int>(cfg.get_int("grid_points", 6));
  w.window = static_cast<int>(cfg.get_int("window", 3));
  w.cycles_per_point =
      static_cast<int>(cfg.get_int("cycles_per_point", 400));
  w.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 7));
  if (w.window > w.grid_points) w.window = w.grid_points;

  serve::SimulationService::Config config;
  config.workers = static_cast<unsigned>(cfg.get_int("workers", 4));
  config.queue_capacity =
      static_cast<std::size_t>(cfg.get_int("queue_capacity", 1024));
  config.max_batch = static_cast<std::size_t>(cfg.get_int("max_batch", 32));
  if (config.workers < 1) config.workers = 1;

  bench::banner("serving_load",
                "multi-tenant serving layer: throughput, latency, cache");
  std::printf(
      "\n  %d tenants x %d requests (sweep/what-if/resilience mix), "
      "%d scenarios,\n  %d-point windows over a %d-point grid, "
      "%d cycles/point, %u workers\n\n",
      w.tenants, w.requests_per_tenant, w.scenarios, w.window, w.grid_points,
      w.cycles_per_point, config.workers);

  config.cache_enabled = true;
  const PhaseResult with_cache = run_phase(w, config);
  print_phase("cache=on", with_cache);

  config.cache_enabled = false;
  const PhaseResult without_cache = run_phase(w, config);
  print_phase("cache=off", without_cache);

  const double speedup = with_cache.throughput > 0.0
                             ? with_cache.throughput /
                                   (without_cache.throughput > 0.0
                                        ? without_cache.throughput
                                        : 1.0)
                             : 0.0;
  std::printf("\n  cache_hit_ratio=%.3f\n", with_cache.cache.hit_ratio());
  std::printf("  cache_speedup=%.2fx (throughput, cache on vs off)\n",
              speedup);

  bool ok = true;
  const auto check_ledger = [&ok](const char* label,
                                  const serve::SimulationService::Ledger& l) {
    if (l.balanced() && l.in_flight() == 0) return;
    std::printf("  ADMISSION LEDGER LEAK (%s): submitted %llu admitted %llu "
                "rejected %llu completed %llu\n",
                label, static_cast<unsigned long long>(l.submitted),
                static_cast<unsigned long long>(l.admitted),
                static_cast<unsigned long long>(l.rejected),
                static_cast<unsigned long long>(l.completed));
    ok = false;
  };
  check_ledger("cache=on", with_cache.ledger);
  check_ledger("cache=off", without_cache.ledger);
  if (ok) std::printf("  admission ledger ok\n");

  if (parity_ok(w)) {
    std::printf("  serving parity ok (cached == direct sweep, bit-identical)\n");
  } else {
    std::printf("  SERVING PARITY FAILED: cached response differs from "
                "direct compute\n");
    ok = false;
  }

  return ok ? EXIT_SUCCESS : EXIT_FAILURE;
}
