// serve-hot and serve-cold: tenants asking the Section VI fleet model
// through serve::SimulationService (default Config, default TaskPool).
//
// One generator thread sends every request. Each phase alternates 1-s
// blocks of an open-loop part (seeded Poisson arrivals at a fixed offered
// rate; a request is timed from when it was due until its response was
// ready) and a closed-window part (a fixed number of requests in flight;
// completions per second).
//
// serve-hot draws scenario groups from a small pre-warmed pool by a Zipf
// law, so nearly every point is a cache hit. serve-cold gives every
// request a fresh seed and a drawn FleetParams variant, so every point is
// computed and the cache only takes inserts (and CLOCK evictions once it
// is full).
//
// The request kinds (3 sweeps : 1 what-if : 1 resilience) and the three
// FleetParams variants are those of bench/serving_load. The Zipf pool
// (16 groups, exponent 1.1) is an assumption: no tenant traffic has been
// recorded to fit it to.

#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "core/network_sim.hpp"
#include "core/resilience.hpp"
#include "serve/service.hpp"
#include "util/rng.hpp"
#include "util/task_pool.hpp"
#include "compare.hpp"
#include "workloads.hpp"

namespace beebench {
namespace {

using beesim::serve::Admission;
using beesim::serve::Request;
using beesim::serve::RequestKind;
using beesim::serve::Response;
using beesim::serve::SimulationService;
namespace core = beesim::core;
namespace util = beesim::util;

// Fleet sizes 100, 200, ..., 800; each request asks about 3 consecutive.
constexpr int kGridPoints = 8;
constexpr int kWindow = 3;
constexpr int kCyclesPerPoint = 400;
// serve-hot's pre-warmed pool of scenario groups and its Zipf exponent
// (assumed, see above).
constexpr int kHotGroups = 16;
constexpr double kZipfExponent = 1.1;
constexpr int kParamVariants = 3;
// Offered open-loop rates (requests/s): about 40% of the closed-window
// capacity measured when the benchmark was introduced (~100-130k req/s
// hot, ~9-12k cold, on a 4-vCPU x86-64 VM in a busy phase of its host; in
// calm phases the same VM served up to twice that). Frozen: changing them
// changes the benchmark.
constexpr double kHotRate = 40000.0;
constexpr double kColdRate = 4000.0;
// Requests in flight during the closed-window part (well below the
// default admission bounds: 1024 per queue, 4096 in flight).
constexpr std::size_t kClosedWindow = 32;
// Each phase alternates blocks of kBlockSeconds: an open-loop part
// (kOpenShare of the block), then a closed-window part.
constexpr double kBlockSeconds = 1.0;
constexpr double kOpenShare = 0.5;
// A generator that sends half of its requests later than this has fallen
// behind its schedule: the run is marked failed instead of reporting
// latencies it never offered. Host stalls make a minority of requests
// late by several ms (seen on the tuning VM); a generator that cannot
// keep up makes most of them late, by a growing margin.
constexpr double kMaxLateP50Ms = 1.0;
// Setup is repeated at least kSetupReps times and for kSetupSeconds, and
// setup_s is the median: one repetition lasts a few ms, so a single host
// stall would move it.
constexpr int kSetupReps = 5;
constexpr double kSetupSeconds = 1.0;
// serve-cold's setup sends this many requests (from a stream the run never
// uses) to start the service's workers and the task pool. With 64, the
// seed's draw of request kinds alone moved setup_s by ~12% between seeds.
constexpr std::uint64_t kColdSetupRequests = 256;
// Sub-window lengths of the robust latency and throughput statistics.
constexpr double kLatencyWindowS = 0.1;
constexpr double kRateWindowS = 0.1;
constexpr std::uint64_t kVerifyEvery = 101;
constexpr std::size_t kVerifyMax = 48;
// Requests hashed into the input digest.
constexpr int kDigestDraws = 4096;

/// One generated request, before it is expanded into a serve::Request.
struct Draw {
  RequestKind kind = RequestKind::kSweep;
  int variant = 0;
  int window_start = 0;
  std::uint64_t seed = 0;
};

/// bench/serving_load's scenario pool: paper-default fleets differing in
/// server capacity and loss configuration.
core::FleetParams variant_params(int variant) {
  core::FleetParams params = core::FleetParams::paper_default(
      core::ServiceModel::kCnn, variant % 2 == 0 ? 10 : 35);
  if (variant % 3 == 1) params.loss = core::LossConfig::all();
  if (variant % 3 == 2) params.loss = core::LossConfig::only_dropout();
  return params;
}

/// The seeded request stream. The same (seed, cold) always yields the
/// same sequence of draws.
class Generator {
 public:
  /// `stream` > 0 gives an independent stream over the same scenario
  /// pool (setup and warm-up traffic).
  Generator(std::uint64_t seed, bool cold, std::uint64_t stream = 0)
      : cold_(cold),
        seed_(seed),
        rng_(util::Rng::for_stream(seed, (cold ? 11 : 10) + 100 * stream)) {
    double total = 0.0;
    for (int g = 0; g < kHotGroups; ++g) {
      total += 1.0 / std::pow(static_cast<double>(g + 1), kZipfExponent);
      zipf_cdf_.push_back(total);
    }
    for (double& c : zipf_cdf_) c /= total;
  }

  Draw next() {
    Draw d;
    // 3 sweeps : 1 what-if : 1 resilience, as in bench/serving_load.
    switch (rng_.uniform_int(0, 4)) {
      case 3: d.kind = RequestKind::kWhatIf; break;
      case 4: d.kind = RequestKind::kResilience; break;
      default: d.kind = RequestKind::kSweep; break;
    }
    d.window_start = static_cast<int>(
        rng_.uniform_int(0, kGridPoints - kWindow));
    if (cold_) {
      d.variant = static_cast<int>(rng_.uniform_int(0, kParamVariants - 1));
      d.seed = rng_();  // fresh scenario group
    } else {
      const double u = rng_.uniform();
      const int group = static_cast<int>(
          std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
          zipf_cdf_.begin());
      d.variant = std::min(group, kHotGroups - 1) % kParamVariants;
      d.seed = hot_group_seed(std::min(group, kHotGroups - 1));
    }
    return d;
  }

  std::uint64_t hot_group_seed(int group) const {
    return seed_ * 1000003ULL + static_cast<std::uint64_t>(group);
  }

 private:
  bool cold_;
  std::uint64_t seed_;
  util::Rng rng_;
  std::vector<double> zipf_cdf_;
};

std::vector<int> grid_counts(int start, int n) {
  std::vector<int> counts;
  for (int i = 0; i < n; ++i) counts.push_back(100 * (start + i + 1));
  return counts;
}

beesim::fault::FaultPlan outage_plan(std::uint64_t seed) {
  return beesim::fault::FaultPlan::random_outages(seed, kCyclesPerPoint, 0.2,
                                                  3);
}

Request make_request(const Draw& d, std::vector<int> counts,
                     std::uint64_t tenant) {
  const core::FleetParams params = variant_params(d.variant);
  switch (d.kind) {
    case RequestKind::kWhatIf: {
      beesim::serve::WhatIfRequest r;
      r.params = params;
      r.client_counts = std::move(counts);
      r.cycles_per_point = kCyclesPerPoint;
      r.seed = d.seed;
      return Request::make_what_if(std::move(r), tenant);
    }
    case RequestKind::kResilience: {
      beesim::serve::ResilienceRequest r;
      r.params = params;
      r.plan = outage_plan(d.seed);
      r.client_counts = std::move(counts);
      r.cycles_per_point = kCyclesPerPoint;
      r.seed = d.seed;
      return Request::make_resilience(std::move(r), tenant);
    }
    case RequestKind::kSweep: break;
  }
  beesim::serve::SweepRequest r;
  r.params = params;
  r.client_counts = std::move(counts);
  r.cycles_per_point = kCyclesPerPoint;
  r.seed = d.seed;
  return Request::make_sweep(std::move(r), tenant);
}

Request make_request(const Draw& d, std::uint64_t tenant) {
  return make_request(d, grid_counts(d.window_start, kWindow), tenant);
}

std::uint64_t input_digest(std::uint64_t seed, bool cold, double rate) {
  Digest digest;
  Generator gen(seed, cold);
  util::Rng arrivals = util::Rng::for_stream(seed, 20);
  for (int i = 0; i < kDigestDraws; ++i) {
    const Draw d = gen.next();
    digest.add_value(static_cast<int>(d.kind));
    digest.add_value(d.variant);
    digest.add_value(d.window_start);
    digest.add_value(d.seed);
    const double gap = -std::log(1.0 - arrivals.uniform()) / rate;
    digest.add_value(gap);
  }
  return digest.value();
}

/// Compares a served response field for field with a direct
/// LargeScaleSimulator::sweep / ResilientFleet::sweep of the same request.
bool response_matches(const Draw& d, const Response& resp) {
  const std::vector<int> counts = grid_counts(d.window_start, kWindow);
  const core::FleetParams params = variant_params(d.variant);
  if (d.kind == RequestKind::kResilience) {
    const core::ResilientFleet fleet(params, outage_plan(d.seed));
    const auto direct = fleet.sweep(counts, d.seed, kCyclesPerPoint, 1);
    if (resp.resilience_points.size() != direct.size()) return false;
    for (std::size_t i = 0; i < direct.size(); ++i)
      if (!same_point(resp.resilience_points[i].point, direct[i]))
        return false;
    return true;
  }
  const core::LargeScaleSimulator sim(params);
  const auto direct = sim.sweep(counts, d.seed, kCyclesPerPoint, 1);
  if (d.kind == RequestKind::kSweep) {
    if (resp.sweep_points.size() != direct.size()) return false;
    for (std::size_t i = 0; i < direct.size(); ++i)
      if (!same_point(resp.sweep_points[i].point, direct[i])) return false;
    return true;
  }
  if (resp.what_if.size() != direct.size()) return false;
  const double edge_only =
      core::ClientSpec::smart_beehive(core::Placement::kEdgeOnly,
                                      core::ServiceModel::kCnn,
                                      params.client.period)
          .cycle_energy();
  for (std::size_t i = 0; i < direct.size(); ++i) {
    const core::PlacementComparison& c = resp.what_if[i].comparison;
    const double edge_cloud = direct[i].total_per_client();
    if (c.clients != counts[i] ||
        !same_bits(c.edge_only_per_client, edge_only) ||
        !same_bits(c.edge_cloud_per_client, edge_cloud) ||
        c.edge_cloud_wins != (edge_cloud < edge_only))
      return false;
  }
  return true;
}

/// What one open-loop or closed-window part observed.
struct PartStats {
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;
  std::vector<Sample> latency_ms;  // open loop: (due, due -> ready)
  std::vector<double> late_ms;     // open loop: due -> submitted
  std::vector<double> completions;  // closed window: per kRateWindowS

  void complete(std::int64_t ready_ns) {
    const auto k = static_cast<std::size_t>(
        static_cast<double>(ready_ns - t0_ns) * 1e-9 / kRateWindowS);
    if (ready_ns >= t0_ns && k < completions.size()) completions[k] += 1.0;
  }
};

/// A phase's sub-window values, gathered over its interleaved blocks of
/// open loop and closed window. The reported figures are their medians.
/// Whole-phase distributions are fixed-size histograms, so memory does
/// not grow with the phase.
struct PhaseStats {
  std::vector<double> p50, p90, p99;  // per latency sub-window
  std::vector<double> rate;           // completions/s per closed sub-window
  LogHistogram late_ms;
  LogHistogram latency_ms;            // every open-loop latency

  void add_open(const PartStats& part, double offered) {
    // Each quantile's sub-windows expect 25% more requests than it needs.
    const auto add = [&](std::vector<double>& out, double q) {
      const double window_s =
          std::max(kLatencyWindowS, 1.25 * samples_for(q) / offered);
      const auto w = window_quantiles(part.latency_ms, part.t0_ns,
                                      part.t1_ns, window_s, q);
      out.insert(out.end(), w.begin(), w.end());
    };
    add(p50, 0.50);
    add(p90, 0.90);
    add(p99, 0.99);
    for (double v : part.late_ms) late_ms.add(v);
    for (const Sample& s : part.latency_ms) latency_ms.add(s.value);
  }
  void add_closed(const PartStats& part) {
    for (double c : part.completions) rate.push_back(c / kRateWindowS);
  }
  double throughput() const { return quantile(rate, 0.5); }
};

/// Drives one SimulationService from the calling thread and keeps the
/// tallies every part shares.
class Traffic {
 public:
  Traffic(SimulationService& service, Generator& gen)
      : service_(service), gen_(gen) {}

  /// Open loop: Poisson arrivals at `rate` for `seconds`, then drains.
  PartStats open_loop(double rate, double seconds, util::Rng& arrivals) {
    PartStats part;
    const std::int64_t t0 = trace::now_ns();
    const auto end = t0 + static_cast<std::int64_t>(seconds * 1e9);
    part.t0_ns = t0;
    part.t1_ns = end;
    // Sample buffers are reserved up front (Poisson counts stay well within
    // 20% of the mean), so peak memory does not depend on growth steps.
    const auto expected = static_cast<std::size_t>(rate * seconds * 1.2) + 64;
    part.latency_ms.reserve(expected);
    part.late_ms.reserve(expected);
    double due = static_cast<double>(t0);
    while (true) {
      due += -std::log(1.0 - arrivals.uniform()) / rate * 1e9;
      const auto due_ns = static_cast<std::int64_t>(due);
      if (due_ns >= end) break;
      wait_until(due_ns, &part);
      const std::int64_t now = trace::now_ns();
      part.late_ms.push_back(static_cast<double>(now - due_ns) * 1e-6);
      send(due_ns);
    }
    while (!outstanding_.empty()) reap(&part, /*block=*/true, 0);
    return part;
  }

  /// Closed window until `n` more requests have been sent, then drains.
  void closed_count(std::uint64_t n) {
    const std::uint64_t end = submitted_ + n;
    while (submitted_ < end) {
      while (outstanding_.size() < kClosedWindow && submitted_ < end) send(0);
      reap(nullptr, /*block=*/true, 0);
    }
    while (!outstanding_.empty()) reap(nullptr, /*block=*/true, 0);
  }

  /// Closed window: kClosedWindow requests in flight for `seconds`.
  PartStats closed_window(double seconds) {
    PartStats part;
    part.t0_ns = trace::now_ns();
    part.t1_ns = part.t0_ns + static_cast<std::int64_t>(seconds * 1e9);
    part.completions.assign(
        static_cast<std::size_t>(seconds / kRateWindowS), 0.0);
    while (trace::now_ns() < part.t1_ns) {
      while (outstanding_.size() < kClosedWindow) send(0);
      reap(&part, /*block=*/true, part.t1_ns);
    }
    while (!outstanding_.empty()) reap(nullptr, /*block=*/true, 0);
    return part;
  }

  std::uint64_t submitted() const noexcept { return submitted_; }
  std::uint64_t failed() const noexcept { return failed_; }
  std::uint64_t completed() const noexcept { return completed_; }
  std::uint64_t points_total() const noexcept { return points_total_; }
  /// CPU seconds this thread has spent inside submit() and future::get().
  double api_cpu_s() const noexcept { return api_cpu_s_; }
  std::uint64_t points_from_cache() const noexcept {
    return points_from_cache_;
  }
  const std::vector<std::uint64_t>& rejects() const noexcept {
    return rejects_;
  }
  std::vector<std::pair<Draw, Response>>& samples() noexcept {
    return samples_;
  }

 private:
  struct InFlight {
    std::uint64_t index;
    Draw draw;
    std::int64_t due_ns;
    std::int64_t submitted_ns;
    bool open_loop;
    std::future<Response> response;
  };

  /// Sends the next request; `due_ns` is 0 in the closed window.
  void send(std::int64_t due_ns) {
    const std::uint64_t index = submitted_++;
    const Draw d = gen_.next();
    Request req = make_request(d, index % 64);
    SimulationService::Ticket ticket;
    {
      trace::Scope span("serve.submit", trace::Layer::kServe, index);
      const ApiCpu cpu(api_cpu_s_);
      ticket = service_.submit(std::move(req));
    }
    if (!ticket.admitted()) {
      ++failed_;
      ++rejects_[static_cast<std::size_t>(ticket.admission)];
      return;
    }
    outstanding_.push_back({index, d, due_ns, trace::now_ns(), due_ns != 0,
                            std::move(ticket.response)});
  }

  /// Collects every ready response. With `block`, first waits (up to
  /// kWaitSlice, or until `deadline` when it is nonzero) for the oldest.
  void reap(PartStats* part, bool block, std::int64_t deadline) {
    if (block && !outstanding_.empty()) {
      auto slice = kWaitSlice;
      if (deadline != 0) {
        const auto left = std::chrono::nanoseconds(deadline - trace::now_ns());
        if (left <= std::chrono::nanoseconds(0)) slice = {};
        else if (left < slice) slice = left;
      }
      trace::Scope span("serve.wait", trace::Layer::kServe);
      outstanding_.front().response.wait_for(slice);
    }
    for (std::size_t i = 0; i < outstanding_.size();) {
      InFlight& f = outstanding_[i];
      if (f.response.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++i;
        continue;
      }
      const std::int64_t ready = trace::now_ns();
      trace::record_interval("serve.residence", trace::Layer::kServe,
                             f.submitted_ns, ready, f.index);
      Response resp;
      try {
        trace::Scope span("serve.get", trace::Layer::kServe, f.index);
        const ApiCpu cpu(api_cpu_s_);
        resp = f.response.get();
        ++completed_;
        points_total_ += static_cast<std::uint64_t>(resp.points_total);
        points_from_cache_ +=
            static_cast<std::uint64_t>(resp.points_from_cache);
      } catch (const std::exception&) {
        ++failed_;
      }
      if (part != nullptr && f.open_loop)
        part->latency_ms.push_back(
            {f.due_ns, static_cast<double>(ready - f.due_ns) * 1e-6});
      else if (part != nullptr)
        part->complete(ready);
      if (f.index % kVerifyEvery == 0 && samples_.size() < kVerifyMax)
        samples_.emplace_back(f.draw, std::move(resp));
      // Order does not matter for the generator; keep the oldest first.
      outstanding_.erase(outstanding_.begin() +
                         static_cast<std::ptrdiff_t>(i));
    }
  }

  /// Waits for `due_ns`, collecting responses meanwhile.
  void wait_until(std::int64_t due_ns, PartStats* part) {
    while (true) {
      const std::int64_t now = trace::now_ns();
      if (now >= due_ns) return;
      if (!outstanding_.empty()) {
        reap(part, /*block=*/true, due_ns);
      } else if (due_ns - now > 150'000) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(due_ns - now - 100'000));
      } else {
        std::this_thread::yield();
      }
    }
  }

  /// Adds the CPU time the calling thread spends while this is alive to
  /// `total`, less the cost of reading the clock (see clock_cost_s).
  class ApiCpu {
   public:
    explicit ApiCpu(double& total)
        : total_(total), t0_(thread_cpu_seconds()) {}
    ~ApiCpu() { total_ += thread_cpu_seconds() - t0_ - clock_cost_s(); }
    ApiCpu(const ApiCpu&) = delete;
    ApiCpu& operator=(const ApiCpu&) = delete;

   private:
    double& total_;
    double t0_;
  };

  /// The thread CPU that two back-to-back clock reads show: the clock's
  /// own cost inside one ApiCpu interval (median of 1001 pairs).
  static double clock_cost_s() {
    static const double cost = [] {
      std::vector<double> d;
      for (int i = 0; i < 1001; ++i) {
        const double t0 = thread_cpu_seconds();
        d.push_back(thread_cpu_seconds() - t0);
      }
      return quantile(d, 0.5);
    }();
    return cost;
  }

  static constexpr std::chrono::nanoseconds kWaitSlice{20'000};

  SimulationService& service_;
  Generator& gen_;
  std::vector<InFlight> outstanding_;
  std::uint64_t submitted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t points_total_ = 0;
  std::uint64_t points_from_cache_ = 0;
  double api_cpu_s_ = 0.0;
  std::vector<std::uint64_t> rejects_ =
      std::vector<std::uint64_t>(5, 0);  // by Admission value
  std::vector<std::pair<Draw, Response>> samples_;
};

/// serve-hot's warm-up: every pool group's sweep/what-if and resilience
/// points over the whole grid. Returns the number of requests submitted.
std::uint64_t warm_hot(SimulationService& service, const Generator& gen) {
  std::vector<std::future<Response>> waits;
  for (int g = 0; g < kHotGroups; ++g)
    for (RequestKind kind : {RequestKind::kSweep, RequestKind::kResilience}) {
      Draw d;
      d.kind = kind;
      d.variant = g % kParamVariants;
      d.seed = gen.hot_group_seed(g);
      auto ticket = service.submit(
          make_request(d, grid_counts(0, kGridPoints), 0));
      if (!ticket.admitted())
        throw std::runtime_error("serve-hot warm-up request rejected");
      waits.push_back(std::move(ticket.response));
    }
  for (auto& w : waits) w.get();
  return waits.size();
}

}  // namespace

Result run_serve(const Options& opt, bool cold) {
  const double rate = cold ? kColdRate : kHotRate;
  const std::uint64_t digest = input_digest(opt.seed, cold, rate);
  print_digest(opt, digest);
  if (opt.digest_only) return {};
  // Wake-ups from the response waits should be timely, not batched.
  prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);

  Result result;
  // Setup: a fresh service per repetition; the last one serves the run.
  std::unique_ptr<SimulationService> service;
  std::unique_ptr<Generator> gen;
  std::uint64_t warm_submits = 0;
  std::uint64_t rejected_before = 0;
  const double setup_s = median_seconds(
      kSetupReps, kSetupSeconds,
      [&] {
        service = std::make_unique<SimulationService>();
        gen = std::make_unique<Generator>(opt.seed, cold);
        if (!cold) {
          warm_submits = warm_hot(*service, *gen);
        } else {
          // Start the workers and the task pool on requests from another
          // stream, so the timed window does not pay for thread start-up.
          Generator warm(opt.seed, true, 1);
          Traffic traffic(*service, warm);
          traffic.closed_count(kColdSetupRequests);
          warm_submits = traffic.submitted();
          rejected_before = traffic.failed();
        }
      },
      [&] { service.reset(); });
  result.set("setup_s", setup_s, "s");
  {
    // Warm-up, untimed and outside setup_s (see kWarmupSeconds): the
    // workload's own traffic from another stream of the same seed.
    Generator warm(opt.seed, cold, 2);
    Traffic traffic(*service, warm);
    traffic.closed_window(kWarmupSeconds);
    warm_submits += traffic.submitted();
    rejected_before += traffic.failed();
  }

  Traffic traffic(*service, *gen);
  util::Rng arrivals = util::Rng::for_stream(opt.seed, 20);
  // A phase alternates open-loop and closed-window blocks, so both kinds
  // of figure sample the whole phase rather than one half of it.
  const auto run_phase = [&](double seconds) {
    PhaseStats stats;
    const double blocks = std::max(1.0, std::round(seconds / kBlockSeconds));
    const double block_s = seconds / blocks;
    for (int b = 0; b < static_cast<int>(blocks); ++b) {
      stats.add_open(traffic.open_loop(rate, block_s * kOpenShare, arrivals),
                     rate);
      stats.add_closed(traffic.closed_window(block_s * (1.0 - kOpenShare)));
    }
    return stats;
  };
  const unsigned cpus = cpu_count();
  double measured_ops = 0.0;
  LogHistogram late_all;

  for (const PhasePlan& phase : plan_phases(opt)) {
    if (phase.phase == Phase::kMeasured) {
      const double cpu0 = process_cpu_seconds();
      const double gen0 = thread_cpu_seconds();
      const double api0 = traffic.api_cpu_s();
      const std::uint64_t done0 = traffic.completed();
      const auto t0 = Clock::now();
      const PhaseStats s = run_phase(phase.seconds);
      const double wall = seconds_between(t0, Clock::now());
      // CPU of every thread but the load generator (this one), plus the
      // generator's own CPU inside submit() and future::get(): everything
      // but the harness's generating, waiting and bookkeeping.
      const double cpu = process_cpu_seconds() - cpu0 -
                         (thread_cpu_seconds() - gen0) +
                         (traffic.api_cpu_s() - api0);
      result.set("cpu_ms_per_op",
                 cpu * 1e3 / static_cast<double>(traffic.completed() - done0),
                 "ms");
      measured_ops = s.throughput();
      result.set("p50_ms", quantile(s.p50, 0.5), "ms");
      result.set("p90_ms", quantile(s.p90, 0.5), "ms");
      result.set("p99_ms", quantile(s.p99, 0.5), "ms");
      result.set("serve.p99_whole_run_ms", s.latency_ms.quantile(0.99), "ms");
      result.set("ops_per_s", measured_ops, "1/s");
      result.set("util.cpu_util", cpu / (wall * cpus), "ratio");
      late_all = s.late_ms;
    } else if (phase.phase == Phase::kTraced) {
      trace::clear();
      trace::set_on(true);
      const std::int64_t t0 = trace::now_ns();
      const PhaseStats s = run_phase(phase.seconds);
      const std::int64_t t1 = trace::now_ns();
      trace::set_on(false);
      record_accounting(result, trace::account_calling_thread(t0, t1));
      const auto submit_ms = trace::durations_ms("serve.submit");
      result.set("serve.submit_us.p50", quantile(submit_ms, 0.50) * 1e3,
                 "us");
      result.set("serve.submit_us.p99", quantile(submit_ms, 0.99) * 1e3,
                 "us");
      const auto residence = trace::durations_ms("serve.residence");
      result.set("serve.residence_ms.p50", quantile(residence, 0.50), "ms");
      result.set("serve.residence_ms.p99", quantile(residence, 0.99), "ms");
      result.set("trace.overhead_frac", measured_ops / s.throughput() - 1.0,
                 "ratio");
      if (!opt.trace_out.empty()) trace::write_tsv(opt.trace_out);
    } else {
      const std::uint64_t done0 = traffic.completed();
      const auto pool0 = util::TaskPool::instance().stats();
      CountedRun counted;
      const PhaseStats s = run_phase(phase.seconds);
      const auto pool1 = util::TaskPool::instance().stats();
      const double reqs =
          static_cast<double>(std::max<std::uint64_t>(
              1, traffic.completed() - done0));
      result.set("obs.overhead_frac", measured_ops / s.throughput() - 1.0,
                 "ratio");
      const auto width = counted.histogram("serve.batch.width");
      result.set("serve.batch.width.mean",
                 width.first == 0 ? 0.0
                                  : width.second /
                                        static_cast<double>(width.first),
                 "count");
      const double requested =
          static_cast<double>(counted.counter("serve.points_requested"));
      result.set("serve.coalesce_ratio",
                 requested == 0.0
                     ? 0.0
                     : static_cast<double>(
                           counted.counter("serve.points_coalesced")) /
                           requested,
                 "ratio");
      result.set("serve.computed_per_req",
                 static_cast<double>(
                     counted.counter("serve.points_computed")) /
                     reqs,
                 "count");
      result.set("serve.queue.peak_depth",
                 counted.gauge("serve.queue.peak_depth"), "count");
      result.set("core.fleet.cycles_per_req",
                 static_cast<double>(counted.counter("core.fleet.cycles")) /
                     reqs,
                 "count");
      result.set("util.pool.tasks_per_op",
                 static_cast<double>(pool1.tasks - pool0.tasks) / reqs,
                 "count");
      result.set("util.pool.steals",
                 static_cast<double>(pool1.steals - pool0.steals), "count");
      result.set("util.pool.parks",
                 static_cast<double>(pool1.parks - pool0.parks), "count");
    }
  }

  // Quiesce, then check the ledger, the generator and the answers.
  service->shutdown();
  const auto ledger = service->ledger();
  const auto cache = service->cache_stats();
  const std::uint64_t submits = traffic.submitted() + warm_submits;
  result.attempted = traffic.submitted();
  result.failed = traffic.failed();
  result.check(ledger.balanced() && ledger.in_flight() == 0,
               "admission ledger does not balance at quiescence");
  result.check(ledger.submitted == submits,
               "service ledger disagrees with the requests submitted");
  result.check(ledger.rejected == traffic.failed() + rejected_before,
               "service ledger disagrees with the rejects observed");
  const double late_p50 = late_all.quantile(0.50);
  result.set("gen.late_ms.p50", late_p50, "ms");
  result.set("gen.late_ms.p99", late_all.quantile(0.99), "ms");
  result.check(late_p50 <= kMaxLateP50Ms,
               "generator fell behind its schedule (median lateness " +
                   std::to_string(late_p50) + " ms)");
  const double hit_ratio =
      traffic.points_total() == 0
          ? 0.0
          : static_cast<double>(traffic.points_from_cache()) /
                static_cast<double>(traffic.points_total());
  result.set("serve.hit_ratio", hit_ratio, "ratio");
  result.check(cold ? hit_ratio < 0.01 : hit_ratio > 0.95,
               "cache hit ratio " + std::to_string(hit_ratio) +
                   " is not what the workload is built for");
  result.set("serve.cache.evictions", static_cast<double>(cache.evictions),
             "count");
  result.set("serve.cache.entries", static_cast<double>(cache.entries),
             "count");
  const auto& rejects = traffic.rejects();
  const auto rejected = [&rejects](Admission a) {
    return static_cast<double>(rejects[static_cast<std::size_t>(a)]);
  };
  result.set("serve.rejected", static_cast<double>(traffic.failed()), "count");
  result.set("serve.rejected.queue_full",
             rejected(Admission::kRejectedQueueFull), "count");
  result.set("serve.rejected.overloaded",
             rejected(Admission::kRejectedOverloaded), "count");
  result.set("serve.rejected.invalid", rejected(Admission::kRejectedInvalid),
             "count");
  result.set("serve.rejected.shutdown",
             rejected(Admission::kRejectedShutdown), "count");

  std::size_t mismatches = 0;
  for (const auto& [draw, resp] : traffic.samples())
    if (!response_matches(draw, resp)) ++mismatches;
  result.check(!traffic.samples().empty(), "no responses were sampled");
  result.check(mismatches == 0,
               std::to_string(mismatches) +
                   " sampled responses differ from a direct sweep");
  result.set("peak_rss_mb", peak_rss_mb(), "MB");
  return result;
}

}  // namespace beebench
