// fleet-campaign: a resumable sweep campaign over lossy paper-default
// fleets (loss model C on) and the same fleets under a random-outage
// plan. Each campaign starts FleetColumns and ResilienceColumns for every
// shard, advances the shards chunk by chunk with a checkpoint save after
// every chunk, and finally merges the shards' checkpoints. The merged
// points must equal one uninterrupted sweep field for field.

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/fleet_columns.hpp"
#include "core/network_sim.hpp"
#include "core/resilience.hpp"
#include "util/rng.hpp"
#include "util/task_pool.hpp"
#include "compare.hpp"
#include "workloads.hpp"

namespace beebench {
namespace {

namespace core = beesim::core;
namespace util = beesim::util;

constexpr int kShards = 2;
constexpr int kGridLo = 25;
constexpr int kGridHi = 12800;
constexpr int kGridStep = 25;
constexpr int kCyclesPerPoint = 512;
constexpr int kChunkCycles = 128;      // sweep cycles per advance
constexpr int kChunkPoints = 64;       // resilience points per advance
// Each setup repetition is one ~40 ms warm-up campaign, so a single host
// stall moves it noticeably. Setup is repeated at least kSetupReps times
// and for kSetupSeconds, and setup_s is the median.
constexpr int kSetupReps = 5;
constexpr double kSetupSeconds = 1.0;

/// The campaign definition, fixed by the seed.
struct Campaign {
  std::vector<int> grid;
  core::LargeScaleSimulator sim;
  core::ResilientFleet fleet;
  core::Hash128 sweep_hash;
  core::Hash128 resilience_hash;
};

core::FleetParams lossy_params() {
  core::FleetParams params = core::FleetParams::paper_default();
  params.loss = core::LossConfig::all();
  return params;
}

Campaign make_campaign(std::uint64_t seed) {
  const core::FleetParams params = lossy_params();
  const auto plan = beesim::fault::FaultPlan::random_outages(
      seed, kCyclesPerPoint, 0.2, 3);
  Campaign c{core::client_range(kGridLo, kGridHi, kGridStep),
             core::LargeScaleSimulator(params),
             core::ResilientFleet(params, plan),
             core::canonical_hash(params),
             {}};
  c.resilience_hash =
      core::resilience_campaign_hash(params, plan, c.fleet.policy());
  return c;
}

std::uint64_t campaign_seed(std::uint64_t seed, std::uint64_t index) {
  return util::Rng::for_stream(seed, 40 + index)();
}

bool shard_done(const core::FleetColumns& c, int shard) {
  for (std::size_t i = static_cast<std::size_t>(shard); i < c.size();
       i += kShards)
    if (c.cycles_done[i] < c.cycles_target) return false;
  return true;
}

bool shard_done(const core::ResilienceColumns& c, int shard) {
  for (std::size_t i = static_cast<std::size_t>(shard); i < c.size();
       i += kShards)
    if (c.done[i] == 0) return false;
  return true;
}

struct Outcome {
  core::FleetColumns sweep;
  core::ResilienceColumns resilience;
  std::int64_t cycles = 0;  // point-cycles simulated
  std::vector<Sample> chunk_ms;  // (end, advance + save time)
  std::uint64_t chunks = 0;
  double wall_s = 0.0;
};

Sample chunk_sample(Clock::time_point start) {
  const auto end = Clock::now();
  return {trace::now_ns(), seconds_between(start, end) * 1e3};
}

/// The latest checkpoint of every shard. Each save goes to a fresh file
/// and the shard's previous file is then removed, as a campaign that keeps
/// only its latest checkpoint would. Rewriting one path in place instead
/// (open with O_TRUNC) makes ext4 start writeback on every close, and the
/// disk's latency then swamps the checkpoint layer's own time.
class ShardFiles {
 public:
  ShardFiles(std::string dir, const char* kind)
      : dir_(std::move(dir)), kind_(kind), latest_(kShards) {}
  ShardFiles(const ShardFiles&) = delete;
  ShardFiles& operator=(const ShardFiles&) = delete;
  ~ShardFiles() {
    for (const auto& path : latest_)
      if (!path.empty()) std::filesystem::remove(path);
  }

  template <typename Columns>
  void save(int shard, const Columns& columns, const core::Hash128& hash) {
    const std::string path = dir_ + "/" + kind_ + "-" +
                             std::to_string(shard) + "-" +
                             std::to_string(next_++) + ".ckpt";
    {
      trace::Scope span("ckpt.save", trace::Layer::kCkpt, shard);
      core::save_checkpoint(path, columns, hash);
    }
    auto& latest = latest_[static_cast<std::size_t>(shard)];
    if (!latest.empty()) std::filesystem::remove(latest);
    latest = path;
  }
  const std::vector<std::string>& latest() const noexcept { return latest_; }

 private:
  std::string dir_;
  const char* kind_;
  std::vector<std::string> latest_;
  std::uint64_t next_ = 0;
};

/// One whole campaign: start, chunked advance + save per shard, merge.
Outcome run_campaign_once(const Campaign& c, std::uint64_t seed,
                          const std::string& dir) {
  Outcome out;
  const auto t0 = Clock::now();
  std::vector<core::FleetColumns> sweep(kShards);
  std::vector<core::ResilienceColumns> resil(kShards);
  ShardFiles sweep_files(dir, "sweep");
  ShardFiles resil_files(dir, "resil");
  {
    trace::Scope span("core.start", trace::Layer::kCore);
    for (int s = 0; s < kShards; ++s) {
      sweep[s] = core::FleetColumns::start(c.grid, seed, kCyclesPerPoint);
      resil[s] = core::ResilienceColumns::start(c.grid, seed, kCyclesPerPoint);
    }
  }
  bool pending = true;
  while (pending) {
    pending = false;
    for (int s = 0; s < kShards; ++s) {
      if (!shard_done(sweep[s], s)) {
        const auto k0 = Clock::now();
        {
          trace::Scope span("core.advance", trace::Layer::kCore, s);
          c.sim.advance(sweep[s], kChunkCycles, 0, s, kShards);
        }
        sweep_files.save(s, sweep[s], c.sweep_hash);
        out.chunk_ms.push_back(chunk_sample(k0));
        pending = pending || !shard_done(sweep[s], s);
      }
      if (!shard_done(resil[s], s)) {
        const auto k0 = Clock::now();
        {
          trace::Scope span("core.advance_resilience", trace::Layer::kCore,
                            s);
          c.fleet.advance(resil[s], kChunkPoints, 0, s, kShards);
        }
        resil_files.save(s, resil[s], c.resilience_hash);
        out.chunk_ms.push_back(chunk_sample(k0));
        pending = pending || !shard_done(resil[s], s);
      }
    }
  }
  {
    trace::Scope span("ckpt.merge", trace::Layer::kCkpt);
    out.sweep =
        core::merge_fleet_checkpoints(sweep_files.latest(), c.sweep_hash);
    out.resilience = core::merge_resilience_checkpoints(
        resil_files.latest(), c.resilience_hash);
  }
  out.cycles = out.sweep.cycles_total() +
               static_cast<std::int64_t>(out.resilience.size()) *
                   kCyclesPerPoint;
  out.chunks = out.chunk_ms.size();
  out.wall_s = seconds_between(t0, Clock::now());
  return out;
}

struct LoopStats {
  std::int64_t cycles = 0;
  std::uint64_t chunks = 0;
  std::uint64_t campaigns = 0;
  std::vector<Sample> chunk_ms;
  std::vector<double> campaign_s;
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;
  double wall_s = 0.0;
  bool complete = true;

  /// Point-cycles per second of a median campaign, checkpoints and merge
  /// included.
  double cycles_per_s() const {
    return static_cast<double>(cycles) / static_cast<double>(campaigns) /
           quantile(campaign_s, 0.5);
  }
  /// Chunk latency quantile, median over sub-windows of at least 1 s that
  /// expect 25% more chunks than the quantile needs.
  double chunk_p(double q) const {
    const double per_s = static_cast<double>(chunk_ms.size()) / wall_s;
    const double window_s = std::max(1.0, 1.25 * samples_for(q) / per_s);
    return quantile(window_quantiles(chunk_ms, t0_ns, t1_ns, window_s, q),
                    0.5);
  }
};

/// Whole campaigns, started while fewer than `seconds` have elapsed.
LoopStats run_loop(const Campaign& c, std::uint64_t seed, double seconds,
                   const std::string& dir, std::uint64_t& next_index,
                   Outcome* first) {
  LoopStats stats;
  const auto t0 = Clock::now();
  stats.t0_ns = trace::now_ns();
  while (seconds_between(t0, Clock::now()) < seconds) {
    const std::uint64_t index = next_index++;
    Outcome o = run_campaign_once(c, campaign_seed(seed, index), dir);
    stats.cycles += o.cycles;
    stats.chunks += o.chunks;
    ++stats.campaigns;
    stats.campaign_s.push_back(o.wall_s);
    stats.complete =
        stats.complete && o.sweep.complete() && o.resilience.complete();
    stats.chunk_ms.insert(stats.chunk_ms.end(), o.chunk_ms.begin(),
                          o.chunk_ms.end());
    if (first != nullptr && index == 0) *first = std::move(o);
  }
  stats.wall_s = seconds_between(t0, Clock::now());
  stats.t1_ns = trace::now_ns();
  return stats;
}

/// The merged campaign against one uninterrupted sweep, field for field.
void check_merged(const Campaign& c, const Outcome& o, std::uint64_t seed,
                  Result& result) {
  const auto sweep = c.sim.sweep(c.grid, seed, kCyclesPerPoint);
  const auto merged = o.sweep.points();
  bool ok = merged.size() == sweep.size();
  for (std::size_t i = 0; ok && i < sweep.size(); ++i)
    ok = same_point(merged[i], sweep[i]);
  result.check(ok, "merged sweep campaign differs from an uninterrupted "
                   "sweep");

  const auto direct = c.fleet.sweep(c.grid, seed, kCyclesPerPoint);
  const auto points = o.resilience.points();
  ok = points.size() == direct.size();
  for (std::size_t i = 0; ok && i < direct.size(); ++i)
    ok = same_point(points[i], direct[i]);
  result.check(ok, "merged resilience campaign differs from an "
                   "uninterrupted sweep");
}

std::uint64_t input_digest(const Campaign& c, std::uint64_t seed) {
  Digest digest;
  digest.add_vector(c.grid);
  digest.add_value(c.sweep_hash);
  digest.add_value(c.resilience_hash);
  for (std::uint64_t i = 0; i < 64; ++i)
    digest.add_value(campaign_seed(seed, i));
  return digest.value();
}

}  // namespace

Result run_campaign(const Options& opt) {
  Result result;
  const std::string dir =
      opt.work_dir + "/campaign-" + std::to_string(getpid());
  // Setup: the campaign definition, a clean checkpoint directory and one
  // warm-up campaign on a seed the timed loop never uses (starts the task
  // pool, creates the checkpoint files), repeated.
  std::unique_ptr<Campaign> campaign;
  const double setup_s = median_seconds(kSetupReps, kSetupSeconds, [&] {
    campaign = std::make_unique<Campaign>(make_campaign(opt.seed));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    run_campaign_once(*campaign, ~campaign_seed(opt.seed, 0), dir);
  });
  const Campaign& c = *campaign;
  print_digest(opt, input_digest(c, opt.seed));
  if (opt.digest_only) {
    std::filesystem::remove_all(dir);
    return result;
  }
  result.set("setup_s", setup_s, "s");
  {
    // Warm-up, untimed and outside setup_s (see kWarmupSeconds), on
    // campaign seeds the timed loop never reaches.
    std::uint64_t warm_index = std::uint64_t{1} << 32;
    run_loop(c, opt.seed, kWarmupSeconds, dir, warm_index, nullptr);
  }

  const unsigned cpus = cpu_count();
  std::uint64_t next_index = 0;
  double measured_ops = 0.0;
  Outcome first;
  bool complete = true;
  std::uint64_t chunks = 0;

  for (const PhasePlan& phase : plan_phases(opt)) {
    if (phase.phase == Phase::kMeasured) {
      const double cpu0 = process_cpu_seconds();
      const LoopStats s =
          run_loop(c, opt.seed, phase.seconds, dir, next_index, &first);
      measured_ops = s.cycles_per_s();
      result.set("ops_per_s", measured_ops, "1/s");
      result.set("p50_ms", s.chunk_p(0.50), "ms");
      result.set("p90_ms", s.chunk_p(0.90), "ms");
      result.set("p99_ms", s.chunk_p(0.99), "ms");
      const double cpu = process_cpu_seconds() - cpu0;
      result.set("util.cpu_util", cpu / (s.wall_s * cpus), "ratio");
      result.set("cpu_ms_per_op", cpu * 1e3 / static_cast<double>(s.chunks),
                 "ms");
      complete = complete && s.complete;
      chunks += s.chunks;
    } else if (phase.phase == Phase::kTraced) {
      trace::clear();
      trace::set_on(true);
      const std::int64_t t0 = trace::now_ns();
      const LoopStats s =
          run_loop(c, opt.seed, phase.seconds, dir, next_index, nullptr);
      const std::int64_t t1 = trace::now_ns();
      trace::set_on(false);
      complete = complete && s.complete;
      chunks += s.chunks;
      record_accounting(result, trace::account_calling_thread(t0, t1));
      const double wall = static_cast<double>(t1 - t0) * 1e-9;
      result.set("trace.overhead_frac", measured_ops / s.cycles_per_s() - 1.0,
                 "ratio");
      result.set("core.advance_ms.p50",
                 quantile(trace::durations_ms("core.advance"), 0.5), "ms");
      const double sweep_cycles =
          static_cast<double>(c.grid.size()) * kCyclesPerPoint *
          static_cast<double>(s.campaigns);
      result.set("core.cycles_per_busy_s",
                 sweep_cycles / trace::total_seconds("core.advance"), "1/s");
      result.set("core.resilience_points_per_busy_s",
                 static_cast<double>(c.grid.size() * s.campaigns) /
                     trace::total_seconds("core.advance_resilience"),
                 "1/s");
      const auto save_ms = trace::durations_ms("ckpt.save");
      result.set("ckpt.save_ms.p50", quantile(save_ms, 0.50), "ms");
      result.set("ckpt.save_ms.p99", quantile(save_ms, 0.99), "ms");
      const double merge_s = trace::total_seconds("ckpt.merge");
      result.set("ckpt.load_merge_ms",
                 merge_s * 1e3 / static_cast<double>(s.campaigns), "ms");
      result.set("ckpt.share",
                 (trace::total_seconds("ckpt.save") + merge_s) / wall,
                 "ratio");
      if (!opt.trace_out.empty()) trace::write_tsv(opt.trace_out);
    } else {
      const auto pool0 = util::TaskPool::instance().stats();
      CountedRun counted;
      const LoopStats s =
          run_loop(c, opt.seed, phase.seconds, dir, next_index, nullptr);
      const auto pool1 = util::TaskPool::instance().stats();
      complete = complete && s.complete;
      chunks += s.chunks;
      result.set("obs.overhead_frac", measured_ops / s.cycles_per_s() - 1.0,
                 "ratio");
      const auto saves = counted.counter("core.ckpt.saves");
      result.set("ckpt.bytes_per_save",
                 saves == 0 ? 0.0
                            : static_cast<double>(
                                  counted.counter("core.ckpt.bytes_written")) /
                                  static_cast<double>(saves),
                 "bytes");
      const double n =
          static_cast<double>(std::max<std::uint64_t>(1, s.chunks));
      result.set("util.pool.tasks_per_op",
                 static_cast<double>(pool1.tasks - pool0.tasks) / n, "count");
      result.set("util.pool.steals",
                 static_cast<double>(pool1.steals - pool0.steals), "count");
      result.set("util.pool.parks",
                 static_cast<double>(pool1.parks - pool0.parks), "count");
    }
  }

  result.attempted = chunks;
  result.check(complete, "a campaign ended with points left undone");
  if (first.sweep.size() == 0)
    result.check(false, "no campaign completed");
  else
    check_merged(c, first, campaign_seed(opt.seed, 0), result);
  std::filesystem::remove_all(dir);
  result.set("peak_rss_mb", peak_rss_mb(), "MB");
  return result;
}

}  // namespace beebench
