#pragma once

// Shared plumbing for the workload runners: options, the per-run result
// record, the input digest, timing and process-resource helpers, and the
// obs counter snapshot the counted run reads.

#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace beebench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Command-line options of one run (see run.py for the wrapper).
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans (empty = do not write).
  std::string trace_out;
  /// Scratch directory for files a workload writes (checkpoints).
  std::string work_dir = ".";
  /// Print the digest of the generated inputs and exit.
  bool digest_only = false;
};

/// One run's outcome: the operations counter, the correctness verdict
/// (every failed check is kept as a message) and the metrics by name.
struct Result {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records a correctness check; a false check fails the run.
  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
  bool correct() const noexcept { return errors.empty(); }
};

/// FNV-1a over the bytes of the generated inputs: the same seed must give
/// the same digest (checked by test_beebench.py).
class Digest {
 public:
  void add(const void* data, std::size_t n) noexcept {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  template <typename T>
  void add_value(const T& v) noexcept {
    add(&v, sizeof(T));
  }
  template <typename T>
  void add_vector(const std::vector<T>& v) noexcept {
    add_value(v.size());
    if (!v.empty()) add(v.data(), v.size() * sizeof(T));
  }
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);

/// On the 4-vCPU VM the benchmark was tuned on, four busy threads ran at a
/// quarter of their speed for the first ~1.3 s after the machine had been
/// idle. So every run first keeps all CPUs busy for kHostWarmupSeconds
/// (warm_host, before setup is timed), and after setup drives its workload
/// untimed for kWarmupSeconds (caches, pools, allocator) before the timed
/// window.
inline constexpr double kHostWarmupSeconds = 1.5;
inline constexpr double kWarmupSeconds = 1.0;
void warm_host();

/// Robust run statistics: a window [t0, t1) is cut into consecutive
/// sub-windows of `window_s`, each full sub-window yields one value, and
/// the runners report the median over sub-windows. A host stall (on the
/// 4-vCPU VM the benchmark was tuned on, an idle thread sees 4-9 ms stalls
/// a few times a second) then spoils a few sub-windows, not the run.
struct Sample {
  std::int64_t t_ns = 0;  // when the sample's operation was due or ended
  double value = 0.0;
};
/// The q-quantile of the samples in each full sub-window of [t0, t1) that
/// holds at least samples_for(q) samples; when none does, the q-quantile
/// of all samples as the only value.
std::vector<double> window_quantiles(const std::vector<Sample>& samples,
                                     std::int64_t t0, std::int64_t t1,
                                     double window_s, double q);
/// Samples a q-quantile needs to have ten samples beyond it.
inline double samples_for(double q) { return 10.0 / (1.0 - q); }

/// Median of the timings of `fn` in seconds, over at least `min_reps`
/// calls and until the calls have taken `min_total_s` together. `before`
/// runs untimed ahead of every call (to tear down the previous one).
double median_seconds(int min_reps, double min_total_s,
                      const std::function<void()>& fn,
                      const std::function<void()>& before = {});

/// A fixed-size histogram of non-negative values with about 1% relative
/// resolution between kMin and kMin * kGrowth^kBuckets, so a run keeps
/// the same memory however long it lasts.
class LogHistogram {
 public:
  void add(double v) noexcept;
  /// The q-quantile, interpolated linearly inside its bucket; 0 when
  /// empty.
  double quantile(double q) const noexcept;

 private:
  static constexpr double kMin = 1e-4;
  static constexpr double kGrowth = 1.01;
  static constexpr int kBuckets = 2100;  // up to ~1e5
  // Bucket 0 holds [0, kMin); bucket b > 0 holds
  // [kMin * kGrowth^(b-1), kMin * kGrowth^b); the last also takes the
  // values above its upper edge.
  static double lower_edge(int b) noexcept;
  std::vector<std::uint64_t> counts_ =
      std::vector<std::uint64_t>(kBuckets + 1, 0);
  std::uint64_t n_ = 0;
};

/// User + system CPU seconds of the whole process so far.
double process_cpu_seconds();
/// CPU seconds of the calling thread so far.
double thread_cpu_seconds();

/// Peak resident set of the process, in MiB.
double peak_rss_mb();

/// Online CPU count (the denominator of util.cpu_util).
unsigned cpu_count();

/// Bit-exact double comparison (distinguishes -0.0 and NaN payloads).
inline bool same_bits(double a, double b) noexcept {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// A counted run: obs is switched on only while it is alive, and counters
/// and histogram totals are read relative to its start.
class CountedRun {
 public:
  CountedRun();
  ~CountedRun();
  CountedRun(const CountedRun&) = delete;
  CountedRun& operator=(const CountedRun&) = delete;

  std::uint64_t counter(const std::string& name) const;
  double gauge(const std::string& name) const;
  /// (count, sum) of a histogram.
  std::pair<std::uint64_t, double> histogram(const std::string& name) const;

 private:
  beesim::obs::Registry::Snapshot start_;
};

/// The measured / traced / counted phases of a run. An end-to-end run
/// (`--trace 0`) is one measured phase over the whole window; a traced
/// run (`--trace 1`) splits the window into the three, in that order.
enum class Phase { kMeasured, kTraced, kCounted };

struct PhasePlan {
  Phase phase;
  double seconds;
};
std::vector<PhasePlan> plan_phases(const Options& opt);

}  // namespace beebench
