#include "common.hpp"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <thread>

#include "workloads.hpp"

namespace beebench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

namespace {

std::size_t window_count(std::int64_t t0, std::int64_t t1, double window_s) {
  const double span = static_cast<double>(t1 - t0) * 1e-9;
  return static_cast<std::size_t>(std::max(0.0, std::floor(span / window_s)));
}

}  // namespace

std::vector<double> window_quantiles(const std::vector<Sample>& samples,
                                     std::int64_t t0, std::int64_t t1,
                                     double window_s, double q) {
  const std::size_t n = window_count(t0, t1, window_s);
  std::vector<std::vector<double>> windows(n);
  std::vector<double> all;
  for (const Sample& s : samples) {
    all.push_back(s.value);
    const auto k = static_cast<std::size_t>(
        static_cast<double>(s.t_ns - t0) * 1e-9 / window_s);
    if (s.t_ns >= t0 && k < n) windows[k].push_back(s.value);
  }
  std::vector<double> per_window;
  for (auto& w : windows)
    if (static_cast<double>(w.size()) >= samples_for(q))
      per_window.push_back(quantile(w, q));
  if (per_window.empty()) per_window.push_back(quantile(all, q));
  return per_window;
}

void warm_host() {
  const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(
                                          kHostWarmupSeconds));
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < cpu_count(); ++t)
    threads.emplace_back([end] {
      std::uint64_t x = 0x9e3779b97f4a7c15ULL;
      while (Clock::now() < end)
        for (int i = 0; i < 4096; ++i) x = x * 6364136223846793005ULL + 1;
      volatile std::uint64_t sink = x;
      (void)sink;
    });
  for (auto& t : threads) t.join();
}

double median_seconds(int min_reps, double min_total_s,
                      const std::function<void()>& fn,
                      const std::function<void()>& before) {
  std::vector<double> times;
  double total = 0.0;
  while (static_cast<int>(times.size()) < min_reps || total < min_total_s) {
    if (before) before();
    const auto t0 = Clock::now();
    fn();
    times.push_back(seconds_between(t0, Clock::now()));
    total += times.back();
  }
  return quantile(times, 0.5);
}

double LogHistogram::lower_edge(int b) noexcept {
  return b == 0 ? 0.0 : kMin * std::pow(kGrowth, b - 1);
}

void LogHistogram::add(double v) noexcept {
  int b = 0;
  if (v >= kMin)
    b = std::min(kBuckets,
                 1 + static_cast<int>(std::log(v / kMin) / std::log(kGrowth)));
  ++counts_[static_cast<std::size_t>(b)];
  ++n_;
}

double LogHistogram::quantile(double q) const noexcept {
  if (n_ == 0) return 0.0;
  // The rank a sorted sample would put the quantile at (as quantile()).
  const double rank = q * static_cast<double>(n_ - 1);
  double below = 0.0;
  for (int b = 0; b <= kBuckets; ++b) {
    const auto c = static_cast<double>(counts_[static_cast<std::size_t>(b)]);
    if (c > 0.0 && rank < below + c) {
      const double lo = lower_edge(b);
      const double hi = b == kBuckets ? lo * kGrowth : lower_edge(b + 1);
      return lo + (hi - lo) * (rank - below + 0.5) / c;
    }
    below += c;
  }
  return lower_edge(kBuckets);
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

unsigned cpu_count() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1u;
}

CountedRun::CountedRun() {
  beesim::obs::set_enabled(true);
  start_ = beesim::obs::registry().snapshot();
}

CountedRun::~CountedRun() { beesim::obs::set_enabled(false); }

std::uint64_t CountedRun::counter(const std::string& name) const {
  const auto now = beesim::obs::registry().snapshot();
  const auto it = now.counters.find(name);
  if (it == now.counters.end()) return 0;
  const auto base = start_.counters.find(name);
  return it->second - (base == start_.counters.end() ? 0 : base->second);
}

double CountedRun::gauge(const std::string& name) const {
  const auto now = beesim::obs::registry().snapshot();
  const auto it = now.gauges.find(name);
  return it == now.gauges.end() ? 0.0 : it->second;
}

std::pair<std::uint64_t, double> CountedRun::histogram(
    const std::string& name) const {
  const auto now = beesim::obs::registry().snapshot();
  const auto it = now.histograms.find(name);
  if (it == now.histograms.end()) return {0, 0.0};
  const auto base = start_.histograms.find(name);
  if (base == start_.histograms.end())
    return {it->second.count, it->second.sum};
  return {it->second.count - base->second.count,
          it->second.sum - base->second.sum};
}

std::vector<PhasePlan> plan_phases(const Options& opt) {
  if (!opt.trace) return {{Phase::kMeasured, opt.seconds}};
  const double third = opt.seconds / 3.0;
  return {{Phase::kMeasured, third},
          {Phase::kTraced, third},
          {Phase::kCounted, third}};
}

void record_accounting(Result& result, const trace::Accounting& acc) {
  if (acc.wall_s <= 0.0) return;
  for (int l = 0; l < trace::kLayerCount; ++l) {
    const auto layer = static_cast<trace::Layer>(l);
    result.set(std::string("self_frac.") + trace::layer_name(layer),
               acc.self_s[l] / acc.wall_s, "ratio");
  }
  result.set("trace.unattributed_frac", acc.unattributed_s / acc.wall_s,
             "ratio");
  result.check(acc.residual_frac < 1e-6,
               "layer self times + unattributed do not add up to the "
               "traced wall time");
}

void print_digest(const Options& opt, std::uint64_t digest) {
  std::printf("input digest %s seed %" PRIu64 ": %016" PRIx64 "\n",
              opt.workload.c_str(), opt.seed, digest);
}

}  // namespace beebench
