// beebench: runs one benchmark workload in this process and prints its
// metrics. Normally started through run.py, which builds this binary
// first:
//
//   beebench --workload <serve-hot|serve-cold|clip-infer|fleet-campaign>
//            --seed <n> --seconds <s> --trace <0|1>
//            [--trace-out <file.tsv>] [--work-dir <dir>] [--digest-only]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end set (kEndToEnd), with --trace 1 the per-layer set
// (kPerLayer); README.md defines each one.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "common.hpp"
#include "workloads.hpp"

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json (test_beebench.py checks).
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"cpu_ms_per_op", "ms"},
    {"ops_per_s", "1/s"},
};

const std::vector<MetricDef> kPerLayer = {
    {"p50_ms", "ms"},
    {"p90_ms", "ms"},
    {"p99_ms", "ms"},
    {"serve.submit_us.p50", "us"},
    {"serve.submit_us.p99", "us"},
    {"serve.residence_ms.p50", "ms"},
    {"serve.residence_ms.p99", "ms"},
    {"serve.hit_ratio", "ratio"},
    {"serve.cache.evictions", "count"},
    {"serve.cache.entries", "count"},
    {"serve.rejected", "count"},
    {"serve.rejected.queue_full", "count"},
    {"serve.rejected.overloaded", "count"},
    {"serve.rejected.invalid", "count"},
    {"serve.rejected.shutdown", "count"},
    {"gen.late_ms.p50", "ms"},
    {"gen.late_ms.p99", "ms"},
    {"serve.p99_whole_run_ms", "ms"},
    {"serve.batch.width.mean", "count"},
    {"serve.coalesce_ratio", "ratio"},
    {"serve.computed_per_req", "count"},
    {"serve.queue.peak_depth", "count"},
    {"core.advance_ms.p50", "ms"},
    {"core.cycles_per_busy_s", "1/s"},
    {"core.resilience_points_per_busy_s", "1/s"},
    {"core.fleet.cycles_per_req", "count"},
    {"ckpt.save_ms.p50", "ms"},
    {"ckpt.save_ms.p99", "ms"},
    {"ckpt.bytes_per_save", "bytes"},
    {"ckpt.load_merge_ms", "ms"},
    {"ckpt.share", "ratio"},
    {"util.cpu_util", "ratio"},
    {"util.pool.tasks_per_op", "count"},
    {"util.pool.steals", "count"},
    {"util.pool.parks", "count"},
    {"audio.synth_ms_per_audio_s", "ms"},
    {"dsp.mel_ms.p50", "ms"},
    {"dsp.stft_frames_per_clip", "count"},
    {"ml.cnn_ms_per_clip", "ms"},
    {"ml.gemm_flops_per_clip", "count"},
    {"ml.cnn_gflops", "GFLOP/s"},
    {"ml.svm_us_per_clip", "us"},
    {"obs.overhead_frac", "ratio"},
    {"trace.overhead_frac", "ratio"},
    {"trace.unattributed_frac", "ratio"},
    {"self_frac.serve", "ratio"},
    {"self_frac.core", "ratio"},
    {"self_frac.core.ckpt", "ratio"},
    {"self_frac.util", "ratio"},
    {"self_frac.audio", "ratio"},
    {"self_frac.dsp", "ratio"},
    {"self_frac.ml", "ratio"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "beebench: %s\nusage: beebench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>] "
               "[--work-dir <dir>] [--digest-only]\n",
               why);
  std::exit(2);
}

beebench::Options parse(int argc, char** argv) {
  beebench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--digest-only") {
      opt.digest_only = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") opt.workload = value;
      else if (arg == "--seed") opt.seed = std::stoull(value);
      else if (arg == "--seconds") opt.seconds = std::stod(value);
      else if (arg == "--trace") opt.trace = std::stoi(value) != 0;
      else if (arg == "--trace-out") opt.trace_out = value;
      else if (arg == "--work-dir") opt.work_dir = value;
      else usage(("unknown argument " + arg).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  return opt;
}

void print_json(const beebench::Result& r,
                const std::vector<MetricDef>& defs) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct() ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const auto it = r.metrics.find(defs[i].name);
    const double v = it == r.metrics.end() ? 0.0 : it->second.value;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", defs[i].name, v, defs[i].unit);
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const beebench::Options opt = parse(argc, argv);
  beebench::Result result;
  if (!opt.digest_only) beebench::warm_host();
  try {
    if (opt.workload == "serve-hot")
      result = beebench::run_serve(opt, /*cold=*/false);
    else if (opt.workload == "serve-cold")
      result = beebench::run_serve(opt, /*cold=*/true);
    else if (opt.workload == "clip-infer")
      result = beebench::run_clip(opt);
    else if (opt.workload == "fleet-campaign")
      result = beebench::run_campaign(opt);
    else
      usage(("unknown workload " + opt.workload).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "beebench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  if (opt.digest_only) return 0;

  const auto& defs = opt.trace ? kPerLayer : kEndToEnd;
  for (const auto& [name, m] : result.metrics) {
    bool known = false;
    for (const auto& d : defs) known = known || name == d.name;
    if (!known) continue;  // the other mode's metric
    std::printf("  %-36s %16.6g %s\n", name.c_str(), m.value,
                m.unit.c_str());
  }
  if (!opt.trace)
    for (const auto& d : defs)
      result.check(result.metrics.count(d.name) == 1,
                   std::string("end-to-end metric not measured: ") + d.name);
  for (const auto& e : result.errors) std::printf("  CHECK FAILED: %s\n",
                                                  e.c_str());
  std::printf("  attempted %llu failed %llu correct %s\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              result.correct() ? "true" : "false");
  std::fflush(stdout);
  print_json(result, defs);
  return 0;
}
