// clip-infer: the cloud side of queen detection. Each uploaded clip is
// turned into a mel spectrogram and a 100x100 image (dsp), classified by
// the CNN and the SVM and costed by the cost model (ml).
//
// Setup synthesizes the clips with audio::BeeAudioSynth (standing in for
// the microphone; synthesis costs several times what featurizing a clip
// does, so it stays out of the timed window), fits the SVM on a training
// set and builds the CNN. The timed loop hands the program batches of clips drawn
// from the pool, each with its own seeded gain and circular shift, so no
// two inputs are equal.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "audio/dataset.hpp"
#include "audio/synth.hpp"
#include "dsp/kernel_config.hpp"
#include "dsp/mel.hpp"
#include "dsp/spectrogram.hpp"
#include "ml/costmodel.hpp"
#include "ml/network.hpp"
#include "ml/svm.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/task_pool.hpp"
#include "workloads.hpp"

namespace beebench {
namespace {

namespace audio = beesim::audio;
namespace dsp = beesim::dsp;
namespace ml = beesim::ml;
namespace util = beesim::util;

constexpr double kClipSeconds = 3.0;
constexpr int kTrainClips = 24;  // SVM training set
constexpr int kPoolClips = 24;   // clips the timed loop draws from
constexpr std::size_t kBatch = 16;
constexpr std::size_t kSide = 100;
constexpr std::size_t kCnnChannels = 8;
constexpr double kMinSvmAccuracy = 0.8;
constexpr int kSetupReps = 3;
constexpr int kDigestDraws = 4096;

struct Clip {
  std::vector<double> samples;
  bool queen = false;
};

/// Everything setup builds; the timed loop only reads it (the CNN keeps
/// per-forward scratch, so it is used from the driving thread alone).
struct Model {
  std::vector<Clip> train;
  std::vector<Clip> pool;
  double synth_s = 0.0;
  dsp::MelSpectrogram mel;
  ml::StandardScaler scaler;
  ml::SvmClassifier svm;
  ml::Network cnn;
};

/// The stream of inputs: which pool clip, with what gain and shift.
struct Draw {
  std::size_t clip = 0;
  double gain = 1.0;
  std::size_t shift = 0;
};

class Stream {
 public:
  /// `stream` > 0 gives an independent stream (warm-up traffic).
  Stream(std::uint64_t seed, std::size_t clip_samples,
         std::uint64_t stream = 0)
      : rng_(util::Rng::for_stream(seed, 31 + 100 * stream)),
        samples_(clip_samples) {}
  Draw next() {
    Draw d;
    d.clip = static_cast<std::size_t>(rng_.uniform_int(0, kPoolClips - 1));
    d.gain = rng_.uniform(0.5, 2.0);
    d.shift = static_cast<std::size_t>(
        rng_.uniform_int(1, static_cast<std::int64_t>(samples_) - 1));
    return d;
  }

 private:
  util::Rng rng_;
  std::size_t samples_;
};

std::vector<Clip> synthesize(const audio::BeeAudioSynth& synth, int count,
                             util::Rng& rng) {
  std::vector<Clip> clips(static_cast<std::size_t>(count));
  for (std::size_t i = 0; i < clips.size(); ++i) {
    clips[i].queen = i % 2 == 0;
    clips[i].samples = synth.synthesize(clips[i].queen, kClipSeconds, rng);
  }
  return clips;
}

/// Per-band time mean of the dB mel spectrogram: the SVM's input.
std::vector<double> band_means(const dsp::Matrix& mel_db) {
  std::vector<double> features(mel_db.rows());
  for (std::size_t m = 0; m < mel_db.rows(); ++m) {
    double acc = 0.0;
    for (std::size_t f = 0; f < mel_db.cols(); ++f) acc += mel_db(m, f);
    features[m] = acc / static_cast<double>(mel_db.cols());
  }
  return features;
}

void build(Model& model, std::uint64_t seed) {
  const audio::BeeAudioSynth synth;
  util::Rng rng = util::Rng::for_stream(seed, 30);
  const auto t0 = Clock::now();
  model.train = synthesize(synth, kTrainClips, rng);
  model.pool = synthesize(synth, kPoolClips, rng);
  model.synth_s = seconds_between(t0, Clock::now());

  std::vector<std::vector<double>> x(model.train.size());
  std::vector<bool> y(model.train.size());
  util::parallel_for(model.train.size(), [&](std::size_t i) {
    x[i] = band_means(dsp::power_to_db(model.mel.compute(
        model.train[i].samples)));
  });
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = model.train[i].queen;
  model.scaler = ml::StandardScaler();
  model.scaler.fit(x);
  ml::SvmClassifier::Params params;
  params.c = 20.0;     // paper Section V
  params.gamma = 0.01;  // for standardized features (as in fig5)
  model.svm = ml::SvmClassifier(params);
  model.svm.fit(model.scaler.transform(x), y);

  util::Rng cnn_rng = util::Rng::for_stream(seed, 32);
  model.cnn = ml::make_queen_cnn(cnn_rng, kCnnChannels, kSide);
}

std::vector<double> transform(const Clip& clip, const Draw& d) {
  // out[(i + shift) % n] = gain * in[i], as two straight runs.
  const std::size_t n = clip.samples.size();
  const std::size_t head = n - d.shift;
  std::vector<double> out(n);
  for (std::size_t i = 0; i < head; ++i)
    out[i + d.shift] = clip.samples[i] * d.gain;
  for (std::size_t i = head; i < n; ++i)
    out[i - head] = clip.samples[i] * d.gain;
  return out;
}

/// One batch's outputs, kept for the correctness checks.
struct BatchOut {
  std::vector<dsp::Matrix> mel_db;
  std::vector<dsp::Matrix> images;
  std::vector<std::size_t> cnn;
  std::vector<bool> svm;
  double joules = 0.0;
};

/// Featurizes, classifies and costs one batch of inputs.
BatchOut process(Model& model, const std::vector<std::vector<double>>& in,
                 std::uint64_t first_id) {
  BatchOut out;
  audio::QueenDataset ds;
  ds.examples.resize(in.size());
  std::vector<std::vector<double>> features(in.size());
  out.images.resize(in.size());
  {
    trace::Scope region("util.parallel_for", trace::Layer::kUtil, first_id);
    const trace::Handle parent = region.handle();
    util::parallel_for(in.size(), [&](std::size_t j) {
      {
        trace::Scope span("dsp.mel", trace::Layer::kDsp, first_id + j,
                          parent);
        ds.examples[j].mel_db = dsp::power_to_db(model.mel.compute(in[j]));
      }
      trace::Scope span("dsp.image", trace::Layer::kDsp, first_id + j,
                        parent);
      features[j] = band_means(ds.examples[j].mel_db);
      out.images[j] = ds.image(j, kSide);
    });
  }
  out.svm.resize(in.size());
  for (std::size_t j = 0; j < in.size(); ++j) {
    trace::Scope span("ml.svm", trace::Layer::kMl, first_id + j);
    out.svm[j] = model.svm.predict(model.scaler.transform(features[j]));
  }
  {
    trace::Scope span("ml.cnn", trace::Layer::kMl, first_id);
    out.cnn = ml::predict_classifier(model.cnn, out.images, kBatch);
  }
  {
    trace::Scope span("ml.cost", trace::Layer::kMl, first_id);
    const double mel_flops = ml::mel_frontend_flops(kClipSeconds);
    const double cnn_flops = ml::resnet18_flops(kSide);
    const double svm_flops = ml::svm_flops(model.svm.support_vector_count(),
                                           features.front().size());
    const auto cloud = ml::cloud_cnn_compute();
    for (std::size_t j = 0; j < in.size(); ++j)
      out.joules += cloud.energy_for(mel_flops + cnn_flops + svm_flops);
  }
  for (auto& ex : ds.examples) out.mel_db.push_back(std::move(ex.mel_db));
  return out;
}

struct LoopStats {
  std::uint64_t clips = 0;
  std::uint64_t svm_correct = 0;
  std::vector<double> batch_ms;
  double wall_s = 0.0;
  double joules = 0.0;
  bool joules_finite = true;
  // The first batch of the loop, kept for the re-featurization check.
  std::vector<std::vector<double>> sample_in;
  BatchOut sample_out;

  /// Clips per second of a median batch (featurize, classify, cost).
  double clips_per_s() const {
    return static_cast<double>(kBatch) / (quantile(batch_ms, 0.5) * 1e-3);
  }
};

LoopStats run_loop(Model& model, Stream& stream, double seconds,
                   std::uint64_t& next_id) {
  LoopStats stats;
  const auto t0 = Clock::now();
  const auto end = t0 + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
  while (Clock::now() < end) {
    std::vector<std::vector<double>> in(kBatch);
    std::vector<bool> labels(kBatch);
    for (std::size_t j = 0; j < kBatch; ++j) {
      const Draw d = stream.next();
      in[j] = transform(model.pool[d.clip], d);
      labels[j] = model.pool[d.clip].queen;
    }
    const auto b0 = Clock::now();
    BatchOut out = process(model, in, next_id);
    stats.batch_ms.push_back(seconds_between(b0, Clock::now()) * 1e3);
    next_id += kBatch;
    stats.clips += kBatch;
    for (std::size_t j = 0; j < kBatch; ++j)
      if (out.svm[j] == labels[j]) ++stats.svm_correct;
    stats.joules += out.joules;
    stats.joules_finite = stats.joules_finite && std::isfinite(out.joules);
    if (stats.sample_in.empty()) {
      stats.sample_in = std::move(in);
      stats.sample_out = std::move(out);
    }
  }
  stats.wall_s = seconds_between(t0, Clock::now());
  return stats;
}

bool same_matrix(const dsp::Matrix& a, const dsp::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     a.rows() * a.cols() * sizeof(double)) == 0;
}

/// Re-featurizes the sample batch's first clip with a serial STFT
/// (threads = 1) and re-runs its CNN prediction alone; both must match the
/// batched, pool-parallel results bit for bit.
void check_sample(Model& model, const LoopStats& loop, Result& result) {
  if (loop.sample_in.empty()) {
    result.check(false, "no clip batch completed");
    return;
  }
  const dsp::KernelConfig saved = dsp::kernel_config();
  dsp::KernelConfig serial = saved;
  serial.parallel_stft = false;
  dsp::set_kernel_config(serial);
  audio::QueenDataset ds;
  ds.examples.resize(1);
  ds.examples[0].mel_db =
      dsp::power_to_db(model.mel.compute(loop.sample_in.front()));
  const dsp::Matrix image = ds.image(0, kSide);
  dsp::set_kernel_config(saved);
  result.check(same_matrix(ds.examples[0].mel_db,
                           loop.sample_out.mel_db.front()) &&
                   same_matrix(image, loop.sample_out.images.front()),
               "serial re-featurization differs from the parallel one");
  const auto alone = ml::predict_classifier(model.cnn, {image}, 1);
  result.check(alone.front() == loop.sample_out.cnn.front(),
               "CNN prediction differs between batch and single clip");
}

std::uint64_t input_digest(const Model& model, std::uint64_t seed) {
  Digest digest;
  for (const auto* set : {&model.train, &model.pool})
    for (const Clip& c : *set) {
      digest.add_value(c.queen);
      digest.add_vector(c.samples);
    }
  Stream stream(seed, model.pool.front().samples.size());
  for (int i = 0; i < kDigestDraws; ++i) {
    const Draw d = stream.next();
    digest.add_value(d.clip);
    digest.add_value(d.gain);
    digest.add_value(d.shift);
  }
  return digest.value();
}

}  // namespace

Result run_clip(const Options& opt) {
  Result result;
  Model model;
  const double setup_s =
      median_seconds(kSetupReps, 0.0, [&] { build(model, opt.seed); });
  print_digest(opt, input_digest(model, opt.seed));
  if (opt.digest_only) return result;
  result.set("setup_s", setup_s, "s");
  result.set("audio.synth_ms_per_audio_s",
             model.synth_s * 1e3 / ((kTrainClips + kPoolClips) * kClipSeconds),
             "ms");

  const std::size_t clip_samples = model.pool.front().samples.size();
  std::uint64_t next_id = 1;
  {
    // Warm-up, untimed and outside setup_s (see kWarmupSeconds).
    Stream warm(opt.seed, clip_samples, 1);
    std::uint64_t warm_id = std::uint64_t{1} << 40;
    run_loop(model, warm, kWarmupSeconds, warm_id);
  }
  Stream stream(opt.seed, clip_samples);
  const unsigned cpus = cpu_count();
  double measured_ops = 0.0;
  LoopStats first;
  std::uint64_t clips = 0;
  std::uint64_t svm_correct = 0;
  bool joules_finite = true;
  const auto tally = [&](const LoopStats& s) {
    clips += s.clips;
    svm_correct += s.svm_correct;
    joules_finite = joules_finite && s.joules_finite && s.joules > 0.0;
  };

  for (const PhasePlan& phase : plan_phases(opt)) {
    if (phase.phase == Phase::kMeasured) {
      const double cpu0 = process_cpu_seconds();
      LoopStats s = run_loop(model, stream, phase.seconds, next_id);
      measured_ops = s.clips_per_s();
      result.set("ops_per_s", measured_ops, "1/s");
      result.set("p50_ms", quantile(s.batch_ms, 0.50), "ms");
      result.set("p90_ms", quantile(s.batch_ms, 0.90), "ms");
      result.set("p99_ms", quantile(s.batch_ms, 0.99), "ms");
      const double cpu = process_cpu_seconds() - cpu0;
      result.set("util.cpu_util", cpu / (s.wall_s * cpus), "ratio");
      result.set("cpu_ms_per_op", cpu * 1e3 / static_cast<double>(s.clips),
                 "ms");
      tally(s);
      first = std::move(s);
    } else if (phase.phase == Phase::kTraced) {
      trace::clear();
      trace::set_on(true);
      const std::int64_t t0 = trace::now_ns();
      const LoopStats s = run_loop(model, stream, phase.seconds, next_id);
      const std::int64_t t1 = trace::now_ns();
      trace::set_on(false);
      tally(s);
      record_accounting(result, trace::account_calling_thread(t0, t1));
      const double n = static_cast<double>(s.clips);
      result.set("trace.overhead_frac", measured_ops / s.clips_per_s() - 1.0,
                 "ratio");
      result.set("dsp.mel_ms.p50",
                 quantile(trace::durations_ms("dsp.mel"), 0.5), "ms");
      const double cnn_s = trace::total_seconds("ml.cnn");
      result.set("ml.cnn_ms_per_clip", cnn_s * 1e3 / n, "ms");
      result.set("ml.svm_us_per_clip",
                 trace::total_seconds("ml.svm") * 1e6 / n, "us");
      if (!opt.trace_out.empty()) trace::write_tsv(opt.trace_out);
    } else {
      const auto pool0 = util::TaskPool::instance().stats();
      CountedRun counted;
      const LoopStats s = run_loop(model, stream, phase.seconds, next_id);
      const auto pool1 = util::TaskPool::instance().stats();
      tally(s);
      const double n = static_cast<double>(s.clips);
      result.set("obs.overhead_frac", measured_ops / s.clips_per_s() - 1.0,
                 "ratio");
      result.set("dsp.stft_frames_per_clip",
                 static_cast<double>(counted.counter("dsp.stft.frames")) / n,
                 "count");
      const double flops =
          static_cast<double>(counted.counter("ml.conv.gemm_flops")) / n;
      result.set("ml.gemm_flops_per_clip", flops, "count");
      const auto cnn = result.metrics.find("ml.cnn_ms_per_clip");
      if (cnn != result.metrics.end() && cnn->second.value > 0.0)
        result.set("ml.cnn_gflops", flops / (cnn->second.value * 1e-3) / 1e9,
                   "GFLOP/s");
      result.set("util.pool.tasks_per_op",
                 static_cast<double>(pool1.tasks - pool0.tasks) / n, "count");
      result.set("util.pool.steals",
                 static_cast<double>(pool1.steals - pool0.steals), "count");
      result.set("util.pool.parks",
                 static_cast<double>(pool1.parks - pool0.parks), "count");
    }
  }

  result.attempted = clips;
  const double accuracy = clips == 0 ? 0.0
                                     : static_cast<double>(svm_correct) /
                                           static_cast<double>(clips);
  result.check(accuracy >= kMinSvmAccuracy,
               "SVM accuracy " + std::to_string(accuracy) + " below " +
                   std::to_string(kMinSvmAccuracy));
  result.check(joules_finite, "cost model returned a non-finite energy");
  check_sample(model, first, result);
  result.set("peak_rss_mb", peak_rss_mb(), "MB");
  return result;
}

}  // namespace beebench
