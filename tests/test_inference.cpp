#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "dsp/matrix.hpp"
#include "ml/layers.hpp"
#include "ml/network.hpp"
#include "ml/precision.hpp"
#include "ml/tensor.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

// The inference contract: Network::forward(x, train=false) is reentrant,
// predict_classifier runs one whole-stack forward per image across the
// TaskPool, and a clip's logits depend only on that clip, whatever the
// batch, the batch_size, the thread count or the precision.

namespace ml = beesim::ml;
namespace dsp = beesim::dsp;
namespace util = beesim::util;

namespace {

constexpr ml::Precision kPrecisions[] = {
    ml::Precision::kF32, ml::Precision::kBf16, ml::Precision::kInt8};

/// Restores the process-global inference precision on scope exit.
class PrecisionGuard {
 public:
  PrecisionGuard() : saved_(ml::inference_precision()) {}
  ~PrecisionGuard() { ml::set_inference_precision(saved_); }

 private:
  ml::Precision saved_;
};

std::vector<dsp::Matrix> random_images(std::size_t count, std::size_t side,
                                       std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<dsp::Matrix> images;
  for (std::size_t i = 0; i < count; ++i) {
    dsp::Matrix m(side, side);
    for (std::size_t r = 0; r < side; ++r)
      for (std::size_t c = 0; c < side; ++c) m(r, c) = rng.uniform();
    images.push_back(std::move(m));
  }
  return images;
}

/// One image's logits from its own (1, 1, side, side) forward.
ml::Tensor forward_one(ml::Network& net, const dsp::Matrix& image) {
  return net.forward(ml::images_to_tensor({image}), false);
}

/// The reference: every image's logits, one forward at a time, in order.
std::vector<float> serial_logits(ml::Network& net,
                                 const std::vector<dsp::Matrix>& images) {
  std::vector<float> out;
  for (const auto& img : images) {
    const ml::Tensor logits = forward_one(net, img);
    out.insert(out.end(), logits.data(), logits.data() + logits.size());
  }
  return out;
}

std::vector<std::size_t> argmax_rows(const std::vector<float>& logits) {
  std::vector<std::size_t> out(logits.size() / 2);
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = logits[2 * i + 1] > logits[2 * i] ? 1 : 0;
  return out;
}

/// The queen CNN with its head bias shifted so that about half of
/// `images` land in each class under f32 (an untrained net puts nearly
/// every image in one class, which would make prediction checks vacuous).
ml::Network balanced_cnn(std::size_t side, std::uint64_t seed,
                         const std::vector<dsp::Matrix>& images) {
  util::Rng rng(seed);
  ml::Network net = ml::make_queen_cnn(rng, 4, side);
  const std::vector<float> logits = serial_logits(net, images);
  std::vector<float> margin(images.size());
  for (std::size_t i = 0; i < margin.size(); ++i)
    margin[i] = logits[2 * i + 1] - logits[2 * i];
  std::nth_element(margin.begin(), margin.begin() + margin.size() / 2,
                   margin.end());
  std::vector<float> params = net.parameters();
  params.back() -= margin[margin.size() / 2];  // the class-1 bias
  net.set_parameters(params);
  return net;
}

std::uint64_t fnv1a(const float* data, std::size_t count) {
  std::uint64_t h = 1469598103934665603ull;
  const auto* bytes = reinterpret_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < count * sizeof(float); ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

bool same_bits(const float* a, const float* b, std::size_t count) {
  return std::memcmp(a, b, count * sizeof(float)) == 0;
}

}  // namespace

TEST(Inference, PredictClassifierMatchesSerialPerImageLoop) {
  PrecisionGuard guard;
  const auto images = random_images(64, 24, 1);
  ml::Network net = balanced_cnn(24, 2, images);
  for (const ml::Precision p : kPrecisions) {
    ml::set_inference_precision(p);
    const std::vector<std::size_t> want =
        argmax_rows(serial_logits(net, images));
    const auto ones = std::count(want.begin(), want.end(), std::size_t{1});
    EXPECT_GT(ones, 8) << ml::precision_name(p);
    EXPECT_LT(ones, 56) << ml::precision_name(p);
    for (const std::size_t batch : {1, 5, 16, 64})
      EXPECT_EQ(ml::predict_classifier(net, images, batch), want)
          << ml::precision_name(p) << " batch_size=" << batch;
    // Issued from inside a pool worker, the per-image region nests.
    std::vector<std::vector<std::size_t>> nested(2);
    util::parallel_for(nested.size(), [&](std::size_t i) {
      nested[i] = ml::predict_classifier(net, images, 16);
    });
    for (const auto& got : nested) EXPECT_EQ(got, want);
  }
}

TEST(Inference, PoolForwardLogitsMatchThreadsOne) {
  // The same per-image forwards predict_classifier runs, issued across
  // the pool and inline (threads = 1): logits bit for bit.
  PrecisionGuard guard;
  const auto images = random_images(32, 20, 3);
  util::Rng rng(4);
  ml::Network net = ml::make_queen_cnn(rng, 4, 20);
  for (const ml::Precision p : kPrecisions) {
    ml::set_inference_precision(p);
    for (const unsigned threads : {1u, 0u}) {
      std::vector<float> got(images.size() * 2);
      util::parallel_for(
          images.size(),
          [&](std::size_t i) {
            const ml::Tensor logits = forward_one(net, images[i]);
            std::copy(logits.data(), logits.data() + 2, got.data() + 2 * i);
          },
          threads);
      const std::vector<float> want = serial_logits(net, images);
      EXPECT_TRUE(same_bits(got.data(), want.data(), want.size()))
          << ml::precision_name(p) << " threads=" << threads;
    }
  }
}

TEST(Inference, BatchedForwardEqualsPerImageUnderEveryPrecision) {
  // A batched Network::forward is per-image under the hood: conv GEMMs
  // run per image and Linear quantizes each sample with its own scale,
  // so batching never changes a clip's logits. Under int8 this fails if
  // the head shares one activation scale across the batch.
  PrecisionGuard guard;
  const auto images = random_images(64, 40, 5);
  util::Rng rng(6);
  ml::Network net = ml::make_queen_cnn(rng, 8, 40);
  for (const ml::Precision p : kPrecisions) {
    ml::set_inference_precision(p);
    const ml::Tensor batched =
        net.forward(ml::images_to_tensor(images), false);
    const std::vector<float> alone = serial_logits(net, images);
    ASSERT_EQ(batched.size(), alone.size());
    EXPECT_TRUE(same_bits(batched.data(), alone.data(), alone.size()))
        << ml::precision_name(p);
  }
}

TEST(Inference, F32AndBf16LogitsMatchRecordedBatchedForward) {
  // Recorded digests of the 64x2 logits of a batched (64, 1, 40, 40)
  // forward through the batch-at-a-time inference code (x86-64, any
  // dispatch tier): per-image inference keeps f32 and bf16 logits
  // bit-identical to it.
  PrecisionGuard guard;
  util::Rng rng(11);
  ml::Network net = ml::make_queen_cnn(rng, 8, 40);
  std::vector<dsp::Matrix> images;
  for (std::size_t i = 0; i < 64; ++i) {
    dsp::Matrix m(40, 40);
    for (std::size_t r = 0; r < 40; ++r)
      for (std::size_t c = 0; c < 40; ++c) m(r, c) = rng.uniform();
    images.push_back(std::move(m));
  }
  const struct {
    ml::Precision p;
    std::uint64_t digest;
  } recorded[] = {{ml::Precision::kF32, 0xb3b8c27dc4a9e4e3ull},
                  {ml::Precision::kBf16, 0x28fa32b36123aa22ull}};
  for (const auto& r : recorded) {
    ml::set_inference_precision(r.p);
    const ml::Tensor batched =
        net.forward(ml::images_to_tensor(images), false);
    EXPECT_EQ(fnv1a(batched.data(), batched.size()), r.digest)
        << ml::precision_name(r.p);
    const std::vector<float> alone = serial_logits(net, images);
    EXPECT_EQ(fnv1a(alone.data(), alone.size()), r.digest)
        << ml::precision_name(r.p);
  }
}

TEST(Inference, ExternalThreadsShareOneNetwork) {
  // Four threads outside the pool each run predict_classifier on the
  // same Network at once (TSan covers the reentrancy claim).
  PrecisionGuard guard;
  const auto images = random_images(24, 20, 7);
  ml::Network net = balanced_cnn(20, 8, images);
  for (const ml::Precision p : kPrecisions) {
    ml::set_inference_precision(p);
    const std::vector<std::size_t> want =
        argmax_rows(serial_logits(net, images));
    std::vector<std::vector<std::size_t>> got(4);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < got.size(); ++t)
      threads.emplace_back([&, t] {
        got[t] = ml::predict_classifier(net, images, 1 + t);
      });
    for (auto& th : threads) th.join();
    for (const auto& g : got) EXPECT_EQ(g, want) << ml::precision_name(p);
  }
}

TEST(Inference, QuantizedWeightsRefreshOnLoadParameters) {
  // Net a runs a reduced-precision forward, then takes b's parameters:
  // it must then match b exactly, so the cached bf16/int8 weights were
  // rebuilt by load_parameters, not left from a's first forward.
  PrecisionGuard guard;
  const auto images = random_images(6, 20, 9);
  const ml::Tensor x = ml::images_to_tensor(images);
  for (const ml::Precision p : {ml::Precision::kBf16, ml::Precision::kInt8}) {
    util::Rng rng_a(10);
    util::Rng rng_b(20);
    ml::Network a = ml::make_queen_cnn(rng_a, 4, 20);
    ml::Network b = ml::make_queen_cnn(rng_b, 4, 20);
    ml::set_inference_precision(p);
    const ml::Tensor before = a.forward(x, false);
    a.set_parameters(b.parameters());
    const ml::Tensor got = a.forward(x, false);
    const ml::Tensor want = b.forward(x, false);
    EXPECT_FALSE(same_bits(before.data(), want.data(), want.size()));
    EXPECT_TRUE(same_bits(got.data(), want.data(), want.size()))
        << ml::precision_name(p);
  }
}

TEST(Inference, QuantizedWeightsRefreshOnSgdStep) {
  // After an SGD step, a reduced-precision forward must equal that of a
  // freshly built network holding the stepped parameters.
  PrecisionGuard guard;
  const auto images = random_images(6, 20, 11);
  const ml::Tensor x = ml::images_to_tensor(images);
  const std::vector<std::size_t> labels = {0, 1, 0, 1, 1, 0};
  for (const ml::Precision p : {ml::Precision::kBf16, ml::Precision::kInt8}) {
    util::Rng rng(30);
    ml::Network trained = ml::make_queen_cnn(rng, 4, 20);
    ml::set_inference_precision(p);
    const ml::Tensor before = trained.forward(x, false);
    ml::Tensor grad;
    ml::SoftmaxCrossEntropy::loss_and_grad(trained.forward(x, true), labels,
                                           grad);
    trained.backward(grad);
    trained.sgd_step(0.5f);
    util::Rng rng_fresh(31);
    ml::Network fresh = ml::make_queen_cnn(rng_fresh, 4, 20);
    fresh.set_parameters(trained.parameters());
    const ml::Tensor got = trained.forward(x, false);
    const ml::Tensor want = fresh.forward(x, false);
    EXPECT_FALSE(same_bits(before.data(), want.data(), want.size()));
    EXPECT_TRUE(same_bits(got.data(), want.data(), want.size()))
        << ml::precision_name(p);
  }
}

TEST(Inference, PredictClassifierValidatesArguments) {
  util::Rng rng(12);
  ml::Network net = ml::make_queen_cnn(rng, 4, 20);
  const auto images = random_images(3, 20, 13);
  EXPECT_THROW(ml::predict_classifier(net, images, 0), std::invalid_argument);
  EXPECT_THROW(ml::predict_classifier(net, {}, 4), std::invalid_argument);
  std::vector<dsp::Matrix> ragged = images;
  ragged.push_back(dsp::Matrix(20, 21));
  EXPECT_THROW(ml::predict_classifier(net, ragged, 4), std::invalid_argument);
}

TEST(ReLU, BranchlessForwardMatchesBranchyLoopBitForBit) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float denorm = std::numeric_limits<float>::denorm_min();
  const std::vector<float> values = {
      nan, -nan, 0.0f, -0.0f, denorm, -denorm, inf, -inf,
      1.5f, -1.5f, std::numeric_limits<float>::min(),
      -std::numeric_limits<float>::max()};
  ml::Tensor x({1, values.size()});
  std::copy(values.begin(), values.end(), x.data());
  std::vector<float> want = values;
  for (float& v : want)
    if (v < 0.0f) v = 0.0f;
  ml::ReLU relu;
  for (const bool train : {false, true}) {
    const ml::Tensor y = relu.forward(x, train);
    ASSERT_EQ(y.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      std::uint32_t got_bits = 0;
      std::uint32_t want_bits = 0;
      std::memcpy(&got_bits, y.data() + i, sizeof(float));
      std::memcpy(&want_bits, &want[i], sizeof(float));
      EXPECT_EQ(got_bits, want_bits) << "input " << values[i];
    }
  }
}
