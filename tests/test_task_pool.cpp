#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "audio/dataset.hpp"
#include "dsp/kernel_config.hpp"
#include "dsp/matrix.hpp"
#include "dsp/stft.hpp"
#include "util/parallel.hpp"
#include "util/task_pool.hpp"

namespace u = beesim::util;
namespace dsp = beesim::dsp;
namespace audio = beesim::audio;

namespace {

// A deterministic per-index workload: every index owns its cell, so any
// schedule lands on the same vector.
std::vector<double> nested_compute(unsigned outer_threads,
                                   unsigned inner_threads) {
  constexpr std::size_t kOuter = 12;
  constexpr std::size_t kInner = 64;
  std::vector<double> out(kOuter * kInner, 0.0);
  u::parallel_for(
      kOuter,
      [&](std::size_t i) {
        u::parallel_for(
            kInner,
            [&](std::size_t j) {
              double acc = 0.0;
              for (std::size_t k = 0; k < 50; ++k)
                acc += static_cast<double>((i + 1) * (j + 1) + k) * 1e-3;
              out[i * kInner + j] = acc;
            },
            inner_threads);
      },
      outer_threads);
  return out;
}

dsp::Matrix stft_fixture(bool parallel, bool nested_outer) {
  dsp::KernelConfig cfg;
  cfg.parallel_stft = parallel;
  dsp::set_kernel_config(cfg);

  std::vector<double> signal(8192);
  for (std::size_t i = 0; i < signal.size(); ++i)
    signal[i] = std::sin(0.031 * static_cast<double>(i)) +
                0.25 * std::sin(0.173 * static_cast<double>(i));
  dsp::StftParams params;
  params.n_fft = 256;
  params.hop = 64;

  dsp::Matrix out;
  if (nested_outer) {
    // Issue the STFT from inside an outer region, the shape the dataset
    // featurizer produces (clip-parallel outer, frame-parallel inner).
    u::parallel_for(2, [&](std::size_t i) {
      const dsp::Matrix m = dsp::stft_power(signal, params);
      if (i == 0) out = m;
    });
  } else {
    out = dsp::stft_power(signal, params);
  }
  dsp::set_kernel_config(dsp::KernelConfig{});
  return out;
}

void expect_matrices_identical(const dsp::Matrix& a, const dsp::Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c)
      ASSERT_EQ(a(r, c), b(r, c)) << "at (" << r << ", " << c << ")";
}

}  // namespace

// --------------------------------------------------------------- TaskPool

TEST(TaskPool, NestedRegionsBitIdenticalForAnyWorkerCount) {
  const auto serial = nested_compute(1, 1);
  EXPECT_EQ(serial, nested_compute(0, 0));
  EXPECT_EQ(serial, nested_compute(2, 3));
  EXPECT_EQ(serial, nested_compute(8, 1));
  EXPECT_EQ(serial, nested_compute(1, 8));
}

TEST(TaskPool, NestedStftMatchesSerialFrameLoop) {
  const dsp::Matrix serial = stft_fixture(/*parallel=*/false,
                                          /*nested_outer=*/false);
  expect_matrices_identical(serial, stft_fixture(true, false));
  // Frame-parallel STFT nested inside an outer clip-style region: the
  // pool composes the tree and the result still matches the serial loop.
  expect_matrices_identical(serial, stft_fixture(true, true));
}

TEST(TaskPool, DatasetFeaturizerInvariantToNestedStftParallelism) {
  audio::DatasetParams params;
  params.count = 6;
  params.clip_seconds = 0.5;
  params.extended_features = true;

  dsp::KernelConfig cfg;
  cfg.parallel_stft = false;
  dsp::set_kernel_config(cfg);
  const audio::QueenDataset serial_inner = audio::generate_queen_dataset(params);

  dsp::set_kernel_config(dsp::KernelConfig{});  // parallel_stft on
  const audio::QueenDataset nested = audio::generate_queen_dataset(params);

  ASSERT_EQ(serial_inner.size(), nested.size());
  for (std::size_t i = 0; i < nested.size(); ++i) {
    EXPECT_EQ(serial_inner.examples[i].queen_present,
              nested.examples[i].queen_present);
    EXPECT_EQ(serial_inner.examples[i].features, nested.examples[i].features);
    expect_matrices_identical(serial_inner.examples[i].mel_db,
                              nested.examples[i].mel_db);
  }
}

TEST(TaskPool, ThreeLevelNestingCompletes) {
  std::atomic<std::size_t> leaves{0};
  u::parallel_for(
      4,
      [&](std::size_t) {
        u::parallel_for(
            4,
            [&](std::size_t) {
              u::parallel_for(
                  4,
                  [&](std::size_t) {
                    leaves.fetch_add(1, std::memory_order_relaxed);
                  },
                  4);
            },
            4);
      },
      4);
  EXPECT_EQ(leaves.load(), 64u);
}

TEST(TaskPool, InRegionReportsNesting) {
  // Explicit thread counts force the pool dispatch path even on a
  // single-core host, where threads = 0 resolves to the inline loop.
  EXPECT_FALSE(u::in_parallel_region());
  u::parallel_for(
      4,
      [&](std::size_t) {
        EXPECT_TRUE(u::in_parallel_region());
        u::parallel_for(
            4, [&](std::size_t) { EXPECT_TRUE(u::in_parallel_region()); }, 4);
        EXPECT_TRUE(u::in_parallel_region());
      },
      4);
  EXPECT_FALSE(u::in_parallel_region());
}

TEST(TaskPool, ExceptionInNestedRegionPropagatesLowestIndex) {
  try {
    u::parallel_for(
        8,
        [](std::size_t i) {
          u::parallel_for(
              8,
              [i](std::size_t j) {
                if (j >= 4)
                  throw std::runtime_error("inner " + std::to_string(i) + ":" +
                                           std::to_string(j));
              },
              8);
        },
        8);
    FAIL() << "expected exception";
  } catch (const std::runtime_error& e) {
    // Each inner region rethrows its own lowest failing index; the outer
    // region then rethrows the lowest failing outer index.
    EXPECT_STREQ(e.what(), "inner 0:4");
  }
}

TEST(TaskPool, ExceptionDoesNotLoseIndices) {
  // On the pool path every index runs even when some throw, so a region
  // never silently skips work after a failure.
  std::vector<std::atomic<int>> visits(64);
  EXPECT_THROW(u::parallel_for(
                   visits.size(),
                   [&](std::size_t i) {
                     visits[i].fetch_add(1);
                     if (i % 7 == 0) throw std::runtime_error("boom");
                   },
                   4),
               std::runtime_error);
  for (auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(TaskPool, ConcurrentIssuersFromExternalThreads) {
  constexpr std::size_t kIssuers = 8;
  constexpr std::size_t kItems = 512;
  std::vector<std::vector<int>> results(kIssuers,
                                        std::vector<int>(kItems, 0));
  std::vector<std::thread> issuers;
  issuers.reserve(kIssuers);
  for (std::size_t t = 0; t < kIssuers; ++t) {
    issuers.emplace_back([&results, t] {
      for (int rep = 0; rep < 4; ++rep)
        u::parallel_for(
            kItems, [&results, t](std::size_t i) { ++results[t][i]; }, 4);
    });
  }
  for (auto& thread : issuers) thread.join();
  for (const auto& row : results)
    for (int v : row) EXPECT_EQ(v, 4);
}

TEST(TaskPool, StatsAreMonotonic) {
  auto& pool = u::TaskPool::instance();
  const auto before = pool.stats();
  // Empty items let the issuer finish the whole region before a lazily
  // woken worker dequeues its helper task, leaving stats().tasks unmoved.
  // So the issuer's items hold (for at most ~1 s) until a second thread
  // has entered the region: a worker counts its task before running it.
  const auto issuer = std::this_thread::get_id();
  const bool expect_helper = pool.worker_count() > 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(1);
  std::atomic<bool> helper_entered{false};
  u::parallel_for(
      256,
      [&](std::size_t) {
        if (std::this_thread::get_id() != issuer) {
          helper_entered.store(true, std::memory_order_release);
          return;
        }
        while (expect_helper &&
               !helper_entered.load(std::memory_order_acquire) &&
               std::chrono::steady_clock::now() < deadline)
          std::this_thread::yield();
      },
      4);
  const auto after = pool.stats();
  EXPECT_GE(after.tasks, before.tasks);
  EXPECT_GE(after.steals, before.steals);
  EXPECT_GE(after.parks, before.parks);
  if (pool.worker_count() > 0) {
    EXPECT_GT(after.tasks, before.tasks);
  }
}

TEST(TaskPool, InlineFastPathDispatchesNoTasks) {
  auto& pool = u::TaskPool::instance();
  const auto before = pool.stats();
  u::parallel_for(1000, [](std::size_t) {}, 1);  // threads == 1 -> inline
  u::parallel_for(1, [](std::size_t) {});        // n <= 1 -> inline
  const auto after = pool.stats();
  EXPECT_EQ(after.tasks, before.tasks);
}
