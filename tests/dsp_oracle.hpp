// Naive reference kernels for the queen-detection pipeline (STFT -> mel ->
// CNN). Each is the textbook form of a kernel whose only implementation in
// src/ is the fast one: a radix-2 FFT that recomputes its twiddles every
// call, a per-frame full complex FFT STFT, a dense filterbank product, and
// the 6-deep convolution loop nest. They share no code with the planned
// FFT, the banded filterbank or the im2col + GEMM convolution, so the
// equivalence tests that compare against them check something independent.

#pragma once

#include <cmath>
#include <cstddef>
#include <memory>
#include <numbers>
#include <stdexcept>
#include <string>
#include <vector>

#include "dsp/fft.hpp"
#include "dsp/matrix.hpp"
#include "dsp/stft.hpp"
#include "dsp/window.hpp"
#include "ml/layers.hpp"
#include "ml/network.hpp"
#include "util/rng.hpp"

namespace oracle {

/// In-place iterative radix-2 Cooley-Tukey forward FFT (e^{-i2pi/N}
/// convention, like numpy). Twiddles are recomputed, and drift
/// incrementally, on every call. `data.size()` must be a power of two.
inline void fft(std::vector<beesim::dsp::Complex>& data) {
  using beesim::dsp::Complex;
  const std::size_t n = data.size();
  if (!beesim::dsp::is_power_of_two(n))
    throw std::invalid_argument("fft: size must be a power of two");
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = -2.0 * std::numbers::pi / static_cast<double>(len);
    const Complex wlen(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      Complex w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const Complex u = data[i + k];
        const Complex v = data[i + k + len / 2] * w;
        data[i + k] = u + v;
        data[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
}

/// Half spectrum (n/2 + 1 bins) of a real signal, through a full complex
/// FFT of the real input.
inline std::vector<beesim::dsp::Complex> rfft(
    const std::vector<double>& signal) {
  std::vector<beesim::dsp::Complex> buf(signal.begin(), signal.end());
  fft(buf);
  buf.resize(signal.size() / 2 + 1);
  return buf;
}

/// dsp::stft_power as a serial frame loop: librosa reflect padding, a
/// periodic Hann window and one rfft() per frame.
inline beesim::dsp::Matrix stft_power(const std::vector<double>& signal,
                                      const beesim::dsp::StftParams& p) {
  std::vector<double> padded = signal;
  if (p.center) {
    const std::size_t pad = p.n_fft / 2;
    padded.clear();
    for (std::size_t i = pad; i > 0; --i) padded.push_back(signal[i]);
    padded.insert(padded.end(), signal.begin(), signal.end());
    for (std::size_t i = 0; i < pad; ++i)
      padded.push_back(signal[signal.size() - 2 - i]);
  }
  const std::size_t frames = (padded.size() - p.n_fft) / p.hop + 1;
  const std::size_t bins = p.n_fft / 2 + 1;
  const std::vector<double> window = beesim::dsp::hann_window(p.n_fft);
  beesim::dsp::Matrix out(bins, frames);
  std::vector<double> frame(p.n_fft);
  for (std::size_t f = 0; f < frames; ++f) {
    for (std::size_t i = 0; i < p.n_fft; ++i)
      frame[i] = padded[f * p.hop + i] * window[i];
    const auto spectrum = rfft(frame);
    for (std::size_t b = 0; b < bins; ++b) out(b, f) = std::norm(spectrum[b]);
  }
  return out;
}

/// Dense (bands x bins) filterbank times a (bins x frames) power
/// spectrogram, scanning every bin of every band and skipping zero
/// weights.
inline beesim::dsp::Matrix apply_filterbank(
    const beesim::dsp::Matrix& filterbank, const beesim::dsp::Matrix& power) {
  if (filterbank.cols() != power.rows())
    throw std::invalid_argument(
        "apply_filterbank: filterbank cols != spectrum bins");
  beesim::dsp::Matrix out(filterbank.rows(), power.cols());
  for (std::size_t m = 0; m < filterbank.rows(); ++m)
    for (std::size_t b = 0; b < filterbank.cols(); ++b) {
      const double w = filterbank(m, b);
      if (w == 0.0) continue;
      for (std::size_t f = 0; f < power.cols(); ++f)
        out(m, f) += w * power(b, f);
    }
  return out;
}

/// Inference-only ml::Conv2d (stride 1, "same" zero padding, odd square
/// kernel) as the direct 6-deep loop nest. Parameters load in Conv2d's
/// order (weights (out, in, k, k), then bias), so a network built from it
/// takes another network's parameters() through set_parameters().
class NaiveConv2d final : public beesim::ml::Layer {
 public:
  NaiveConv2d(std::size_t in_channels, std::size_t out_channels,
              std::size_t kernel)
      : in_ch_(in_channels), out_ch_(out_channels), k_(kernel),
        weights_({out_channels, in_channels, kernel, kernel}),
        bias_({out_channels}) {}

  beesim::ml::Tensor forward(const beesim::ml::Tensor& input,
                             bool /*train*/) override {
    const std::size_t n = input.dim(0);
    const std::size_t h = input.dim(2);
    const std::size_t w = input.dim(3);
    const auto pad = static_cast<std::ptrdiff_t>(k_ / 2);
    beesim::ml::Tensor out({n, out_ch_, h, w});
    for (std::size_t b = 0; b < n; ++b)
      for (std::size_t oc = 0; oc < out_ch_; ++oc)
        for (std::size_t y = 0; y < h; ++y)
          for (std::size_t x = 0; x < w; ++x) {
            float acc = bias_[oc];
            for (std::size_t ic = 0; ic < in_ch_; ++ic)
              for (std::size_t ky = 0; ky < k_; ++ky) {
                const std::ptrdiff_t iy =
                    static_cast<std::ptrdiff_t>(y + ky) - pad;
                if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) continue;
                for (std::size_t kx = 0; kx < k_; ++kx) {
                  const std::ptrdiff_t ix =
                      static_cast<std::ptrdiff_t>(x + kx) - pad;
                  if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w))
                    continue;
                  acc += input.at4(b, ic, static_cast<std::size_t>(iy),
                                   static_cast<std::size_t>(ix)) *
                         weights_.at4(oc, ic, ky, kx);
                }
              }
            out.at4(b, oc, y, x) = acc;
          }
    return out;
  }

  beesim::ml::Tensor backward(const beesim::ml::Tensor&) override {
    throw std::logic_error("NaiveConv2d: inference-only oracle");
  }
  std::string name() const override { return "naive_conv2d"; }
  std::size_t parameter_count() const override {
    return weights_.size() + bias_.size();
  }
  void load_parameters(const float*& cursor) override {
    for (std::size_t i = 0; i < weights_.size(); ++i) weights_[i] = *cursor++;
    for (std::size_t i = 0; i < bias_.size(); ++i) bias_[i] = *cursor++;
  }

 private:
  std::size_t in_ch_;
  std::size_t out_ch_;
  std::size_t k_;
  beesim::ml::Tensor weights_;
  beesim::ml::Tensor bias_;
};

/// ml::make_queen_cnn's architecture with NaiveConv2d in place of Conv2d,
/// loaded with `trained`'s parameters.
inline beesim::ml::Network naive_queen_cnn(const beesim::ml::Network& trained,
                                           std::size_t base_channels,
                                           std::size_t input_side) {
  using namespace beesim::ml;
  beesim::util::Rng unused(0);  // Linear's init, overwritten below
  Network net;
  net.add(std::make_unique<NaiveConv2d>(1, base_channels, 3));
  net.add(std::make_unique<ReLU>());
  net.add(std::make_unique<MaxPool2>());
  net.add(std::make_unique<NaiveConv2d>(base_channels, base_channels * 2, 3));
  net.add(std::make_unique<ReLU>());
  net.add(std::make_unique<MaxPool2>());
  net.add(std::make_unique<TimeAvgPool>());
  net.add(std::make_unique<Linear>(base_channels * 2 * (input_side / 4), 2,
                                   unused));
  net.set_parameters(trained.parameters());
  return net;
}

}  // namespace oracle
