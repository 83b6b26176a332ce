#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ml/precision.hpp"
#include "ml/tensor.hpp"
#include "util/rng.hpp"

namespace beesim::ml {

/// Base class for trainable layers. forward(train=true) caches whatever
/// backward needs; backward returns the gradient w.r.t. the layer input
/// and accumulates parameter gradients, which sgd_step then applies with
/// momentum.
///
/// forward(x, train=false) writes no member: inference is reentrant, so
/// any number of threads may run it on one layer at once (this is how
/// predict_classifier fans images out over the TaskPool). Training
/// calls (forward(train=true), backward, sgd_step, load_parameters) need
/// exclusive access.
class Layer {
 public:
  virtual ~Layer() = default;

  virtual Tensor forward(const Tensor& input, bool train) = 0;
  virtual Tensor backward(const Tensor& grad_output) = 0;
  /// Applies accumulated gradients (no-op for stateless layers).
  virtual void sgd_step(float lr, float momentum) { (void)lr; (void)momentum; }
  virtual std::string name() const = 0;
  virtual std::size_t parameter_count() const { return 0; }
  /// Appends this layer's parameters to `out` (weights then bias).
  virtual void append_parameters(std::vector<float>& out) const {
    (void)out;
  }
  /// Reads parameter_count() values from `cursor`, advancing it.
  virtual void load_parameters(const float*& cursor) { (void)cursor; }
};

/// 2-D convolution, stride 1, "same" zero padding, square kernel. He
/// initialization. Input/output layout: (N, C, H, W).
///
/// The forward pass lowers each image with im2col and runs one
/// register-blocked GEMM: the weight matrix (out, in*k*k) times the
/// lowered image (the naive 6-deep loop nest it replaced is a test oracle
/// in tests/dsp_oracle.hpp). Inference-only forward passes honor
/// ml::inference_precision(): the GEMM swaps in bf16 or symmetric-int8
/// operands (weights re-quantized whenever they change, activations per
/// image).
class Conv2d final : public Layer {
 public:
  Conv2d(std::size_t in_channels, std::size_t out_channels,
         std::size_t kernel, util::Rng& rng);

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  void sgd_step(float lr, float momentum) override;
  std::string name() const override { return "conv2d"; }
  std::size_t parameter_count() const override {
    return weights_.size() + bias_.size();
  }
  void append_parameters(std::vector<float>& out) const override;
  void load_parameters(const float*& cursor) override;

  const Tensor& weights() const noexcept { return weights_; }

 private:
  std::size_t in_ch_;
  std::size_t out_ch_;
  std::size_t k_;
  Tensor weights_;       // (out, in, k, k)
  Tensor bias_;          // (out)
  Tensor grad_weights_;
  Tensor grad_bias_;
  Tensor vel_weights_;
  Tensor vel_bias_;
  Tensor cached_input_;

  // Reduced-precision copies of weights_, rebuilt by requantize() at
  // every weight change so an inference forward only reads them.
  std::vector<std::uint16_t> wt_bf16_;
  QuantizedRows wt_s8_;

  void requantize();
};

/// Element-wise ReLU.
class ReLU final : public Layer {
 public:
  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "relu"; }

 private:
  Tensor cached_input_;
};

/// 2x2 max pooling, stride 2. Odd trailing rows/cols are dropped.
class MaxPool2 final : public Layer {
 public:
  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "maxpool2"; }

 private:
  std::vector<std::size_t> argmax_;
  std::vector<std::size_t> input_shape_;
};

/// Time-average pooling for spectrogram images: (N, C, H, W) -> (N, C*H),
/// averaging over the time axis (W) while preserving the frequency axis
/// (H). The queen-detection cue is *which* frequency rows are hot (the
/// queenless roar shifts the harmonic stack), so frequency position must
/// survive into the classifier head — global average pooling would erase
/// it.
class TimeAvgPool final : public Layer {
 public:
  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "timeavgpool"; }

 private:
  std::vector<std::size_t> input_shape_;
};

/// Global average pooling: (N, C, H, W) -> (N, C). Fully resolution-
/// independent (used where translation invariance is wanted).
class GlobalAvgPool final : public Layer {
 public:
  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "gap"; }

 private:
  std::vector<std::size_t> input_shape_;
};

/// Fully connected layer: (N, D) -> (N, M). Xavier initialization.
/// Inference-only forward passes honor ml::inference_precision() like
/// Conv2d: each sample is one (D, 1) column for the dispatched GEMM
/// kernels, with weights as the quantized left operand, so every sample
/// gets its own int8 activation scale and a sample's logits do not
/// depend on which other samples share the batch.
class Linear final : public Layer {
 public:
  Linear(std::size_t in_features, std::size_t out_features, util::Rng& rng);

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  void sgd_step(float lr, float momentum) override;
  std::string name() const override { return "linear"; }
  std::size_t parameter_count() const override {
    return weights_.size() + bias_.size();
  }
  void append_parameters(std::vector<float>& out) const override;
  void load_parameters(const float*& cursor) override;

 private:
  std::size_t in_;
  std::size_t out_;
  Tensor weights_;  // (out, in) stored as 2-D
  Tensor bias_;     // (out)
  Tensor grad_weights_;
  Tensor grad_bias_;
  Tensor vel_weights_;
  Tensor vel_bias_;
  Tensor cached_input_;

  // Reduced-precision weight copies (see Conv2d).
  std::vector<std::uint16_t> wt_bf16_;
  QuantizedRows wt_s8_;

  void requantize();
};

/// Softmax + cross-entropy on logits (N, classes). Returns mean loss and
/// writes the logits gradient for backprop.
struct SoftmaxCrossEntropy {
  /// labels[i] in [0, classes). grad has the logits' shape.
  static float loss_and_grad(const Tensor& logits,
                             const std::vector<std::size_t>& labels,
                             Tensor& grad);
  /// argmax per row.
  static std::vector<std::size_t> predict(const Tensor& logits);
};

}  // namespace beesim::ml
