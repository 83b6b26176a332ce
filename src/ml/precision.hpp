#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace beesim::ml {

/// Numeric storage/compute type for inference fast paths. Training is
/// always f32; reduced precision applies to Conv2d/Linear forward passes
/// when gradients are not required (layers.cpp), modelling the quantized
/// deployments the paper's Raspberry Pi edge node would actually run.
///
/// - kBf16: operands stored as bfloat16 (high 16 bits of the f32,
///   round-to-nearest-even); products and accumulation stay in f32.
/// - kInt8: symmetric per-row (per-output-channel) weight quantization
///   and one activation scale per image (Conv2d) or per sample
///   (Linear), exact i32 accumulation, fused f32 dequantization.
enum class Precision { kF32, kBf16, kInt8 };

/// Parses "f32", "bf16" or "int8" (the `precision=` bench argument);
/// throws std::invalid_argument on anything else.
Precision precision_from_name(const std::string& name);

const char* precision_name(Precision p) noexcept;

/// Process-global inference precision, defaulting to kF32. Set once at
/// startup (like dsp::set_kernel_config); flipping it concurrently with
/// running forward passes is not supported.
Precision inference_precision() noexcept;
void set_inference_precision(Precision p) noexcept;

/// Quantized view of a row-major f32 matrix: one symmetric scale per row
/// (scale = max|row| / 127, zero-point 0), int8 values rounded to
/// nearest-even via std::nearbyint. Rows of all zeros get scale 0.
struct QuantizedRows {
  std::vector<std::int8_t> values;
  std::vector<float> scales;  ///< one per row
};

QuantizedRows quantize_rows_s8(const float* data, std::size_t rows,
                               std::size_t cols);

/// Per-tensor symmetric int8 quantization (activations): one scale for
/// the whole buffer.
struct QuantizedTensor {
  std::vector<std::int8_t> values;
  float scale = 0.0f;
};

QuantizedTensor quantize_tensor_s8(const float* data, std::size_t count);

/// Round-trips for tests and for the reference accuracy-delta analysis.
std::vector<float> dequantize_rows_s8(const QuantizedRows& q,
                                      std::size_t rows, std::size_t cols);

/// bf16 conversions over buffers (element-wise dsp::f32_to_bf16_bits /
/// dsp::bf16_bits_to_f32).
std::vector<std::uint16_t> to_bf16(const float* data, std::size_t count);
std::vector<float> from_bf16(const std::uint16_t* data, std::size_t count);

}  // namespace beesim::ml
