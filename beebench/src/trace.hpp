#pragma once

// In-memory span tracer for the traced run. The benchmark opens a span
// around every call it makes into a program layer; spans are appended to
// per-thread buffers (no locking on the hot path) and analysed or written
// out only after the run, when every thread is quiescent. With tracing off
// a Scope costs one relaxed load.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace beebench::trace {

/// The program layers spans are attributed to (repo modules; core.ckpt is
/// core's checkpoint layer). obs has no spans: the benchmark never calls
/// it in a traced phase, and its cost is obs.overhead_frac.
enum class Layer : std::uint8_t {
  kServe,
  kCore,
  kCkpt,
  kUtil,
  kAudio,
  kDsp,
  kMl,
  kCount
};
inline constexpr int kLayerCount = static_cast<int>(Layer::kCount);
const char* layer_name(Layer layer) noexcept;

/// Identifies a recorded span across threads: (thread << 32) | (index + 1);
/// 0 means "no span".
using Handle = std::uint64_t;

struct Span {
  const char* name = nullptr;
  Layer layer = Layer::kServe;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  Handle parent = 0;
  std::uint64_t id = 0;  // request or clip id (0 when not per-item)
};

namespace detail {
extern std::atomic<bool> g_on;
}
inline bool on() noexcept {
  return detail::g_on.load(std::memory_order_relaxed);
}
void set_on(bool enabled) noexcept;

/// Monotonic nanoseconds on the steady clock.
std::int64_t now_ns() noexcept;

/// RAII span. The parent is the innermost open span of this thread unless
/// `parent` names one on another thread (pool workers inheriting the
/// issuing region).
class Scope {
 public:
  Scope(const char* name, Layer layer, std::uint64_t id = 0,
        Handle parent = 0) noexcept;
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// This span's handle (0 when tracing is off).
  Handle handle() const noexcept { return handle_; }

 private:
  Handle handle_ = 0;
};

/// Records a finished interval measured by the caller (a span whose start
/// and end the benchmark observed but did not bracket, e.g. a request's
/// residence); it does not nest and never counts toward self time.
void record_interval(const char* name, Layer layer, std::int64_t start_ns,
                     std::int64_t end_ns, std::uint64_t id) noexcept;

/// Drops every recorded span (threads must be quiescent).
void clear();

/// Self time per layer, summed over the spans of the calling thread inside
/// [t0_ns, t1_ns), and the part of that window no span covers. Self time
/// is a span's duration minus that of its children on the same thread.
struct Accounting {
  double wall_s = 0.0;
  double self_s[kLayerCount] = {};
  double unattributed_s = 0.0;
  /// |sum(self) + unattributed - wall| / wall: nonzero only when spans do
  /// not nest (a tracer bug), checked by the runners.
  double residual_frac = 0.0;
};
Accounting account_calling_thread(std::int64_t t0_ns, std::int64_t t1_ns);

/// Durations (ms) of every span named `name`, on every thread.
std::vector<double> durations_ms(const char* name);
/// Sum of durations (s) of every span named `name`, on every thread.
double total_seconds(const char* name);

/// Writes every span as tab-separated text; returns false on I/O failure.
bool write_tsv(const std::string& path);

}  // namespace beebench::trace
