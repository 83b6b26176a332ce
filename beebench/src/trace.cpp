#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>

namespace beebench::trace {

namespace detail {
std::atomic<bool> g_on{false};
}

namespace {

struct ThreadBuffer {
  std::uint32_t thread = 0;
  std::vector<Span> spans;
  std::vector<std::uint32_t> open;  // indices of open spans, innermost last
};

std::mutex g_buffers_mutex;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // guarded by mutex

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* buffer = [] {
    const std::lock_guard<std::mutex> lock(g_buffers_mutex);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    g_buffers.back()->thread = static_cast<std::uint32_t>(g_buffers.size());
    g_buffers.back()->spans.reserve(1 << 16);
    return g_buffers.back().get();
  }();
  return *buffer;
}

Handle make_handle(std::uint32_t thread, std::size_t index) {
  return (static_cast<Handle>(thread) << 32) |
         static_cast<Handle>(index + 1);
}

}  // namespace

const char* layer_name(Layer layer) noexcept {
  switch (layer) {
    case Layer::kServe: return "serve";
    case Layer::kCore: return "core";
    case Layer::kCkpt: return "core.ckpt";
    case Layer::kUtil: return "util";
    case Layer::kAudio: return "audio";
    case Layer::kDsp: return "dsp";
    case Layer::kMl: return "ml";
    case Layer::kCount: break;
  }
  return "?";
}

void set_on(bool enabled) noexcept {
  detail::g_on.store(enabled, std::memory_order_relaxed);
}

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Scope::Scope(const char* name, Layer layer, std::uint64_t id,
             Handle parent) noexcept {
  if (!on()) return;
  ThreadBuffer& buf = local_buffer();
  Span span;
  span.name = name;
  span.layer = layer;
  span.id = id;
  span.parent = parent != 0 ? parent
                : buf.open.empty()
                    ? 0
                    : make_handle(buf.thread, buf.open.back());
  const std::size_t index = buf.spans.size();
  buf.open.push_back(static_cast<std::uint32_t>(index));
  handle_ = make_handle(buf.thread, index);
  span.start_ns = now_ns();
  buf.spans.push_back(span);
}

Scope::~Scope() {
  if (handle_ == 0) return;
  const std::int64_t end = now_ns();
  ThreadBuffer& buf = local_buffer();
  buf.spans[buf.open.back()].end_ns = end;
  buf.open.pop_back();
}

void record_interval(const char* name, Layer layer, std::int64_t start_ns,
                     std::int64_t end_ns, std::uint64_t id) noexcept {
  if (!on()) return;
  ThreadBuffer& buf = local_buffer();
  Span span;
  span.name = name;
  span.layer = layer;
  span.id = id;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  // A detached interval: its own parent marker keeps it out of the
  // nesting analysis (see account_calling_thread).
  span.parent = ~Handle{0};
  buf.spans.push_back(span);
}

void clear() {
  const std::lock_guard<std::mutex> lock(g_buffers_mutex);
  for (auto& buf : g_buffers) buf->spans.clear();
}

Accounting account_calling_thread(std::int64_t t0_ns, std::int64_t t1_ns) {
  Accounting acc;
  acc.wall_s = static_cast<double>(t1_ns - t0_ns) * 1e-9;
  const ThreadBuffer& buf = local_buffer();
  const std::size_t n = buf.spans.size();
  // Children's durations per parent index (same thread only).
  std::vector<std::int64_t> child_ns(n, 0);
  for (const Span& s : buf.spans) {
    if (s.parent == 0 || s.parent == ~Handle{0}) continue;
    if ((s.parent >> 32) != buf.thread) continue;
    child_ns[(s.parent & 0xffffffffULL) - 1] += s.end_ns - s.start_ns;
  }
  // Covered time is the union of the top-level intervals, so spans that
  // overlap instead of nesting show up as a nonzero residual.
  std::int64_t covered = 0;
  std::int64_t covered_to = t0_ns;
  double self_total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = buf.spans[i];
    if (s.parent == ~Handle{0}) continue;
    if (s.start_ns < t0_ns || s.end_ns > t1_ns) continue;
    const double self =
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
    acc.self_s[static_cast<int>(s.layer)] += self;
    self_total += self;
    const bool top = s.parent == 0 || (s.parent >> 32) != buf.thread;
    if (top && s.end_ns > covered_to) {
      covered += s.end_ns - std::max(s.start_ns, covered_to);
      covered_to = s.end_ns;
    }
  }
  acc.unattributed_s = acc.wall_s - static_cast<double>(covered) * 1e-9;
  acc.residual_frac =
      acc.wall_s > 0.0
          ? std::fabs(self_total + acc.unattributed_s - acc.wall_s) /
                acc.wall_s
          : 0.0;
  return acc;
}

std::vector<double> durations_ms(const char* name) {
  std::vector<double> out;
  const std::lock_guard<std::mutex> lock(g_buffers_mutex);
  for (const auto& buf : g_buffers)
    for (const Span& s : buf->spans)
      if (std::strcmp(s.name, name) == 0)
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
  return out;
}

double total_seconds(const char* name) {
  double total = 0.0;
  for (double ms : durations_ms(name)) total += ms * 1e-3;
  return total;
}

bool write_tsv(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread\tindex\tname\tlayer\tstart_ns\tend_ns\tparent\tid\n");
  const std::lock_guard<std::mutex> lock(g_buffers_mutex);
  for (const auto& buf : g_buffers)
    for (std::size_t i = 0; i < buf->spans.size(); ++i) {
      const Span& s = buf->spans[i];
      const long long parent =
          s.parent == ~Handle{0} ? -1 : static_cast<long long>(s.parent);
      std::fprintf(f, "%u\t%zu\t%s\t%s\t%lld\t%lld\t%lld\t%llu\n",
                   buf->thread, i, s.name, layer_name(s.layer),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), parent,
                   static_cast<unsigned long long>(s.id));
    }
  return std::fclose(f) == 0;
}

}  // namespace beebench::trace
