#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace perfbench {

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string_view layer_of(const Span& s) noexcept {
  const std::string_view name{s.name};
  return name.substr(0, name.find('.'));
}

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_call{1};

/// Owns every thread's buffer, so spans outlive the pool threads that
/// recorded them.
struct Recorder {
  std::mutex mu;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers;  // guarded by mu
};

Recorder& recorder() {
  static Recorder r;
  return r;
}

struct ThreadState {
  std::vector<Span>* buffer = nullptr;
  std::uint32_t thread = 0;
  std::uint64_t opened = 0;         ///< spans opened on this thread (id suffix)
  std::vector<std::uint64_t> open;  ///< ids of this thread's open spans, innermost last
  std::uint64_t slot_call = 0;      ///< the WorkerSlots call `slot` belongs to
  std::uint32_t slot = 0;
};

thread_local ThreadState tl;

std::vector<Span>& thread_buffer() {
  if (tl.buffer == nullptr) {
    Recorder& r = recorder();
    const std::lock_guard lock{r.mu};
    r.buffers.push_back(std::make_unique<std::vector<Span>>());
    tl.buffer = r.buffers.back().get();
    tl.thread = static_cast<std::uint32_t>(r.buffers.size() - 1);
  }
  return *tl.buffer;
}

/// children[i] = indices of the spans whose parent is spans[i].
std::vector<std::vector<std::size_t>> children_of(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index.emplace(spans[i].id, i);
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent == 0) continue;
    const auto it = index.find(spans[i].parent);
    if (it == index.end())
      throw std::runtime_error{std::string{"span "} + spans[i].name +
                               " names a parent that was not recorded"};
    children[it->second].push_back(i);
  }
  return children;
}

}  // namespace

namespace tracing {

void set_enabled(bool on) noexcept { g_enabled.store(on, std::memory_order_relaxed); }

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

std::vector<Span> take() {
  Recorder& r = recorder();
  std::vector<Span> all;
  {
    const std::lock_guard lock{r.mu};
    for (const auto& buffer : r.buffers) {
      all.insert(all.end(), buffer->begin(), buffer->end());
      buffer->clear();
    }
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return all;
}

}  // namespace tracing

ScopedSpan::ScopedSpan(const char* name, std::int64_t item, const char* tag,
                       std::uint64_t parent, std::uint32_t worker) {
  if (!tracing::enabled()) return;
  std::vector<Span>& buffer = thread_buffer();
  Span s;
  s.name = name;
  s.tag = tag;
  // Thread index above a per-thread count: unique without a counter that
  // every pool worker would contend on.
  s.id = ((static_cast<std::uint64_t>(tl.thread) + 1) << 40) | ++tl.opened;
  s.parent = parent != 0 ? parent : (tl.open.empty() ? 0 : tl.open.back());
  s.item = item;
  s.worker = worker;
  s.thread = tl.thread;
  slot_ = buffer.size();
  buffer.push_back(s);
  tl.open.push_back(s.id);
  id_ = s.id;
  buffer[slot_].start_ns = now_ns();  // last, so the bookkeeping stays outside the span
}

ScopedSpan::~ScopedSpan() {
  if (id_ == 0) return;
  const std::int64_t end = now_ns();
  (*tl.buffer)[slot_].end_ns = end;
  tl.open.pop_back();
}

void ScopedSpan::set_width(std::uint32_t width) noexcept {
  if (id_ != 0) (*tl.buffer)[slot_].width = width;
}

WorkerSlots::WorkerSlots() noexcept
    : call_(g_next_call.fetch_add(1, std::memory_order_relaxed)) {}

std::uint32_t WorkerSlots::slot() noexcept {
  if (tl.slot_call != call_) {
    tl.slot_call = call_;
    tl.slot = next_.fetch_add(1, std::memory_order_relaxed);
  }
  return tl.slot;
}

std::map<std::string, double> wall_seconds_by_layer(const std::vector<Span>& spans) {
  const auto children = children_of(spans);
  std::vector<double> weight(spans.size(), 0.0);
  std::vector<std::size_t> order;  // parents before their children
  order.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != 0) continue;
    weight[i] = 1.0;
    order.push_back(i);
  }
  std::map<std::string, double> out;
  for (std::size_t k = 0; k < order.size(); ++k) {
    const std::size_t i = order[k];
    const Span& s = spans[i];
    const double child_weight = weight[i] / static_cast<double>(std::max<std::uint32_t>(s.width, 1));
    double child_ns = 0.0;
    for (const std::size_t c : children[i]) {
      weight[c] = child_weight;
      child_ns += static_cast<double>(spans[c].duration_ns());
      order.push_back(c);
    }
    out[std::string{layer_of(s)}] +=
        (weight[i] * static_cast<double>(s.duration_ns()) - child_weight * child_ns) * 1e-9;
  }
  return out;
}

void write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        const std::string& process_name) {
  constexpr unsigned kPid = 3;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error{"cannot write " + path};
  std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::vector<std::uint32_t> threads;
  for (const Span& s : spans) {
    origin = std::min(origin, s.start_ns);
    threads.push_back(s.thread);
  }
  std::sort(threads.begin(), threads.end());
  threads.erase(std::unique(threads.begin(), threads.end()), threads.end());

  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  std::fprintf(f,
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,\"tid\":0,"
               "\"args\":{\"name\":\"%s\"}}",
               kPid, process_name.c_str());
  for (const std::uint32_t t : threads)
    std::fprintf(f,
                 ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%u,\"tid\":%u,"
                 "\"args\":{\"name\":\"thread %u\"}}",
                 kPid, t, t);
  for (const Span& s : spans) {
    const std::string_view layer = layer_of(s);
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\",\"pid\":%u,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%" PRIu64 ",\"parent\":%" PRIu64
                 ",\"item\":%" PRId64 ",\"worker\":%u,\"tag\":\"%s\"}}",
                 s.name, static_cast<int>(layer.size()), layer.data(), kPid, s.thread,
                 static_cast<double>(s.start_ns - origin) * 1e-3,
                 static_cast<double>(s.duration_ns()) * 1e-3, s.id, s.parent, s.item, s.worker,
                 s.tag);
  }
  std::fprintf(f, "\n]}\n");
  const bool write_failed = std::ferror(f) != 0;
  if (std::fclose(f) != 0 || write_failed) throw std::runtime_error{"failed writing " + path};
}

}  // namespace perfbench
