// Wall-clock spans the benchmark records around its own calls into the
// program's layers (exec, runtime, core, fault, check). Nothing under src/
// is instrumented: every span opens and closes in this directory's code, so
// a span covers exactly one public call, or one item the benchmark hands to
// exec::parallel_map.
//
// A span's name is "<layer>.<call>"; its layer is the prefix before the
// first dot. Spans live in per-thread buffers owned by one process-wide
// recorder (WorkerPool threads are short-lived, their buffers are not) and
// leave memory only through tracing::take(), after a traced pass.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// steady_clock nanoseconds: CLOCK_MONOTONIC on Linux, the clock run.py
/// reads when it spawns this process.
[[nodiscard]] std::int64_t now_ns() noexcept;

struct Span {
  const char* name = "";     ///< "<layer>.<call>", static storage
  const char* tag = "";      ///< chaos case kind or DPOR instance, static storage
  std::uint64_t id = 0;      ///< unique and non-zero
  std::uint64_t parent = 0;  ///< 0 = root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t item = -1;    ///< item index within its batch; -1 when not an item
  std::uint32_t worker = 0;  ///< worker slot within the enclosing parallel_map call
  std::uint32_t thread = 0;  ///< recorder thread index (the Chrome-trace tid)
  /// Workers that run this span's children concurrently: the worker count
  /// of a parallel_map call, 1 for a span whose children run one after
  /// another on its own thread.
  std::uint32_t width = 1;

  [[nodiscard]] std::int64_t duration_ns() const noexcept { return end_ns - start_ns; }
};

[[nodiscard]] std::string_view layer_of(const Span& s) noexcept;

namespace tracing {

/// Arm or disarm recording. Disarmed, a ScopedSpan costs one relaxed load.
void set_enabled(bool on) noexcept;
[[nodiscard]] bool enabled() noexcept;

/// Every span recorded since the previous take(), ordered by start time;
/// empties the buffers. Call only while no other thread records.
[[nodiscard]] std::vector<Span> take();

}  // namespace tracing

/// One span on the calling thread. Its parent is `parent` when given (an
/// item running on a pool thread names its parallel_map call this way),
/// else the innermost span still open on this thread.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::int64_t item = -1, const char* tag = "",
                      std::uint64_t parent = 0, std::uint32_t worker = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// 0 when recording is disarmed.
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  void set_width(std::uint32_t width) noexcept;

 private:
  std::uint64_t id_ = 0;
  std::size_t slot_ = 0;
};

/// Worker slots of one parallel_map call: each thread that runs an item of
/// the call gets the next slot the first time it asks.
class WorkerSlots {
 public:
  WorkerSlots() noexcept;
  [[nodiscard]] std::uint32_t slot() noexcept;

 private:
  std::uint64_t call_;
  std::atomic<std::uint32_t> next_{0};
};

// -- analysis ---------------------------------------------------------------

/// Splits the roots' wall time over layers by self time: a span keeps its
/// duration minus its children's durations divided by its width; each child
/// of a span of width W counts 1/W of its time, because W workers share the
/// parent's wall clock. The shares add up to the roots' total duration exactly, which
/// is how a traced pass's wall time is accounted for layer by layer.
[[nodiscard]] std::map<std::string, double> wall_seconds_by_layer(const std::vector<Span>& spans);

/// Chrome-trace JSON, the format Perfetto's legacy importer reads: one
/// complete event per span, one track per recorder thread, all under pid 3
/// named `process_name` (the sim-time traces of tools/trace use pids 1 and
/// 2, so both files' traceEvents arrays can be concatenated).
void write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        const std::string& process_name);

}  // namespace perfbench
