// Per-thread heap-allocation counting — the test hook behind the
// simulator's "zero heap allocations per steady-state step" invariant.
//
// Linking this translation unit replaces the global operator new/delete with
// thin wrappers that bump the calling thread's counters before delegating to
// malloc/free. The counters are per thread and monotone; callers snapshot
// them around a window (AllocCounts::operator-) and assert on the delta.
// That delta covers only work done on the calling thread: a SimRuntime's
// fibers run there, but allocations on other threads do not appear in it —
// WorkerPool workers and ThreadRuntime's per-process threads. A free is
// charged to the thread that frees. Overhead is two thread-local adds per
// allocation and no shared cache line, so the counters stay on in every
// binary that references this header — which is what lets bench_micro publish
// allocs_per_step and bytes_per_step in BENCH_runtime.json: exact counts over
// one window, so single values beside the timed rungs' median and range.
//
// Under AddressSanitizer the replacement is compiled out (ASan owns operator
// new for poisoning/quarantine); alloc_counting_active() reports false and
// counting tests skip themselves.
#pragma once

#include <cstdint>

namespace mm::common {

struct AllocCounts {
  std::uint64_t allocs = 0;  ///< operator new calls (all variants)
  std::uint64_t frees = 0;   ///< operator delete calls (all variants)
  std::uint64_t bytes = 0;   ///< total bytes requested through operator new

  friend AllocCounts operator-(const AllocCounts& a, const AllocCounts& b) noexcept {
    return AllocCounts{a.allocs - b.allocs, a.frees - b.frees, a.bytes - b.bytes};
  }
};

/// Snapshot of the calling thread's counters (monotone since thread start).
[[nodiscard]] AllocCounts alloc_counts() noexcept;

/// False when the counting operators are compiled out (sanitizer builds);
/// deltas are then always zero and assertions on them are vacuous.
[[nodiscard]] bool alloc_counting_active() noexcept;

}  // namespace mm::common
