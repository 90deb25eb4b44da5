// The benchmark's workloads behind one interface. main.cpp runs passes of
// batches and reports; a workload builds its inputs from the seed, runs one
// batch, and reads its own layers' metrics off a traced pass.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "exec/parallel_map.hpp"
#include "fault/json.hpp"
#include "spans.hpp"

namespace perfbench {

using Json = mm::fault::Json;
using Metrics = std::map<std::string, double>;

/// One batch: every item of the workload's input window, run once.
struct Batch {
  double wall_s = 0.0;
  double cpu_s = 0.0;            ///< the process's CPU time, user + kernel
  double sys_s = 0.0;            ///< the process's kernel CPU time
  std::vector<double> item_us;   ///< wall time of each item, index order
  std::uint64_t digest = 0;      ///< every item's outputs, index order
  std::uint64_t exceptions = 0;  ///< items that threw
  /// Items that broke an armed oracle, as (item id, oracle); the id is the
  /// workload's own (chaos: the campaign case index).
  std::vector<std::pair<std::uint64_t, std::string>> violations;
  Metrics sums;                  ///< workload counters summed over the items
};

/// Batches run back to back at one worker count.
struct Pass {
  std::string name;
  bool traced = false;
  std::size_t workers = 1;
  std::vector<Batch> batches;
  std::vector<Span> spans;  ///< traced passes only

  [[nodiscard]] double items() const;
  [[nodiscard]] double wall_s() const;  ///< summed over the batches
  [[nodiscard]] double sum(const std::string& counter) const;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Index of the input window the seed chose, and of its committed digest.
  [[nodiscard]] virtual std::uint64_t window() const = 0;
  /// What fixes the inputs; run.py checks it against perfbench/digests.json.
  [[nodiscard]] virtual Json params() const = 0;
  /// False when the workload runs on the calling thread only.
  [[nodiscard]] virtual bool uses_pool() const = 0;
  /// A short untimed run, so allocator pools and page tables are warm.
  virtual void warm_up(std::size_t workers) = 0;
  virtual Batch run_batch(std::size_t workers) = 0;
  /// The workload's own per-layer metrics from a traced pass and, for pool
  /// workloads on more than one CPU, the traced 1-worker pass.
  virtual void layer_metrics(const Pass& traced, const Pass* one_worker, Metrics& out) const = 0;
  /// Checks run once after timing: a reference computation, pinned counts.
  [[nodiscard]] virtual Json checks(const Pass& measured) = 0;
};

/// sweep and chaos run input window `seed % windows`; dpor has no seeded input.
[[nodiscard]] std::unique_ptr<Workload> make_sweep(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_chaos(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_dpor();

/// exec.* metrics from the parallel_map calls of a traced pass, and
/// exec.scaling against the traced 1-worker pass; all 0 without a pool.
void exec_metrics(const Pass& traced, const Pass* one_worker, Metrics& out);

/// Wall-time accounting of a traced pass: self.<layer>_frac shares that add
/// up to 1, trace.wall_s, trace.accounted_frac and trace.overhead_frac.
void accounting(const Pass& untraced, const Pass& traced, Metrics& out);

/// FNV-1a over 64-bit words: the digest of a batch's outputs.
class Digest {
 public:
  void add(std::uint64_t word) noexcept {
    for (int byte = 0; byte < 8; ++byte) {
      h_ ^= (word >> (8 * byte)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Nearest-rank percentile, q in [0, 1]; 0 for no samples.
[[nodiscard]] double percentile(std::vector<double> xs, double q);
/// a / b, or 0 when b is 0 (a counter the pass never touched).
[[nodiscard]] double ratio(double a, double b) noexcept;

/// An item's result, its wall time, and whether it threw.
template <typename R>
struct Timed {
  R value{};
  double us = 0.0;
  bool threw = false;
};

/// Runs item(i) for every i in [0, count) through exec::parallel_map on
/// `workers`. The call gets an "exec.parallel_map" span and each item a
/// span named `item_span` tagged tag(i); items are timed, traced or not. An
/// item that throws is recorded as thrown, so one bad item neither stops
/// the pool nor hides the other items' outputs.
template <typename Item, typename Tag>
auto map_items(std::uint64_t count, std::size_t workers, const char* item_span, Item&& item,
               Tag&& tag) {
  using R = std::invoke_result_t<Item&, std::uint64_t>;
  ScopedSpan call{"exec.parallel_map"};
  call.set_width(static_cast<std::uint32_t>(
      std::max<std::uint64_t>(1, std::min<std::uint64_t>(workers, count))));
  const std::uint64_t parent = call.id();
  WorkerSlots slots;
  return mm::exec::parallel_map(
      count,
      [&](std::uint64_t i) {
        Timed<R> out;
        const std::int64_t t0 = now_ns();
        {
          const ScopedSpan span{item_span, static_cast<std::int64_t>(i), tag(i), parent,
                                parent != 0 ? slots.slot() : 0U};
          try {
            out.value = item(i);
          } catch (...) {
            out.threw = true;
          }
        }
        out.us = static_cast<double>(now_ns() - t0) * 1e-3;
        return out;
      },
      workers);
}

}  // namespace perfbench
