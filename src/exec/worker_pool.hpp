// Fixed-size worker pool dispatching a contiguous index range.
//
// The unit of work is an index i in [0, count): workers claim indices from a
// shared atomic counter, so scheduling is dynamic (good load balance for
// trials whose cost varies by seed) while the *caller* observes results only
// through per-index slots — order of completion never leaks. Jobs must not
// throw; parallel_map (the only intended user) wraps user functions and
// captures exceptions per index so a throwing trial can never wedge the
// pool.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

namespace mm::exec {

class WorkerPool {
 public:
  /// Spawns `workers` threads that immediately start claiming indices of
  /// `job` and blocks in the destructor until all of [0, count) ran.
  /// `workers` is clamped to `count`; with workers <= 1 the job runs inline.
  static void run_indexed(std::uint64_t count, std::size_t workers,
                          const std::function<void(std::uint64_t)>& job);
};

}  // namespace mm::exec
