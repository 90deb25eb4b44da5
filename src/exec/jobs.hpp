// Worker-count resolution for the parallel trial engine.
//
// Precedence: ScopedJobs override (tests) > MM_JOBS environment variable >
// std::thread::hardware_concurrency(). A resolved value of 1 means "run
// inline on the calling thread" — no pool, no worker threads — which
// reproduces the historical sequential behavior exactly.
#pragma once

#include <cstddef>

namespace mm::exec {

/// Resolved degree of trial-level parallelism (always >= 1). An unset,
/// empty or 0 MM_JOBS means hardware concurrency; any other value that is
/// not whole decimal digits fitting in size_t throws std::invalid_argument
/// naming MM_JOBS and the text.
[[nodiscard]] std::size_t default_jobs();

/// RAII override of the job count, ignoring MM_JOBS (0 clears the override;
/// the previous override is restored on exit). Intended for tests.
class ScopedJobs {
 public:
  explicit ScopedJobs(std::size_t jobs);
  ~ScopedJobs();
  ScopedJobs(const ScopedJobs&) = delete;
  ScopedJobs& operator=(const ScopedJobs&) = delete;

 private:
  std::size_t previous_;
};

}  // namespace mm::exec
