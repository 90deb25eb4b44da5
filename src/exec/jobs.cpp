#include "exec/jobs.hpp"

#include <cstdlib>
#include <thread>

#include "common/parse.hpp"

namespace mm::exec {

namespace {

std::size_t& override_slot() {
  static std::size_t value = 0;
  return value;
}

/// MM_JOBS, or 0 when unset or empty. Anything but whole decimal digits
/// that fit in size_t throws: a typo must not run the engine at some other
/// width without a word.
std::size_t env_jobs() {
  const char* raw = std::getenv("MM_JOBS");
  if (raw == nullptr || *raw == '\0') return 0;
  return parse_decimal<std::size_t>("MM_JOBS", raw);
}

}  // namespace

std::size_t default_jobs() {
  if (override_slot() != 0) return override_slot();
  if (const std::size_t env = env_jobs(); env != 0) return env;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw != 0 ? hw : 1;
}

ScopedJobs::ScopedJobs(std::size_t jobs) : previous_(override_slot()) {
  override_slot() = jobs;
}

ScopedJobs::~ScopedJobs() { override_slot() = previous_; }

}  // namespace mm::exec
