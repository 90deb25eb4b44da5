// Pure message-passing Ω baseline (heartbeat style, e.g. [5, 6, 20]).
//
// Every process periodically broadcasts ALIVE; receivers time out on
// silence, suspect, and elect the smallest unsuspected pid. Correct only
// when links are eventually timely: its detection/recovery time necessarily
// scales with the message delay bound, which is exactly the weakness E6
// contrasts against OmegaMM (whose monitoring runs over shared memory and
// never waits on a link).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "runtime/env.hpp"

namespace mm::core {

class OmegaMP {
 public:
  void run(runtime::Env& env);

  [[nodiscard]] Pid leader() const noexcept {
    return Pid{leader_.load(std::memory_order_acquire)};
  }
  [[nodiscard]] std::uint64_t iterations() const noexcept {
    return iterations_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<std::uint32_t> leader_{Pid::none().value()};
  std::atomic<std::uint64_t> iterations_{0};
};

}  // namespace mm::core
