#include "core/omega_mp.hpp"

#include "core/tags.hpp"
#include "net/broadcast.hpp"

namespace mm::core {

using runtime::Env;
using runtime::Message;

void OmegaMP::run(Env& env) {
  constexpr std::uint64_t kHeartbeatPeriod = 4;  // broadcast ALIVE every this many iterations
  constexpr std::uint64_t kInitialTimeout = 32;  // silence tolerated before suspecting
  const Pid p = env.self();
  const std::size_t n = env.n();

  std::vector<std::uint64_t> last_seen(n, 0);   // own-iteration of last ALIVE from q
  std::vector<std::uint64_t> timeout(n, kInitialTimeout);
  std::vector<bool> suspected(n, false);
  std::vector<Message> drained;  // reused across iterations
  std::uint64_t iter = 0;

  while (!env.stop_requested()) {
    ++iter;
    last_seen[p.index()] = iter;  // a process never suspects itself

    if (iter % kHeartbeatPeriod == 0) {
      Message alive;
      alive.kind = kMsgAlive;
      net::send_to_others(env, alive);
    }

    env.drain_inbox(drained);
    for (const Message& m : drained) {
      if (m.kind != kMsgAlive) continue;
      const std::size_t q = m.from.index();
      if (suspected[q]) {
        // Premature suspicion: back off like Chandra-Toueg ◇P-style
        // detectors so eventual timeliness eventually wins.
        suspected[q] = false;
        timeout[q] += timeout[q] / 2 + 1;
      }
      last_seen[q] = iter;
    }

    for (std::size_t q = 0; q < n; ++q) {
      if (q == p.index()) continue;
      if (!suspected[q] && iter - last_seen[q] > timeout[q]) suspected[q] = true;
    }

    Pid best = p;
    for (std::uint32_t q = 0; q < n; ++q)
      if (!suspected[q]) {
        best = Pid{q};
        break;
      }
    leader_.store(best.value(), std::memory_order_release);

    iterations_.fetch_add(1, std::memory_order_release);
    env.step();
  }
}

}  // namespace mm::core
