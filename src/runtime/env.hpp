// Env — the single API every algorithm in this library is written against.
//
// An algorithm is a callable void(Env&) run once per process. The same
// algorithm code runs under the deterministic simulator (SimRuntime, used by
// tests and the fault-tolerance benches) and under real threads
// (ThreadRuntime, used by the concurrency benches). Blocking behaviour is
// expressed by polling plus Env::step(), which is also the unit in which the
// paper's relative timeliness (§3) is measured.
#pragma once

#include <cstdint>
#include <vector>

#include "common/ids.hpp"
#include "runtime/message.hpp"
#include "runtime/register_key.hpp"

namespace mm::runtime {

/// Thrown by ThreadRuntime's Env::step() when it tears the process down
/// (simulated crash, or shutdown). Algorithms should let it propagate; the
/// runtime catches it at the process boundary.
///
/// SimRuntime kills without a throw: a killed process's next yield unwinds
/// its body with a forced unwind, which runs every destructor but matches
/// no typed handler. A body's catch (...) sees it as abi::__forced_unwind
/// (<cxxabi.h>) and must rethrow it; one that swallows it is killed again
/// at its next yield.
class ProcessKilled {};

class Env {
 public:
  Env() = default;
  virtual ~Env() = default;
  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;

  // -- identity ------------------------------------------------------------
  [[nodiscard]] virtual Pid self() const = 0;
  [[nodiscard]] virtual std::size_t n() const = 0;

  // -- message passing (fully connected network, §3) -------------------------
  /// Send m to `to`. The runtime stamps m.from. Sending to self is allowed.
  virtual void send(Pid to, Message m) = 0;
  /// Move every message delivered to this process and not yet consumed into
  /// `out` (cleared first), in delivery order. Non-blocking; never surfaces
  /// undelivered messages. Reusing one `out` buffer across calls recycles
  /// its capacity, so a steady-state receive loop never allocates. (This is
  /// deliberately the only form: an allocating convenience overload existed
  /// once and every call site drifted onto it.)
  virtual void drain_inbox(std::vector<Message>& out) = 0;

  // -- shared memory (uniform domain from GSM, §3) ---------------------------
  /// Resolve a register name to a handle, materialising the register (value
  /// 0) on first use anywhere in the system. Throws ModelViolation if this
  /// process is outside the register's sharing set S_owner.
  [[nodiscard]] virtual RegId reg(RegKey key) = 0;
  [[nodiscard]] virtual std::uint64_t read(RegId r) = 0;
  virtual void write(RegId r, std::uint64_t v) = 0;
  /// Atomic compare-and-swap (what RDMA hardware provides); returns the
  /// previous value. Only the CAS-based consensus objects use this — the
  /// paper's algorithms themselves need plain read/write registers only.
  virtual std::uint64_t cas(RegId r, std::uint64_t expected, std::uint64_t desired) = 0;

  // -- randomness ------------------------------------------------------------
  /// Fair local coin (per-process deterministic stream in the simulator).
  [[nodiscard]] virtual bool coin() = 0;
  [[nodiscard]] virtual std::uint64_t rand_below(std::uint64_t bound) = 0;

  // -- control ---------------------------------------------------------------
  /// Take one step: yields to the scheduler (simulator) or the OS (threads).
  /// Message delivery and crash/kill decisions happen at step boundaries.
  virtual void step() = 0;
  /// Global step count (simulator) or a monotonic per-run tick (threads).
  [[nodiscard]] virtual Step now() const = 0;
  /// Cooperative shutdown hint; long-running algorithms (Ω) may poll it.
  [[nodiscard]] virtual bool stop_requested() const = 0;
};

/// Poll `pred` once per step until it holds. Returns false if the runtime
/// requested a stop first.
template <typename Pred>
bool wait_until(Env& env, Pred&& pred) {
  while (!pred()) {
    if (env.stop_requested()) return false;
    env.step();
  }
  return true;
}

/// Convenience: read-modify-check helper for named registers.
[[nodiscard]] inline std::uint64_t read_key(Env& env, RegKey key) {
  return env.read(env.reg(key));
}
inline void write_key(Env& env, RegKey key, std::uint64_t v) {
  env.write(env.reg(key), v);
}

}  // namespace mm::runtime
