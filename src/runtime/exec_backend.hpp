// Execution backends for the deterministic simulator.
//
// The scheduler decision logic in SimRuntime (adversary RNG draws, weights,
// timeliness, crash schedule, tracing) is a pure function of the SimConfig;
// *how* control moves between the scheduler and the chosen process body is
// not, and that mechanism is what a ProcExec encapsulates:
//
//   * kCoroutine — each process body runs on a Fiber; a handoff is two
//     userspace register swaps (~tens of ns). The default.
//   * kThread    — each process body runs on a parked OS thread; a handoff is
//     two binary-semaphore round-trips, i.e. two kernel context switches
//     (~µs). Kept as the reference semantics for differential testing.
//
// Because the backend only replaces the transfer-of-control primitive, every
// seeded trajectory — scheduler picks, message delays, drops, crash points,
// metrics, traces, register contents — is bit-identical across backends.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

namespace mm::runtime {

class Fiber;
class FiberStackPool;

enum class SimBackend : std::uint8_t {
  kCoroutine,  ///< userspace fiber handoff (default)
  kThread,     ///< parked-OS-thread handoff (reference semantics)
};

[[nodiscard]] const char* to_string(SimBackend backend) noexcept;

/// Process-wide default: MM_SIM_BACKEND={coroutine|thread} (also accepts
/// "coro"/"fiber" and "threads"); unset or unrecognised → kCoroutine.
/// SimConfig::backend overrides this per runtime.
[[nodiscard]] SimBackend default_sim_backend();

/// One process' suspended execution context. Exactly one side is ever
/// running: resume() is the scheduler handing the process its step, yield()
/// is the process handing control back. The wrapped body runs to completion
/// exactly once; after that resume() must not be called again.
class ProcExec {
 public:
  virtual ~ProcExec() = default;
  ProcExec(const ProcExec&) = delete;
  ProcExec& operator=(const ProcExec&) = delete;

  /// Scheduler side: transfer control to the process; returns when it
  /// yields or its body completes.
  virtual void resume() = 0;

  /// Process side: transfer control back to the scheduler.
  virtual void yield() = 0;

  /// Release OS resources once the body has completed (thread join; no-op
  /// for fibers). Callers must drain the body to completion first.
  virtual void join() = 0;

  /// The underlying fiber when this context is fiber-backed, else null.
  /// Schedulers cache it to hand off via the inline Fiber fast path instead
  /// of a virtual call per step.
  [[nodiscard]] virtual Fiber* fiber() noexcept { return nullptr; }

 protected:
  ProcExec() = default;
};

/// Knobs for make_proc_exec (coroutine backend only; the thread backend
/// ignores them).
struct ExecOptions {
  /// Usable stack bytes per fiber; 0 = Fiber::kDefaultStackBytes.
  std::size_t fiber_stack_bytes = 0;
  /// When set, fiber stacks come from this pool (guardless, dense; see
  /// FiberStackPool) instead of one guarded mapping per fiber. Non-owning;
  /// the pool must outlive the execution context. Overrides
  /// fiber_stack_bytes — the pool fixes the stack size.
  FiberStackPool* stack_pool = nullptr;
};

/// Create the execution context for one process. `body` is the complete
/// process wrapper — kill check, exception capture, finished flag — and must
/// not throw. The context starts suspended; nothing runs until resume().
[[nodiscard]] std::unique_ptr<ProcExec> make_proc_exec(SimBackend backend,
                                                       std::function<void()> body,
                                                       const ExecOptions& opts = {});

}  // namespace mm::runtime
