#include "runtime/exec_backend.hpp"

#include <cstdlib>
#include <cstring>
#include <semaphore>
#include <thread>

#include "runtime/fiber.hpp"

namespace mm::runtime {

namespace {

// ---------------------------------------------------------------------------
// Coroutine backend: the body runs on a fiber; handoffs never leave
// userspace. One mmap'd stack per process instead of one OS thread — this is
// also what lets the parallel trial engine run a whole SimRuntime per worker
// without spawning n threads per trial.
// ---------------------------------------------------------------------------

class FiberExec final : public ProcExec {
 public:
  FiberExec(std::function<void()> body, std::size_t stack_bytes)
      : fiber_(std::move(body),
               stack_bytes == 0 ? Fiber::kDefaultStackBytes : stack_bytes) {}

  FiberExec(std::function<void()> body, FiberStackPool& pool)
      : pool_(&pool),
        stack_lo_(pool.acquire()),
        fiber_(std::move(body), stack_lo_, pool.stack_bytes()) {}

  ~FiberExec() override {
    // Recycling here (before fiber_'s destructor) is safe: release() only
    // records the pointer, and fiber_ never touches an external stack again
    // once it is done.
    if (pool_ != nullptr) pool_->release(stack_lo_);
  }

  void resume() override { fiber_.resume(); }
  void yield() override { fiber_.yield(); }
  void join() override {}
  Fiber* fiber() noexcept override { return &fiber_; }

 private:
  FiberStackPool* pool_ = nullptr;
  void* stack_lo_ = nullptr;
  Fiber fiber_;
};

// ---------------------------------------------------------------------------
// Thread backend: the body runs on an OS thread and exactly one of
// {scheduler, process} is ever unparked — the pre-backend SimRuntime
// mechanism, kept verbatim as the reference semantics.
// ---------------------------------------------------------------------------

class ThreadExec final : public ProcExec {
 public:
  explicit ThreadExec(std::function<void()> body)
      : body_(std::move(body)), thread_([this] {
          resume_.acquire();
          body_();
          done_.release();
        }) {}

  ~ThreadExec() override { join(); }

  void resume() override {
    resume_.release();
    done_.acquire();
  }

  void yield() override {
    done_.release();
    resume_.acquire();
  }

  void join() override {
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::function<void()> body_;
  std::binary_semaphore resume_{0};
  std::binary_semaphore done_{0};
  std::thread thread_;
};

}  // namespace

const char* to_string(SimBackend backend) noexcept {
  switch (backend) {
    case SimBackend::kCoroutine: return "coroutine";
    case SimBackend::kThread: return "thread";
  }
  return "?";
}

SimBackend default_sim_backend() {
  const char* raw = std::getenv("MM_SIM_BACKEND");
  if (raw != nullptr) {
    if (std::strcmp(raw, "thread") == 0 || std::strcmp(raw, "threads") == 0)
      return SimBackend::kThread;
    // "coroutine"/"coro"/"fiber"/anything else: the default.
  }
  return SimBackend::kCoroutine;
}

std::unique_ptr<ProcExec> make_proc_exec(SimBackend backend, std::function<void()> body,
                                         const ExecOptions& opts) {
  switch (backend) {
    case SimBackend::kThread: return std::make_unique<ThreadExec>(std::move(body));
    case SimBackend::kCoroutine: break;
  }
  if (opts.stack_pool != nullptr)
    return std::make_unique<FiberExec>(std::move(body), *opts.stack_pool);
  return std::make_unique<FiberExec>(std::move(body), opts.fiber_stack_bytes);
}

}  // namespace mm::runtime
