// Stackful symmetric-transfer fiber: the userspace context switch that runs
// every simulated process body (SimRuntime owns one fiber per process).
//
// Algorithm bodies are ordinary sequential C++ that calls Env::step() deep
// inside a real call stack, so a stackless C++20 coroutine cannot host them
// unchanged. A Fiber gives each process its own (small, guarded, lazily
// committed) stack and swaps the callee-saved register state directly, which
// makes a scheduler↔process handoff two userspace register swaps — no
// syscalls, no kernel context switch, no scheduler latency.
//
// On x86-64 the switch is a hand-rolled assembly routine (callee-saved GPRs
// only — no code run on these fibers alters the x87/SSE control words, so
// the switch deliberately skips them), and resume()/yield()
// are defined inline here so the scheduler's hot loop compiles down to a
// direct call of that routine. Elsewhere it falls back to POSIX ucontext,
// which is slower (swapcontext saves the signal mask via a syscall) but
// portable.
//
// Exceptions must never propagate out of the entry function (the simulator's
// process wrapper catches everything); control must never leave a fiber
// except through yield(), exit() or entry return. exit() is how a killed
// simulated process leaves once its forced unwind has run every destructor
// below the process wrapper (sim_runtime.cpp). AddressSanitizer builds annotate
// every switch with the __sanitizer_*_switch_fiber protocol, so fiber stacks
// are first-class citizens under ASan (and the inline fast path is disabled:
// switches go through the out-of-line annotated versions).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/assert.hpp"

// Sanitizer detection, needed here because it decides whether
// resume()/yield() may be inlined without the fiber-switch annotations.
#if defined(__SANITIZE_ADDRESS__)
#define MM_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MM_FIBER_ASAN 1
#endif
#endif

// ThreadSanitizer tracks a shadow state per thread; switching stacks behind
// its back makes it read the wrong shadow and report phantom races. TSan
// builds therefore register every fiber via the __tsan_*_fiber API and
// announce every transfer (see fiber.cpp) — which, like ASan, forces the
// out-of-line switch path.
#if defined(__SANITIZE_THREAD__)
#define MM_FIBER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MM_FIBER_TSAN 1
#endif
#endif

#if defined(__x86_64__) && !defined(MM_FIBER_ASAN) && !defined(MM_FIBER_TSAN)
#define MM_FIBER_INLINE_SWITCH 1
extern "C" void mm_fiber_switch(void** save_sp, void* target_sp);
#endif

namespace mm::runtime {

class Fiber {
 public:
  /// Usable bytes of a fiber's own stack (rounded up to the page size; a
  /// PROT_NONE guard page sits below it). Deliberately far smaller than a
  /// thread stack: algorithm bodies are shallow, and pages are committed
  /// only when touched.
  static constexpr std::size_t kDefaultStackBytes = 256 * 1024;

  /// Create a suspended fiber that will run `entry` on first resume(), on a
  /// guarded stack of its own. `entry` must not throw and must return, leave
  /// through exit(), or yield forever; destroying a fiber that is suspended
  /// mid-entry skips the destructors of everything live on its stack, so
  /// owners drain fibers to completion first. With a FiberStackRecycler
  /// open on this thread, the stack comes from (and returns to) its cache
  /// instead of a fresh mapping.
  explicit Fiber(std::function<void()> entry);

  /// Run on caller-provided stack memory [stack_lo, stack_lo + stack_bytes)
  /// instead of a private guarded mapping — the million-fiber form, paired
  /// with FiberStackPool. No guard page: an overflow corrupts the
  /// neighbouring stack instead of faulting. The memory must outlive the
  /// fiber; the fiber never frees it.
  Fiber(std::function<void()> entry, void* stack_lo, std::size_t stack_bytes);

  ~Fiber();
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Transfer control into the fiber. Returns when the fiber calls yield()
  /// or its entry function returns. Must not be called re-entrantly or after
  /// done().
#if defined(MM_FIBER_INLINE_SWITCH)
  // The inline-switch build trades the state-machine asserts (and the
  // running_ bookkeeping they need) for a handoff that is just the register
  // swap — this pair is the floor under every simulator step, so each saved
  // load/store counts. The ucontext/sanitizer build below keeps the checks.
  void resume() {
    started_ = true;
    mm_fiber_switch(&caller_sp_, sp_);
  }
#else
  void resume();
#endif

  /// Transfer control back to the most recent resumer. Only callable from
  /// inside the fiber.
#if defined(MM_FIBER_INLINE_SWITCH)
  void yield() { mm_fiber_switch(&sp_, caller_sp_); }
#else
  void yield();
#endif

  /// Leave the fiber for good: mark it done and switch back to the most
  /// recent resumer, whose resume() returns. Only callable from inside the
  /// fiber. Frames still on the fiber's stack are abandoned, not unwound, so
  /// the caller unwinds whatever owns resources first.
  void exit();

  /// True once the entry function has returned or exit() ran; resume() is
  /// then forbidden.
  [[nodiscard]] bool done() const noexcept { return done_; }
  /// True once the fiber has been resumed at least once.
  [[nodiscard]] bool started() const noexcept { return started_; }

  /// Implementation hook: the C++ side of the assembly trampoline. Public
  /// only because the extern "C" thunk must reach it; never call directly.
  static void run_entry(Fiber* self);

 private:
#if !defined(__x86_64__)
  static void ucontext_trampoline(unsigned hi, unsigned lo);
#endif

  /// Shared tail of both constructors: seed the switch frame / ucontext on
  /// the (already chosen) stack.
  void init_context();

  std::function<void()> entry_;
  void* stack_map_ = nullptr;   ///< mmap base (guard page at the low end); null for external stacks
  void* stack_lo_ = nullptr;    ///< lowest usable stack address
  std::size_t stack_bytes_ = 0; ///< usable stack size
  bool started_ = false;
  bool running_ = false;
  bool done_ = false;

  // Saved machine contexts. On x86-64 a context is just a stack pointer (the
  // callee-saved registers live on the owning stack); the ucontext fallback
  // keeps full ucontext_t blobs out-of-line to spare the common-case header.
  void* sp_ = nullptr;        ///< fiber's stack pointer while suspended
  void* caller_sp_ = nullptr; ///< resumer's stack pointer while fiber runs
#if !defined(__x86_64__)
  void* uctx_ = nullptr;        ///< ucontext_t of the fiber
  void* caller_uctx_ = nullptr; ///< ucontext_t of the resumer
#endif

  // AddressSanitizer fake-stack bookkeeping (unused members cost nothing in
  // plain builds and keep the layout identical across configurations).
  void* caller_fake_stack_ = nullptr;       ///< saved by resume()
  void* fiber_fake_stack_ = nullptr;        ///< saved by yield()
  const void* caller_stack_bottom_ = nullptr;
  std::size_t caller_stack_size_ = 0;

  // ThreadSanitizer fiber identities (TSan builds only; see fiber.cpp).
  void* tsan_fiber_ = nullptr;   ///< this fiber's __tsan_create_fiber handle
  void* tsan_caller_ = nullptr;  ///< the resumer's identity, saved by resume()
};

/// Bulk stack storage for dense fiber populations (n ≥ 10^5).
//
// One private guarded mapping per fiber costs two VMAs (guard + stack),
// and the kernel caps a process at vm.max_map_count mappings (~65k by
// default) — a hard wall far below a million fibers. The pool instead
// carves guardless kStackBytes stacks out of large MAP_NORESERVE chunks, so
// a million stacks need only ~2k mappings and commit physical pages lazily
// as each fiber first touches its stack. The trade: a smaller stack and no
// overflow fault, so only shallow bodies belong here. A stack is handed out
// once and never reused: the pool lives exactly as long as its runtime,
// whose fibers die with it, and its destructor unmaps every chunk.
//
// Not thread-safe; one pool per owning runtime. The pool must outlive every
// fiber whose stack it provided.
class FiberStackPool {
 public:
  /// Usable bytes of every pooled stack.
  static constexpr std::size_t kStackBytes = 32 * 1024;

  FiberStackPool() = default;
  ~FiberStackPool();
  FiberStackPool(const FiberStackPool&) = delete;
  FiberStackPool& operator=(const FiberStackPool&) = delete;

  /// Lowest address of a fresh stack of kStackBytes.
  [[nodiscard]] void* acquire();

 private:
  static constexpr std::size_t kStacksPerChunk = 512;

  std::size_t next_in_chunk_ = kStacksPerChunk;  ///< slots handed out of the newest chunk
  std::vector<void*> chunks_;
};

/// Scoped per-thread recycler of guarded default-size fiber stacks, and of
/// the storage of the objects built and destroyed around them.
//
// A loop that builds and tears down a SimRuntime per iteration (the model
// checkers' replays) otherwise pays an mmap + mprotect + munmap per process
// per iteration, and that kernel work dominates short runs. While a recycler
// is open on a thread, a Fiber constructed there with a stack of its own
// takes a cached guard+stack mapping instead of mapping a fresh one, and
// such a Fiber destroyed there hands its mapping back instead of unmapping
// it. Every guarded stack has the one size, kDefaultStackBytes, so any
// cached mapping fits any such fiber. The guard page belongs to the cached
// mapping and is never unprotected, so an overflow still faults. Closing the
// scope unmaps the cache; a fiber still alive then unmaps its own mapping
// when it dies. Caller-provided stacks (FiberStackPool) are unaffected.
//
// The cache grows to the peak number of guarded fibers alive at once on the
// thread and keeps their touched pages committed until the scope closes. A
// recycler opened while another is open on the same thread joins it: the
// outer one owns the cache.
//
// The same scope parks heap storage: an object that owns containers (a
// SimRuntime's per-process arrays, the DPOR walker's scratch) hands them,
// emptied but with their capacity, to park() when it is destroyed, and the
// next one of its type built on the thread adopts them through take(), so a
// replay loop stops allocating once every container has reached its
// high-water size. Parked storage is freed when the scope closes.
class FiberStackRecycler {
 public:
  FiberStackRecycler();
  ~FiberStackRecycler();
  FiberStackRecycler(const FiberStackRecycler&) = delete;
  FiberStackRecycler& operator=(const FiberStackRecycler&) = delete;

  /// True while a recycler is open on this thread.
  [[nodiscard]] static bool active() noexcept;

  /// Hand `storage` to the recycler open on this thread, for the next
  /// take<T>() there. With none open (or no room to record it) `storage` is
  /// left as it was, for its owner to free.
  template <class T>
  static void park(std::unique_ptr<T>& storage) noexcept {
    if (storage != nullptr &&
        park_erased(Parked{&kType<T>, storage.get(),
                           [](void* p) noexcept { delete static_cast<T*>(p); }}))
      (void)storage.release();
  }

  /// The storage of type T parked last on this thread's open recycler, or
  /// null when there is none.
  template <class T>
  [[nodiscard]] static std::unique_ptr<T> take() noexcept {
    return std::unique_ptr<T>(static_cast<T*>(take_erased(&kType<T>)));
  }

 private:
  friend class Fiber;

  struct Parked {
    const void* type;  ///< &kType<T>: one address per parked type
    void* object;
    void (*destroy)(void*) noexcept;
  };
  template <class T>
  static constexpr char kType = 0;

  static bool park_erased(const Parked& p) noexcept;
  static void* take_erased(const void* type) noexcept;

  std::vector<void*> cache_;     ///< idle mappings (guard page at the low end)
  std::vector<Parked> parked_;   ///< oldest first
  bool owner_;                   ///< false when joining an outer recycler
};

/// Guarded stack mappings the calling thread has created (mmap) and
/// destroyed (munmap) — monotone per-thread counters, the test hook that
/// shows a FiberStackRecycler reusing stacks.
struct FiberStackCounts {
  std::uint64_t mapped = 0;
  std::uint64_t unmapped = 0;
};
[[nodiscard]] FiberStackCounts fiber_stack_counts() noexcept;

}  // namespace mm::runtime
