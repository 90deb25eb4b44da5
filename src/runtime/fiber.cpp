#include "runtime/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>

#include "common/assert.hpp"

#if !defined(__x86_64__)
#include <ucontext.h>
#endif

// -- AddressSanitizer fiber-switch protocol ---------------------------------
// ASan models each stack with a shadow region and (optionally) a fake stack
// for use-after-return detection. Switching stacks behind its back produces
// false positives, so every switch is bracketed with start/finish calls: the
// context switching *away* announces the destination stack, and the context
// switching *in* finalises with the fake-stack handle it saved when it last
// left. A null handle on the final switch out of a dying fiber tells ASan to
// free that fiber's fake stack. (MM_FIBER_ASAN is defined in fiber.hpp,
// where it also disables the inline switch fast path.)
#if defined(MM_FIBER_ASAN)
extern "C" {
void __sanitizer_start_switch_fiber(void** fake_stack_save, const void* bottom,
                                    std::size_t size);
void __sanitizer_finish_switch_fiber(void* fake_stack_save, const void** bottom_old,
                                     std::size_t* size_old);
void __asan_unpoison_memory_region(const volatile void* addr, std::size_t size);
}
#endif

// -- ThreadSanitizer fiber protocol -----------------------------------------
// TSan keeps per-thread shadow state (clocks, shadow call stack). A userspace
// stack switch it cannot see leaves it attributing the fiber's accesses to
// the resumer's state — phantom races and corrupted shadow stacks. Each Fiber
// therefore owns a __tsan_create_fiber identity, and every transfer calls
// __tsan_switch_to_fiber immediately before the real switch. Flag 0 makes
// the switch itself a synchronization point, matching the semantics of a
// same-thread handoff.
#if defined(MM_FIBER_TSAN)
extern "C" {
void* __tsan_get_current_fiber();
void* __tsan_create_fiber(unsigned flags);
void __tsan_destroy_fiber(void* fiber);
void __tsan_switch_to_fiber(void* fiber, unsigned flags);
}
#endif

namespace mm::runtime {
namespace {

std::size_t page_size() {
  static const std::size_t page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return page;
}

std::size_t round_up(std::size_t v, std::size_t align) {
  return (v + align - 1) / align * align;
}

/// The FiberStackRecycler open on this thread, or null.
thread_local FiberStackRecycler* tl_recycler = nullptr;
thread_local FiberStackCounts tl_stack_counts;

/// Usable bytes of a guarded stack: kDefaultStackBytes, page-rounded.
std::size_t guarded_stack_bytes() {
  return round_up(Fiber::kDefaultStackBytes, page_size());
}

/// A guarded stack's whole mapping: the guard page and the stack above it.
std::size_t guarded_map_bytes() { return guarded_stack_bytes() + page_size(); }

void* map_guarded_stack() {
  void* map = ::mmap(nullptr, guarded_map_bytes(), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  MM_ASSERT_MSG(map != MAP_FAILED, "fiber stack mmap failed");
  // Guard page at the low end: stack overflow faults instead of corrupting
  // the neighbouring fiber's stack.
  MM_ASSERT(::mprotect(map, page_size(), PROT_NONE) == 0);
  ++tl_stack_counts.mapped;
  return map;
}

void unmap_guarded_stack(void* map) {
  ::munmap(map, guarded_map_bytes());
  ++tl_stack_counts.unmapped;
}

/// Make a dead fiber's stack plain writable memory again for ASan before it
/// is reused or unmapped. Its last frames never return (run_entry, and on a
/// kill the unwinder's frames below exit()), so they can leave redzones
/// poisoned, and the next user of the memory would trip on them.
void unpoison_stack([[maybe_unused]] void* lo, [[maybe_unused]] std::size_t bytes) {
#if defined(MM_FIBER_ASAN)
  __asan_unpoison_memory_region(lo, bytes);
#endif
}

}  // namespace

#if defined(__x86_64__)

// ---------------------------------------------------------------------------
// x86-64 fast path: save/restore the System V callee-saved register set.
//
// mm_fiber_switch(save_sp, target_sp) pushes rbp/rbx/r12–r15 onto the
// current stack, parks the resulting stack pointer in *save_sp, adopts
// target_sp, and unwinds the mirror-image frame there. A brand-new fiber's
// stack is pre-seeded (see init_frame) with a frame whose return address is
// mm_fiber_trampoline, which forwards the Fiber* parked in r12 to the C++
// entry thunk parked in rbx.
//
// Deliberately NOT saved: the x87 control word and MXCSR. Saving them is
// what a general-purpose fiber library does (a fiber could change rounding
// or exception masks), but no code that ever runs on these fibers touches
// FP control state, so both sides of every switch agree on the power-on
// defaults and the two serializing fldcw/ldmxcsr per handoff would be pure
// overhead on the simulator's hottest path.
// ---------------------------------------------------------------------------

extern "C" {
void mm_fiber_switch(void** save_sp, void* target_sp);
void mm_fiber_trampoline();
void mm_fiber_entry_thunk(void* self);
}

__asm__(
    ".text\n"
    ".align 16\n"
    ".globl mm_fiber_switch\n"
    ".type mm_fiber_switch, @function\n"
    "mm_fiber_switch:\n"
    "  .cfi_startproc\n"
    "  endbr64\n"
    "  pushq %rbp\n"
    "  pushq %rbx\n"
    "  pushq %r12\n"
    "  pushq %r13\n"
    "  pushq %r14\n"
    "  pushq %r15\n"
    "  movq %rsp, (%rdi)\n"
    "  movq %rsi, %rsp\n"
    "  popq %r15\n"
    "  popq %r14\n"
    "  popq %r13\n"
    "  popq %r12\n"
    "  popq %rbx\n"
    "  popq %rbp\n"
    "  retq\n"
    "  .cfi_endproc\n"
    ".size mm_fiber_switch, .-mm_fiber_switch\n"
    ".align 16\n"
    ".globl mm_fiber_trampoline\n"
    ".type mm_fiber_trampoline, @function\n"
    "mm_fiber_trampoline:\n"
    "  .cfi_startproc\n"
    "  .cfi_undefined rip\n"  // stop unwinders at the fiber's stack root
    "  movq %r12, %rdi\n"
    "  callq *%rbx\n"
    "  ud2\n"  // the entry thunk never returns
    "  .cfi_endproc\n"
    ".size mm_fiber_trampoline, .-mm_fiber_trampoline\n"
    ".previous\n");

extern "C" void mm_fiber_entry_thunk(void* self) {
  Fiber::run_entry(static_cast<Fiber*>(self));
}

namespace {

/// Seed a fresh stack with the frame mm_fiber_switch expects to restore.
/// Layout (ascending from the returned sp): r15 r14 r13 r12 rbx rbp ret —
/// with r12 = the Fiber* and rbx = the entry thunk, consumed by
/// mm_fiber_trampoline. Alignment: `top` is 16-aligned and the frame is 48
/// bytes of pops + 8 of ret seeded at top-72 (≡ 8 mod 16), so after the six
/// pops and the ret the trampoline runs with rsp = top-16, 16-aligned
/// exactly as the ABI requires at its call site.
void* init_frame(void* stack_lo, std::size_t stack_bytes, Fiber* self) {
  std::uintptr_t top = reinterpret_cast<std::uintptr_t>(stack_lo) + stack_bytes;
  top &= ~static_cast<std::uintptr_t>(15);
  auto* frame = reinterpret_cast<std::uint64_t*>(top - 72);
  frame[0] = 0;  // r15
  frame[1] = 0;  // r14
  frame[2] = 0;  // r13
  frame[3] = reinterpret_cast<std::uint64_t>(self);                  // r12
  frame[4] = reinterpret_cast<std::uint64_t>(&mm_fiber_entry_thunk); // rbx
  frame[5] = 0;                                                      // rbp
  frame[6] = reinterpret_cast<std::uint64_t>(&mm_fiber_trampoline);  // ret
  return frame;
}

}  // namespace

#endif  // __x86_64__

void Fiber::init_context() {
#if defined(MM_FIBER_TSAN)
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
#if defined(__x86_64__)
  sp_ = init_frame(stack_lo_, stack_bytes_, this);
#else
  auto* ctx = new ucontext_t;
  auto* caller = new ucontext_t;
  uctx_ = ctx;
  caller_uctx_ = caller;
  MM_ASSERT(::getcontext(ctx) == 0);
  ctx->uc_stack.ss_sp = stack_lo_;
  ctx->uc_stack.ss_size = stack_bytes_;
  ctx->uc_link = nullptr;
  const auto self = reinterpret_cast<std::uintptr_t>(this);
  ::makecontext(ctx, reinterpret_cast<void (*)()>(&Fiber::ucontext_trampoline), 2,
                static_cast<unsigned>(self >> 32),
                static_cast<unsigned>(self & 0xffffffffu));
#endif
}

Fiber::Fiber(std::function<void()> entry)
    : entry_(std::move(entry)), stack_bytes_(guarded_stack_bytes()) {
  MM_ASSERT_MSG(entry_ != nullptr, "fiber needs an entry function");
  FiberStackRecycler* const recycler = tl_recycler;
  if (recycler != nullptr && !recycler->cache_.empty()) {
    stack_map_ = recycler->cache_.back();
    recycler->cache_.pop_back();
  } else {
    stack_map_ = map_guarded_stack();
  }
  stack_lo_ = static_cast<char*>(stack_map_) + page_size();
  init_context();
}

Fiber::Fiber(std::function<void()> entry, void* stack_lo, std::size_t stack_bytes)
    : entry_(std::move(entry)), stack_lo_(stack_lo), stack_bytes_(stack_bytes) {
  MM_ASSERT_MSG(entry_ != nullptr, "fiber needs an entry function");
  MM_ASSERT_MSG(stack_lo != nullptr && stack_bytes >= 4096,
                "external fiber stack must be at least a page");
  init_context();
}

Fiber::~Fiber() {
  // A suspended-but-unfinished fiber cannot be unwound from outside; the
  // owner (SimRuntime::shutdown) must kill-and-drain first. Enforce it: the
  // alternative is silently skipped destructors on the fiber stack.
  MM_ASSERT_MSG(done_ || !started_, "fiber destroyed while suspended mid-entry");
#if defined(MM_FIBER_TSAN)
  if (tsan_fiber_ != nullptr) __tsan_destroy_fiber(tsan_fiber_);
#endif
#if !defined(__x86_64__)
  delete static_cast<ucontext_t*>(uctx_);
  delete static_cast<ucontext_t*>(caller_uctx_);
#endif
  if (stack_map_ != nullptr) {
    unpoison_stack(stack_lo_, stack_bytes_);
    FiberStackRecycler* const recycler = tl_recycler;
    if (recycler != nullptr) {
      recycler->cache_.push_back(stack_map_);
    } else {
      unmap_guarded_stack(stack_map_);
    }
  }
}

void Fiber::run_entry(Fiber* self) {
#if defined(MM_FIBER_ASAN)
  // First entry: no fake stack saved yet (null), and learn the resumer's
  // stack bounds for the switches back.
  __sanitizer_finish_switch_fiber(nullptr, &self->caller_stack_bottom_,
                                  &self->caller_stack_size_);
#endif
  try {
    self->entry_();
  } catch (...) {
    MM_ASSERT_MSG(false, "exception escaped a fiber entry function");
  }
  self->exit();
  // Unreachable (resume() asserts !done_), but must stay a *returning* path:
  // if every path aborted, GCC would infer this function noreturn and plant
  // __asan_handle_no_return in the thunk, which runs on the fiber stack —
  // memory ASan's thread bookkeeping doesn't own — and kills the process.
}

void Fiber::exit() {
  done_ = true;
#if defined(MM_FIBER_ASAN)
  // Final switch out: null handle releases this fiber's fake stack.
  __sanitizer_start_switch_fiber(nullptr, caller_stack_bottom_, caller_stack_size_);
#endif
#if defined(MM_FIBER_TSAN)
  __tsan_switch_to_fiber(tsan_caller_, 0);
#endif
#if defined(__x86_64__)
  mm_fiber_switch(&sp_, caller_sp_);
#else
  ::swapcontext(static_cast<ucontext_t*>(uctx_), static_cast<ucontext_t*>(caller_uctx_));
#endif
  // Unreachable, and a returning path for the reason run_entry gives.
}

#if !defined(__x86_64__)
void Fiber::ucontext_trampoline(unsigned hi, unsigned lo) {
  const std::uintptr_t bits =
      (static_cast<std::uintptr_t>(hi) << 32) | static_cast<std::uintptr_t>(lo);
  run_entry(reinterpret_cast<Fiber*>(bits));
}
#endif

#if !defined(MM_FIBER_INLINE_SWITCH)
// Out-of-line switches: the ucontext fallback, and ASan builds (which must
// run the fiber-switch annotations around every transfer).

void Fiber::resume() {
  MM_ASSERT_MSG(!done_, "resume on a finished fiber");
  MM_ASSERT_MSG(!running_, "re-entrant fiber resume");
  started_ = true;
  running_ = true;
#if defined(MM_FIBER_ASAN)
  __sanitizer_start_switch_fiber(&caller_fake_stack_, stack_lo_, stack_bytes_);
#endif
#if defined(MM_FIBER_TSAN)
  // The resumer's identity can differ between resumes (worker-pool threads,
  // nested runtimes), so capture it fresh every time.
  tsan_caller_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
#if defined(__x86_64__)
  mm_fiber_switch(&caller_sp_, sp_);
#else
  ::swapcontext(static_cast<ucontext_t*>(caller_uctx_), static_cast<ucontext_t*>(uctx_));
#endif
#if defined(MM_FIBER_ASAN)
  __sanitizer_finish_switch_fiber(caller_fake_stack_, nullptr, nullptr);
#endif
  running_ = false;
}

void Fiber::yield() {
  MM_ASSERT_MSG(running_, "yield outside a running fiber");
#if defined(MM_FIBER_ASAN)
  __sanitizer_start_switch_fiber(&fiber_fake_stack_, caller_stack_bottom_,
                                 caller_stack_size_);
#endif
#if defined(MM_FIBER_TSAN)
  __tsan_switch_to_fiber(tsan_caller_, 0);
#endif
#if defined(__x86_64__)
  mm_fiber_switch(&sp_, caller_sp_);
#else
  ::swapcontext(static_cast<ucontext_t*>(uctx_), static_cast<ucontext_t*>(caller_uctx_));
#endif
#if defined(MM_FIBER_ASAN)
  // Re-learn the resumer's bounds every time: nested runtimes and the
  // parallel trial engine can resume the same fiber from different stacks.
  __sanitizer_finish_switch_fiber(fiber_fake_stack_, &caller_stack_bottom_,
                                  &caller_stack_size_);
#endif
}

#endif  // !MM_FIBER_INLINE_SWITCH

// ---------------------------------------------------------------------------
// FiberStackPool
// ---------------------------------------------------------------------------

FiberStackPool::~FiberStackPool() {
  for (void* chunk : chunks_) ::munmap(chunk, kStacksPerChunk * kStackBytes);
}

void* FiberStackPool::acquire() {
  if (next_in_chunk_ == kStacksPerChunk) {
    // MAP_NORESERVE: a million-stack run reserves address space in the tens
    // of GB but commits pages only as fibers touch them.
    void* chunk = ::mmap(nullptr, kStacksPerChunk * kStackBytes, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    MM_ASSERT_MSG(chunk != MAP_FAILED, "fiber stack pool chunk mmap failed");
    chunks_.push_back(chunk);
    next_in_chunk_ = 0;
  }
  void* lo = static_cast<char*>(chunks_.back()) + next_in_chunk_ * kStackBytes;
  ++next_in_chunk_;
  return lo;
}

// ---------------------------------------------------------------------------
// FiberStackRecycler
// ---------------------------------------------------------------------------

FiberStackRecycler::FiberStackRecycler() : owner_(tl_recycler == nullptr) {
  if (owner_) tl_recycler = this;
}

FiberStackRecycler::~FiberStackRecycler() {
  if (!owner_) return;
  MM_ASSERT_MSG(tl_recycler == this,
                "fiber stack recycler closed on another thread or out of scope order");
  tl_recycler = nullptr;
  for (auto it = parked_.rbegin(); it != parked_.rend(); ++it) it->destroy(it->object);
  for (void* map : cache_) unmap_guarded_stack(map);
}

bool FiberStackRecycler::active() noexcept { return tl_recycler != nullptr; }

bool FiberStackRecycler::park_erased(const Parked& p) noexcept {
  FiberStackRecycler* const recycler = tl_recycler;
  if (recycler == nullptr) return false;
  try {
    recycler->parked_.push_back(p);
  } catch (...) {  // out of memory: the owner frees the storage instead
    return false;
  }
  return true;
}

void* FiberStackRecycler::take_erased(const void* type) noexcept {
  FiberStackRecycler* const recycler = tl_recycler;
  if (recycler == nullptr) return nullptr;
  std::vector<Parked>& parked = recycler->parked_;
  for (std::size_t i = parked.size(); i-- > 0;) {
    if (parked[i].type != type) continue;
    void* const object = parked[i].object;
    parked.erase(parked.begin() + static_cast<std::ptrdiff_t>(i));
    return object;
  }
  return nullptr;
}

FiberStackCounts fiber_stack_counts() noexcept { return tl_stack_counts; }

}  // namespace mm::runtime
