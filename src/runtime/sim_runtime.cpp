#include "runtime/sim_runtime.hpp"

#include <cxxabi.h>

#include <algorithm>
#include <cstring>
#include <new>
#include <utility>

#include "common/assert.hpp"

#if defined(MM_FIBER_ASAN)
extern "C" void __asan_handle_no_return();
#endif

namespace mm::runtime {

namespace {

/// Fibonacci/Murmur-style 64-bit finalizer: the mixing primitive behind the
/// observation hashes and state_hash(). Not cryptographic — 128 bits of
/// state hash make accidental collisions negligible for exploration sizes.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

// Observation kind tags (domain-separate the rolling hash inputs).
constexpr std::uint64_t kObsRead = 0xA1;
constexpr std::uint64_t kObsCas = 0xA2;
constexpr std::uint64_t kObsCoin = 0xA3;
constexpr std::uint64_t kObsRand = 0xA4;
constexpr std::uint64_t kObsDrain = 0xA5;
constexpr std::uint64_t kObsMsg = 0xA6;
constexpr std::uint64_t kObsNow = 0xA7;
constexpr std::uint64_t kObsSlice = 0xA8;

constexpr std::uint64_t kObsSeed = 0x5851f42d4c957f2dULL;
constexpr std::uint64_t kSliceSigSeed = 0x2545f4914f6cdd1dULL;

/// Exception class of the kill unwind ("MMSIMKIL"): foreign to C++, so no
/// handler but catch (...) can match it.
constexpr _Unwind_Exception_Class kKillClass = 0x4d4d53494d4b494cULL;

/// The Itanium C++ ABI's per-thread exception bookkeeping
/// (__cxa_eh_globals: the caught-exception stack and the uncaught count),
/// which every fiber shares with the thread that runs it.
struct EhGlobals {
  void* caught_exceptions;
  unsigned int uncaught_exceptions;
};

EhGlobals load_eh_globals() {
  EhGlobals g;
  std::memcpy(&g, abi::__cxa_get_globals(), sizeof g);
  return g;
}

void store_eh_globals(const EhGlobals& g) { std::memcpy(abi::__cxa_get_globals(), &g, sizeof g); }

}  // namespace

// ---------------------------------------------------------------------------
// SimEnv — forwards to the runtime, tagged with the calling pid. The register
// calls take their auto-step yield here, before the backend reads the
// recording flags (see the class comment).
// ---------------------------------------------------------------------------

std::size_t SimEnv::n() const { return rt_->config().n(); }
void SimEnv::send(Pid to, Message m) { rt_->env_send(self_, to, std::move(m)); }
void SimEnv::drain_inbox(std::vector<Message>& out) { rt_->env_drain(self_, out); }
RegId SimEnv::reg(RegKey key) { return rt_->env_reg(self_, key); }
std::uint64_t SimEnv::read(RegId r) {
  if (rt_->auto_step_on_shm_) step();
  return rt_->env_read(self_, r);
}
void SimEnv::write(RegId r, std::uint64_t v) {
  if (rt_->auto_step_on_shm_) step();
  rt_->env_write(self_, r, v);
}
std::uint64_t SimEnv::cas(RegId r, std::uint64_t expected, std::uint64_t desired) {
  if (rt_->auto_step_on_shm_) step();
  return rt_->env_cas(self_, r, expected, desired);
}
bool SimEnv::coin() { return rt_->env_coin(self_); }
std::uint64_t SimEnv::rand_below(std::uint64_t bound) { return rt_->env_rand_below(self_, bound); }
void SimEnv::step() {
  fiber_->yield();
  if (*kill_flag_ != 0) [[unlikely]]
    unwind_killed();
}
Step SimEnv::now() const { return rt_->env_now(self_); }
bool SimEnv::stop_requested() const {
  return rt_->stop_requested_.load(std::memory_order_relaxed);
}

// The kill path. A throw would allocate the exception, search every frame
// for a handler, then unwind; a forced unwind only unwinds, running each
// frame's cleanups (and any catch (...), which sees abi::__forced_unwind).
// The stop function ends it at run_process's frame, so that frame's
// catch (...) never runs on the foreign exception (__cxa_begin_catch would
// terminate if the scheduler thread were itself inside a handler).
void SimEnv::unwind_killed() {
  kill_exc_ = _Unwind_Exception{};
  kill_exc_.exception_class = kKillClass;
  kill_exc_.exception_cleanup = nullptr;  // nothing to free: it lives in this SimEnv
  _Unwind_ForcedUnwind(&kill_exc_, &SimEnv::stop_at_wrapper, this);
  MM_ASSERT_MSG(false, "the kill unwind of a simulated process failed");
}

_Unwind_Reason_Code SimEnv::stop_at_wrapper(int, _Unwind_Action actions,
                                            _Unwind_Exception_Class, _Unwind_Exception*,
                                            _Unwind_Context* context, void* env) {
  SimEnv& self = *static_cast<SimEnv*>(env);
  // The unwinder calls this before each frame's personality routine, with
  // that frame's stack pointer at its pending call as the CFA. Every frame
  // from the kill point up to run_body lies at or below run_body's frame
  // address; the first above it is run_process, whose handler must not run.
  if (_Unwind_GetCFA(context) <= self.body_floor_) {
    MM_ASSERT_MSG((actions & _UA_END_OF_STACK) == 0,
                  "kill unwind reached the fiber root without meeting the process wrapper");
#if defined(MM_FIBER_ASAN)
    // Frames the unwind has passed are abandoned without their epilogues:
    // clear their redzones before this frame's cleanups call into that
    // memory. ASan's __cxa_throw interceptor does it once per throw; once
    // per kill, before the unwind, still left stale marks under the
    // destructors of later frames.
    __asan_handle_no_return();
#endif
    return _URC_NO_REASON;
  }
  self.rt_->proc_finished_[self.self_.index()] = 1;
  self.fiber_->exit();
  return _URC_FATAL_PHASE2_ERROR;  // unreachable: a finished fiber is never resumed
}

// ---------------------------------------------------------------------------
// Construction / teardown
// ---------------------------------------------------------------------------

SimRuntime::SimRuntime(SimConfig config)
    : config_(std::move(config)),
      sched_rng_(config_.seed * 0x9e3779b97f4a7c15ULL + 1),
      link_rng_(config_.seed * 0xc2b2ae3d27d4eb4fULL + 2),
      fault_rng_(config_.seed * 0xd6e8feb86659fd93ULL + 3) {
  config_.validate();
  if (std::unique_ptr<detail::SimStorage> parked = FiberStackRecycler::take<detail::SimStorage>()) {
    static_cast<detail::SimStorage&>(*this) = std::move(*parked);
    shell_ = std::move(parked);
  }
  // Every container is empty here (fresh or adopted); size each as a fresh
  // runtime's.
  const std::size_t n = config_.n();
  if (procs_.size() < n) procs_ = std::vector<Proc>(n);
  mem_failed_until_.assign(n, 0);
  pending_.resize(n);
  pending_head_.assign(n, kNever);
  metrics_.reset(n);
  reg_slots_.assign(kMinRegSlots, 0);
  Rng seeder{config_.seed ^ 0xa5a5a5a5a5a5a5a5ULL};
  proc_rng_.reserve(config_.n());
  for (std::size_t i = 0; i < config_.n(); ++i) proc_rng_.push_back(seeder.split());
  if (!config_.crash_at.empty()) {
    for (std::size_t i = 0; i < config_.crash_at.size(); ++i)
      if (config_.crash_at[i].has_value())
        crash_schedule_.emplace_back(*config_.crash_at[i], static_cast<std::uint32_t>(i));
    std::sort(crash_schedule_.begin(), crash_schedule_.end());
  }
  if (config_.explore_faults.has_value()) {
    const ExploreFaults& ef = *config_.explore_faults;
    ef_drop_base_ = ef.crashes.size();
    ef_part_base_ = ef_drop_base_ + (ef.drop_budget > 0 ? config_.n() : 0);
    ef_width_ = ef.width(config_.n());
    ef_drops_left_ = ef.drop_budget;
  }
}

SimRuntime::~SimRuntime() {
  shutdown();
  clear();  // the fibers go here, before stack_pool_
  if (!FiberStackRecycler::active()) return;
  if (shell_ == nullptr) shell_.reset(new (std::nothrow) detail::SimStorage);
  if (shell_ == nullptr) return;
  *shell_ = std::move(static_cast<detail::SimStorage&>(*this));
  FiberStackRecycler::park(shell_);
}

void detail::SimStorage::clear() noexcept {
  for (SimProc& pr : procs_) {
    pr.fiber.reset();
    pr.env.reset();
    pr.body = nullptr;
    pr.error = nullptr;
  }
  proc_state_.clear();
  proc_kill_.clear();
  proc_finished_.clear();
  fiber_.clear();
  runnable_.clear();
  policy_scratch_.clear();
  crash_schedule_.clear();
  ef_held_.clear();
  proc_rng_.clear();
  mem_failed_until_.clear();
  reg_slots_.clear();
  reg_values_.clear();
  reg_acl_.clear();
  reg_owner_.clear();
  reg_keys_.clear();
  for (std::vector<InFlight>& pend : pending_) pend.clear();
  pending_head_.clear();
  scratch_.footprint.clear(Pid::none());
  scratch_.sig = 0;
  scratch_.got_messages = false;
  obs_hash_.clear();
  idle_sig_ring_.clear();
  idle_post_ring_.clear();
  idle_streak_.clear();
  hash_regs_.clear();
  hash_order_.clear();
  metrics_.reset(0);
}

void SimRuntime::add_process(std::function<void(Env&)> body) {
  MM_ASSERT_MSG(!started_, "cannot add processes after start");
  MM_ASSERT_MSG(bodies_ < config_.n(), "more bodies than config.n()");
  procs_[bodies_++].body = std::move(body);
}

void SimRuntime::start() {
  if (started_) return;
  MM_ASSERT_MSG(bodies_ == config_.n(), "add exactly n process bodies before start");
  started_ = true;
  const std::size_t n = bodies_;
  proc_state_.assign(n, static_cast<std::uint8_t>(ProcState::kParked));
  proc_kill_.assign(n, 0);
  proc_finished_.assign(n, 0);
  fiber_.assign(n, nullptr);
  runnable_.reserve(n);
  // Pre-size the pending queues past any capacity high-water mark a
  // realistic run can reach (a scheduler starvation stretch of ~32·n steps
  // has probability (1-1/n)^(32n) ≈ e⁻³² per step), so queue growth cannot
  // leak a late heap allocation into the steady state the allocation
  // counters pin to zero. Population-scale runs skip this: 32 slots per
  // destination is real memory at n = 10⁶, and those runs do not assert the
  // zero-alloc invariant.
  if (n <= 1024) {
    for (auto& pend : pending_) pend.reserve(32);
  }
  if (config_.pooled_fiber_stacks) stack_pool_ = std::make_unique<FiberStackPool>();
  for (std::size_t i = 0; i < n; ++i) {
    Proc& pr = procs_[i];
    SimEnv& env = pr.env.emplace(*this, Pid{static_cast<std::uint32_t>(i)});
    runnable_.push_back(i);
    const auto entry = [this, i] { run_process(i); };
    Fiber& fiber = stack_pool_ != nullptr
                       ? pr.fiber.emplace(entry, stack_pool_->acquire(), FiberStackPool::kStackBytes)
                       : pr.fiber.emplace(entry);
    fiber_[i] = &fiber;
    env.fiber_ = &fiber;
    env.kill_flag_ = proc_kill_.data() + i;
  }
}

void SimRuntime::run_process(std::size_t i) {
  if (proc_kill_[i] == 0) {
    try {
      run_body(i);
    } catch (...) {
      procs_[i].error = std::current_exception();
    }
  }
  proc_finished_[i] = 1;
}

void SimRuntime::run_body(std::size_t i) {
  Proc& pr = procs_[i];
  // The frame address, not a local's: ASan's fake stack can move locals off
  // the real stack the unwinder walks.
  pr.env->body_floor_ = reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
  pr.body(*pr.env);
  // Keeps the call out of tail position: a sibling call would pop this
  // frame and leave the floor above the body's frames.
  __asm__ volatile("");
}

void SimRuntime::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  if (!started_) return;
  // The kills unwind on this thread, and a body's catch (...) sees one: run
  // them with an empty caught-exception stack, so such a handler cannot make
  // __cxa_begin_catch terminate when shutdown() runs inside a handler, and
  // restore the thread's bookkeeping after them (a handler that rethrows the
  // kill counts an uncaught exception that no handler ever takes back).
  const EhGlobals saved = load_eh_globals();
  store_eh_globals({nullptr, saved.uncaught_exceptions});
  for (std::size_t i = 0; i < bodies_; ++i) {
    proc_kill_[i] = 1;
    // A process that never ran has nothing to unwind.
    if (!fiber_[i]->started()) {
      proc_finished_[i] = 1;
      continue;
    }
    // Each resume re-enters the body, whose pending yield unwinds it
    // (SimEnv::step). Looping tolerates a body that swallows the kill: it
    // is killed again at its next yield.
    while (proc_finished_[i] == 0) resume_proc(i);
  }
  store_eh_globals(saved);
}

// ---------------------------------------------------------------------------
// Scheduling
// ---------------------------------------------------------------------------

void SimRuntime::remove_runnable(std::size_t idx) {
  const auto it = std::lower_bound(runnable_.begin(), runnable_.end(), idx);
  if (it != runnable_.end() && *it == idx) runnable_.erase(it);
}

void SimRuntime::apply_crash_plan() {
  while (crash_next_ < crash_schedule_.size() &&
         crash_schedule_[crash_next_].first <= global_step_) {
    const std::size_t i = crash_schedule_[crash_next_].second;
    ++crash_next_;
    if (runnable(i)) {
      proc_state_[i] = static_cast<std::uint8_t>(ProcState::kCrashed);
      remove_runnable(i);
      trace_event(Pid{static_cast<std::uint32_t>(i)}, TraceEvent::Kind::kCrash);
    }
  }
}

void SimRuntime::crash_now(Pid p) {
  MM_ASSERT(p.index() < proc_state_.size());
  if (runnable(p.index())) {
    proc_state_[p.index()] = static_cast<std::uint8_t>(ProcState::kCrashed);
    remove_runnable(p.index());
    trace_event(p, TraceEvent::Kind::kCrash);
  }
}

// ---------------------------------------------------------------------------
// Explorer fault plan: faults as pseudo-processes (SimConfig::explore_faults)
// ---------------------------------------------------------------------------

void SimRuntime::ef_append_enabled(std::vector<Pid>& out) {
  const ExploreFaults& ef = *config_.explore_faults;
  const auto base = static_cast<std::uint32_t>(config_.n());
  for (std::size_t i = 0; i < ef.crashes.size(); ++i)
    if (runnable(ef.crashes[i].index()))
      out.push_back(Pid{base + static_cast<std::uint32_t>(i)});
  if (ef_drops_left_ > 0) {
    for (std::size_t d = 0; d < config_.n(); ++d)
      if (!pending_[d].empty())
        out.push_back(Pid{base + static_cast<std::uint32_t>(ef_drop_base_ + d)});
  }
  if (ef.partition_mask.has_value()) {
    if (!ef_on_fired_)
      out.push_back(Pid{base + static_cast<std::uint32_t>(ef_part_base_)});
    else if (!ef_off_fired_)
      out.push_back(Pid{base + static_cast<std::uint32_t>(ef_part_base_ + 1)});
  }
}

void SimRuntime::fault_footprint(std::size_t idx, StepFootprint& out) const {
  MM_ASSERT(idx < ef_width_);
  const ExploreFaults& ef = *config_.explore_faults;
  out.clear(Pid{static_cast<std::uint32_t>(config_.n() + idx)});
  if (idx < ef_drop_base_) {
    out.crash_mask = 1ULL << ef.crashes[idx].index();
  } else if (idx < ef_part_base_) {
    out.drop_mask = 1ULL << (idx - ef_drop_base_);
  } else {
    out.part_toggle = true;
    out.part_mask = *ef.partition_mask;
  }
}

void SimRuntime::ef_fire(std::size_t idx) {
  const ExploreFaults& ef = *config_.explore_faults;
  StepFootprint* fp = nullptr;
  if (record_footprints_) [[unlikely]] {
    fp = &scratch_.footprint;
    fault_footprint(idx, *fp);
  }
  if (idx < ef_drop_base_) {  // crash event
    const std::size_t target = ef.crashes[idx].index();
    MM_ASSERT_MSG(runnable(target), "crash event fired on a non-parked process");
    proc_state_[target] = static_cast<std::uint8_t>(ProcState::kCrashed);
    remove_runnable(target);
    trace_event(Pid{static_cast<std::uint32_t>(target)}, TraceEvent::Kind::kCrash);
    return;
  }
  if (idx < ef_part_base_) {  // drop event: destroy the head of d's queue
    const std::size_t d = idx - ef_drop_base_;
    auto& pend = pending_[d];
    MM_ASSERT_MSG(ef_drops_left_ > 0 && !pend.empty(),
                  "drop event fired with no budget or no in-flight message");
    --ef_drops_left_;
    std::pop_heap(pend.begin(), pend.end(), &SimRuntime::delivers_later);
    const Message dropped = std::move(pend.back().msg);
    pend.pop_back();
    pending_head_[d] = pend.empty() ? kNever : pend.front().deliver_at;
    ++metrics_.msgs_dropped;
    trace_event(dropped.from, TraceEvent::Kind::kDrop, d, dropped.kind);
    return;
  }
  // Partition toggles.
  if (idx == ef_part_base_) {
    MM_ASSERT_MSG(!ef_on_fired_, "partition-on toggle fired twice");
    ef_on_fired_ = true;
    ef_part_active_ = true;
    return;
  }
  MM_ASSERT_MSG(ef_on_fired_ && !ef_off_fired_, "partition-off toggle out of order");
  ef_off_fired_ = true;
  ef_part_active_ = false;
  // Re-inject the held messages with their original (deliver_at, seq)
  // stamps: the window added pure asynchrony, never a loss or a re-draw, so
  // the flush commutes with unrelated steps (nothing here reads the clock
  // or an RNG). The flush is recorded as sends so drains and drops at the
  // destinations order against this toggle through the channel rules.
  for (auto& [dest, inf] : ef_held_) {
    if (fp != nullptr) fp->add_send(Pid{dest});
    auto& pend = pending_[dest];
    pend.push_back(std::move(inf));
    std::push_heap(pend.begin(), pend.end(), &SimRuntime::delivers_later);
    pending_head_[dest] = pend.front().deliver_at;
  }
  ef_held_.clear();
}

// ---------------------------------------------------------------------------
// Dynamic fault actuators
// ---------------------------------------------------------------------------

void SimRuntime::fail_memory_now(Pid host, std::optional<Step> recover_at) {
  MM_ASSERT(host.index() < config_.n());
  MM_ASSERT_MSG(!recover_at.has_value() || *recover_at > global_step_,
                "memory recovery must lie in the future");
  mem_failed_until_[host.index()] = recover_at.value_or(kNever);
  mem_faults_armed_ = true;
  trace_event(host, TraceEvent::Kind::kMemFail, recover_at.value_or(0));
}

void SimRuntime::recover_memory_now(Pid host) {
  MM_ASSERT(host.index() < config_.n());
  Step& until = mem_failed_until_[host.index()];
  if (global_step_ < until) {
    until = global_step_;
    trace_event(host, TraceEvent::Kind::kMemRecover);
  }
}

void SimRuntime::set_partition_now(std::uint64_t side_a, Step until) {
  MM_ASSERT_MSG(config_.n() <= 64, "partition masks require n <= 64");
  config_.partition = Partition{side_a, global_step_, until};
}

void SimRuntime::clear_partition_now() { config_.partition.reset(); }

void SimRuntime::enable_trace(std::size_t capacity) {
  trace_capacity_ = capacity;
  trace_buf_.clear();
  trace_buf_.shrink_to_fit();
  trace_head_ = 0;
}

void SimRuntime::trace_event_slow(Pid pid, TraceEvent::Kind kind, std::uint64_t a,
                                  std::uint64_t b, std::uint64_t seq) {
  const TraceEvent e{global_step_, pid, kind, a, b, seq};
  if (trace_buf_.size() < trace_capacity_) {
    trace_buf_.push_back(e);
    return;
  }
  // Ring is full: overwrite the oldest slot. No per-event allocation or
  // shifting — a deque here would churn chunk allocations while rotating.
  trace_buf_[trace_head_] = e;
  trace_head_ = trace_head_ + 1 == trace_capacity_ ? 0 : trace_head_ + 1;
}

void SimRuntime::trace_fault(Pid context, std::uint64_t action, std::uint64_t rule) {
  trace_event(context, TraceEvent::Kind::kFault, action, rule);
}

std::vector<SimRuntime::TraceEvent> SimRuntime::trace() const {
  // trace_head_ is the oldest slot once the ring has wrapped; before that it
  // is 0 and the buffer is already chronological.
  const std::size_t size = trace_buf_.size();
  std::vector<TraceEvent> out;
  out.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    std::size_t j = trace_head_ + i;
    if (j >= size) j -= size;
    out.push_back(trace_buf_[j]);
  }
  return out;
}

std::string SimRuntime::dump_trace(std::size_t last_n) const {
  static constexpr const char* kNames[] = {"sched", "send ", "deliv", "drop ", "read ",
                                           "write", "cas  ", "crash", "mfail", "mrecv",
                                           "fault"};
  const std::vector<TraceEvent> events = trace();
  std::string out;
  const std::size_t start = events.size() > last_n ? events.size() - last_n : 0;
  Step prev = events.empty() ? 0 : events[start].step;
  char line[192];
  char detail[96];
  const auto u = [](std::uint64_t v) { return static_cast<unsigned long long>(v); };
  for (std::size_t i = start; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    // Decode the (a, b, seq) payload per kind so triage reads protocol
    // facts, not raw integers.
    switch (e.kind) {
      case TraceEvent::Kind::kSend:
      case TraceEvent::Kind::kDeliver:
        std::snprintf(detail, sizeof detail, "-> p%llu kind=%llu flow=%llu", u(e.a), u(e.b),
                      u(e.seq));
        break;
      case TraceEvent::Kind::kDrop:
        std::snprintf(detail, sizeof detail, "-> p%llu kind=%llu", u(e.a), u(e.b));
        break;
      case TraceEvent::Kind::kRegRead:
        std::snprintf(detail, sizeof detail, "r%llu == %llu", u(e.a), u(e.b));
        break;
      case TraceEvent::Kind::kRegWrite:
        std::snprintf(detail, sizeof detail, "r%llu := %llu", u(e.a), u(e.b));
        break;
      case TraceEvent::Kind::kRegCas:
        std::snprintf(detail, sizeof detail, "r%llu saw %llu", u(e.a), u(e.b));
        break;
      case TraceEvent::Kind::kMemFail:
        if (e.a == 0) {
          std::snprintf(detail, sizeof detail, "recover=never");
        } else {
          std::snprintf(detail, sizeof detail, "recover=%llu", u(e.a));
        }
        break;
      case TraceEvent::Kind::kFault:
        std::snprintf(detail, sizeof detail, "action=%llu rule=%llu", u(e.a), u(e.b));
        break;
      default:
        detail[0] = '\0';
        break;
    }
    // Sim-time delta since the previous retained event: stalls and bursts
    // show up as the +Δ column without cross-referencing absolute steps.
    std::snprintf(line, sizeof line, "%8llu +%-5llu %s %s %s\n", u(e.step), u(e.step - prev),
                  to_string(e.pid).c_str(), kNames[static_cast<std::size_t>(e.kind)], detail);
    prev = e.step;
    out += line;
  }
  return out;
}

void SimRuntime::set_observability(bool on) {
  if (on && obs_ == nullptr) obs_ = std::make_unique<ObsRecorder>();
  record_obs_ = on;
}

ObsReport SimRuntime::obs_report() const {
  return obs_ != nullptr ? build_obs_report(*obs_) : ObsReport{};
}

void SimRuntime::activate(std::size_t pick) {
  ++metrics_.steps_by_proc[pick];
  trace_event(Pid{static_cast<std::uint32_t>(pick)}, TraceEvent::Kind::kSchedule);
  if (record_footprints_) [[unlikely]]
    begin_slice(pick);
  resume_proc(pick);
  if (record_footprints_) [[unlikely]] {
    scratch_.footprint.finishes = proc_finished_[pick] != 0;
    end_slice(pick);
  }
  if (proc_finished_[pick] != 0) {
    proc_state_[pick] = static_cast<std::uint8_t>(ProcState::kFinished);
    remove_runnable(pick);
  }
  ++global_step_;
}

// ---------------------------------------------------------------------------
// Footprint / observation recording (model-checker hooks)
// ---------------------------------------------------------------------------

void SimRuntime::set_footprint_recording(bool on) {
  record_footprints_ = on;
  if (on && obs_hash_.empty()) {
    obs_hash_.assign(config_.n(), kObsSeed);
    idle_sig_ring_.assign(config_.n() * kIdleRing, 0);
    idle_post_ring_.assign(config_.n() * kIdleRing, 0);
    idle_streak_.assign(config_.n(), 0);
  }
}

void SimRuntime::obs_note(Pid self, std::uint64_t tag, std::uint64_t value,
                          std::uint64_t& sig) {
  const std::uint64_t v = mix64(tag ^ mix64(value));
  std::uint64_t& h = obs_hash_[self.index()];
  h = mix64(h ^ v);
  sig = mix64(sig ^ v);
}

void SimRuntime::begin_slice(std::size_t pick) {
  scratch_.footprint.clear(Pid{static_cast<std::uint32_t>(pick)});
  scratch_.sig = kSliceSigSeed;
  scratch_.got_messages = false;
}

void SimRuntime::end_slice(std::size_t pick) {
  const SliceScratch& sc = scratch_;
  // Effect-free: nothing another process (or the oracle) could ever see —
  // no writes, no sends, no randomness consumed, no clock read, and any
  // drain came back empty. Metrics counters still tick, which is why
  // step/read-count metrics are not merge-stable oracles (docs/RUNTIME.md).
  const bool effect_free = sc.footprint.writes.empty() && sc.footprint.send_to.empty() &&
                           !sc.footprint.drew_rand && !sc.footprint.observed_clock &&
                           !sc.got_messages;
  const std::uint64_t sig = sc.sig;
  std::uint64_t& h = obs_hash_[pick];
  if (!idle_collapse_ || !effect_free) {
    // Default: every slice advances the observation hash (slices folded
    // with their signature), so iteration counts distinguish states —
    // required for timer-driven loops like Ω's monitor. An effectful slice
    // also ends any effect-free streak.
    h = mix64(h ^ mix64(kObsSlice ^ mix64(sig)));
    if (idle_collapse_) idle_streak_[pick] = 0;
    return;
  }
  // Effect-free slice inside a streak. If the streak's signature stream is
  // periodic with period L (the last L signatures, current included, repeat
  // the L before them), one whole spin period has recurred: roll the
  // observation hash back to its value L slices ago, so states at the same
  // spin phase map to the same hash and the explorer's state cache
  // recognises the cycle. L = 1 is the classic identical-iteration spin;
  // L > 1 covers await loops whose one iteration spans several scheduler
  // slices (e.g. a remote-register read yields before the drain+step
  // slice). Only same-phase states are ever conflated, and only under the
  // documented spin-stateless contract (docs/RUNTIME.md).
  std::uint64_t* sigs = &idle_sig_ring_[pick * kIdleRing];
  std::uint64_t* posts = &idle_post_ring_[pick * kIdleRing];
  const std::uint32_t t = idle_streak_[pick];  // current slice's streak index
  std::size_t period = 0;
  for (std::size_t L = 1; L <= kIdleMaxPeriod; ++L) {
    if (t + 1 < 2 * L) break;  // need 2L slices, current included
    bool match = sig == sigs[(t - L) % kIdleRing];
    for (std::size_t i = 1; match && i < L; ++i)
      match = sigs[(t - i) % kIdleRing] == sigs[(t - L - i) % kIdleRing];
    if (match) {
      period = L;
      break;
    }
  }
  if (period != 0) {
    h = posts[(t - period) % kIdleRing];
  } else {
    h = mix64(h ^ mix64(kObsSlice ^ mix64(sig)));
  }
  sigs[t % kIdleRing] = sig;
  posts[t % kIdleRing] = h;
  idle_streak_[pick] = t + 1;
}

StateHash SimRuntime::state_hash() const {
  MM_ASSERT_MSG(record_footprints_, "state_hash requires footprint recording armed");
  std::uint64_t lo = 0x6a09e667f3bcc908ULL;
  std::uint64_t hi = 0xbb67ae8584caa73bULL;
  const auto fold = [&lo, &hi](std::uint64_t v) {
    lo = mix64(lo ^ v);
    hi = mix64(hi ^ (v * 0x9e3779b97f4a7c15ULL + 0x165667b19e3779f9ULL));
  };
  fold(config_.n());
  for (std::size_t i = 0; i < proc_state_.size(); ++i) {
    fold(static_cast<std::uint64_t>(proc_state_[i]));
    fold(obs_hash_[i]);
  }
  // Registers in key order, zero-valued entries skipped: a register holding
  // 0 is indistinguishable from one never materialised (env_reg creates
  // storage holding 0), so including them would split states by RegId
  // creation order — a difference no process can observe.
  hash_regs_.clear();
  for (std::size_t i = 0; i < reg_values_.size(); ++i)
    if (reg_values_[i] != 0) hash_regs_.emplace_back(reg_keys_[i].bits(), reg_values_[i]);
  std::sort(hash_regs_.begin(), hash_regs_.end());
  fold(hash_regs_.size());
  for (const auto& [k, v] : hash_regs_) {
    fold(k);
    fold(v);
  }
  // In-flight messages per destination in (deliver_at, seq) order — i.e.
  // exactly the order they will be drained in — with *relative* delivery
  // delays. Raw seq numbers and absolute steps differ across interleavings
  // that reach the same state, so neither enters the hash. (Nothing is ever
  // buffered between steps outside pending_: deliveries happen only inside
  // env_drain, which pops eligible messages straight into the caller.)
  //
  // With an explore_faults plan armed, messages held by the partition
  // window fold into the SAME per-destination sequence at their merge
  // position (stamps are preserved across the window), tagged held: the
  // future of the queue is its merged order plus which entries a drain can
  // currently see, and both must be part of the canonical state.
  std::vector<detail::HashFlight>& order = hash_order_;
  for (std::size_t d = 0; d < pending_.size(); ++d) {
    const auto& pend = pending_[d];
    order.clear();
    for (const InFlight& f : pend) order.push_back({&f, false});
    if (ef_width_ != 0) {
      for (const auto& [dest, f] : ef_held_)
        if (dest == d) order.push_back({&f, true});
    }
    fold(order.size());
    if (order.empty()) continue;
    std::sort(order.begin(), order.end(),
              [](const detail::HashFlight& a, const detail::HashFlight& b) {
                return a.f->deliver_at != b.f->deliver_at ? a.f->deliver_at < b.f->deliver_at
                                                          : a.f->seq < b.f->seq;
              });
    for (const detail::HashFlight& fl : order) {
      const InFlight* f = fl.f;
      fold(f->deliver_at > global_step_ ? f->deliver_at - global_step_ : 0);
      if (ef_width_ != 0) fold(fl.held ? 1 : 0);
      fold(f->msg.from.value());
      fold((static_cast<std::uint64_t>(f->msg.kind) << 32) ^ f->msg.round);
      fold(f->msg.value);
      fold(f->msg.aux);
      fold(f->msg.tuples.size());
      for (const RepTuple& t : f->msg.tuples) {
        fold(t.pid.value());
        fold(t.value);
      }
    }
  }
  // Explorer fault-plan scalars: the remaining drop budget and the toggle
  // lifecycle decide which pseudo-events are still enabled, so states that
  // differ there must not coincide. (Crash firings already show through
  // proc_state_.) Folded only when a plan is armed, so legacy hashes are
  // byte-identical.
  if (ef_width_ != 0) {
    fold(ef_drops_left_);
    fold((ef_on_fired_ ? 1ULL : 0ULL) | (ef_off_fired_ ? 2ULL : 0ULL));
  }
  return StateHash{lo, hi};
}

bool SimRuntime::step_once() {
  if (injector_ != nullptr) [[unlikely]]
    injector_->on_step(*this);
  apply_crash_plan();
  if (runnable_.empty()) return false;

  // Externally driven schedules (exhaustive exploration) bypass the
  // adversary entirely. With an explore_faults plan armed, the enabled
  // fault pseudo-pids follow the real runnable pids in the list; choosing
  // one fires the fault as a zero-time transition. (Pseudo events are only
  // offered while at least one real process is runnable — the empty check
  // above returns first — which keeps run loops free of zero-progress
  // tails; each pseudo event fires at most budget-many times, so a run
  // still terminates.)
  if (schedule_policy_) {
    policy_scratch_.clear();
    policy_scratch_.reserve(runnable_.size() + ef_width_);
    for (const std::size_t i : runnable_) policy_scratch_.push_back(Pid{static_cast<std::uint32_t>(i)});
    const std::size_t nreal = policy_scratch_.size();
    if (ef_width_ != 0) ef_append_enabled(policy_scratch_);
    const std::size_t choice = schedule_policy_(policy_scratch_);
    if (choice == kStopRun) return false;
    MM_ASSERT_MSG(choice < policy_scratch_.size(), "schedule policy choice out of range");
    if (choice < nreal) {
      activate(runnable_[choice]);
    } else {
      ef_fire(policy_scratch_[choice].index() - config_.n());
    }
    return true;
  }

  // Timeliness guarantee (§3): force-schedule the timely process before its
  // window closes; otherwise pick adversarially at random (weighted).
  std::size_t pick = runnable_.front();
  bool forced = false;
  ++steps_since_timely_;
  if (config_.timely.has_value()) {
    const std::size_t t = config_.timely->index();
    if (t < proc_state_.size() && runnable(t) && steps_since_timely_ >= config_.timely_bound) {
      pick = t;
      forced = true;
    }
  }
  if (!forced) {
    if (config_.sched_weight.empty()) {
      // Uniform weights: the prefix-sum walk collapses to an index lookup.
      // This consumes the same uniform01() draw and selects the same index
      // the walk would (total is exactly double(size); repeated `r -= 1.0`
      // is exact for r < 2^53, so the walk lands on floor(r)).
      const double r = sched_rng_.uniform01() * static_cast<double>(runnable_.size());
      std::size_t idx = static_cast<std::size_t>(r);
      if (idx >= runnable_.size()) idx = runnable_.size() - 1;
      pick = runnable_[idx];
    } else {
      double total = 0.0;
      for (const std::size_t i : runnable_) total += config_.sched_weight[i];
      if (total <= 0.0) {
        pick = runnable_[sched_rng_.below(runnable_.size())];
      } else {
        double r = sched_rng_.uniform01() * total;
        pick = runnable_.back();
        for (const std::size_t i : runnable_) {
          const double w = config_.sched_weight[i];
          if (r < w) {
            pick = i;
            break;
          }
          r -= w;
        }
      }
    }
  }
  if (config_.timely.has_value() && pick == config_.timely->index()) steps_since_timely_ = 0;

  activate(pick);
  return true;
}

Step SimRuntime::run_fast(Step k) {
  // The common-configuration inner loop. Per step it does exactly what
  // step_once does for this configuration — one crash-plan check, one
  // uniform01() draw, one handoff — with every disarmed hook (policy,
  // injector, timeliness, weights, tracing, recording) hoisted out of the
  // loop by fast_path_eligible(). Keep the RNG consumption in lockstep with
  // step_once: one uniform01() per step, even with one runnable process.
  //
  // Scheduler state that process bodies cannot touch (the RNG, the runnable
  // list, the crash cursor, the SoA base pointers) is cached in locals for
  // the whole loop: the resume() below is an opaque call, so anything left
  // in memory would be re-loaded every iteration. global_step_ is the one
  // value env calls *do* read, so it is stored back before each handoff.
  Fiber* const* const fibers = fiber_.data();
  const std::uint8_t* const finished_flags = proc_finished_.data();
  std::uint64_t* const steps_by_proc = metrics_.steps_by_proc.data();
  Rng rng = sched_rng_;
  Step step = global_step_;
  Step next_crash = crash_next_ < crash_schedule_.size()
                        ? crash_schedule_[crash_next_].first
                        : kNever;
  const std::size_t* run_data = runnable_.data();
  std::size_t nrun = runnable_.size();
  Step done = 0;
  while (done < k) {
    if (next_crash <= step) [[unlikely]] {
      global_step_ = step;
      apply_crash_plan();
      next_crash = crash_next_ < crash_schedule_.size()
                       ? crash_schedule_[crash_next_].first
                       : kNever;
      run_data = runnable_.data();
      nrun = runnable_.size();
    }
    if (nrun == 0) break;
    const double r = rng.uniform01() * static_cast<double>(nrun);
    std::size_t idx = static_cast<std::size_t>(r);
    if (idx >= nrun) idx = nrun - 1;
    const std::size_t pick = run_data[idx];
    ++steps_by_proc[pick];
    global_step_ = step;
    fibers[pick]->resume();
    if (finished_flags[pick] != 0) [[unlikely]] {
      proc_state_[pick] = static_cast<std::uint8_t>(ProcState::kFinished);
      remove_runnable(pick);
      run_data = runnable_.data();
      nrun = runnable_.size();
    }
    ++step;
    ++done;
  }
  global_step_ = step;
  sched_rng_ = rng;
  return done;
}

Step SimRuntime::run_steps(Step k) {
  start();
  MM_ASSERT_MSG(!shut_down_, "runtime already shut down");
  if (fast_path_eligible()) return run_fast(k);
  Step done = 0;
  while (done < k && step_once()) ++done;
  return done;
}

bool SimRuntime::run_until_all_done(Step budget) {
  start();
  MM_ASSERT_MSG(!shut_down_, "runtime already shut down");
  if (fast_path_eligible()) {
    if (budget > global_step_) run_fast(budget - global_step_);
    return all_done();
  }
  while (global_step_ < budget) {
    if (!step_once()) break;
  }
  return all_done();
}

bool SimRuntime::finished(Pid p) const {
  MM_ASSERT(p.index() < proc_state_.size());
  return proc_state_[p.index()] == static_cast<std::uint8_t>(ProcState::kFinished);
}

bool SimRuntime::crashed(Pid p) const {
  MM_ASSERT(p.index() < proc_state_.size());
  return proc_state_[p.index()] == static_cast<std::uint8_t>(ProcState::kCrashed);
}

bool SimRuntime::all_done() const {
  return std::all_of(proc_state_.begin(), proc_state_.end(), [](std::uint8_t s) {
    return s == static_cast<std::uint8_t>(ProcState::kFinished) ||
           s == static_cast<std::uint8_t>(ProcState::kCrashed);
  });
}

void SimRuntime::rethrow_process_error() const {
  for (const Proc& pr : procs_)
    if (pr.error) std::rethrow_exception(pr.error);
}

std::optional<std::uint64_t> SimRuntime::register_value(RegKey key) const {
  const std::uint32_t id = reg_slots_[reg_slot(key)];
  if (id == 0) return std::nullopt;
  return reg_values_[id - 1];
}

std::size_t SimRuntime::reg_slot(RegKey key) const noexcept {
  const std::size_t mask = reg_slots_.size() - 1;
  std::size_t i = static_cast<std::size_t>(mix64(key.bits())) & mask;
  while (reg_slots_[i] != 0 && reg_keys_[reg_slots_[i] - 1] != key) i = (i + 1) & mask;
  return i;
}

void SimRuntime::grow_reg_index() {
  reg_slots_.assign(2 * reg_slots_.size(), 0);
  for (std::size_t i = 0; i < reg_keys_.size(); ++i)
    reg_slots_[reg_slot(reg_keys_[i])] = static_cast<std::uint32_t>(i + 1);
}

// ---------------------------------------------------------------------------
// Env backends — run on the (single) active process fiber.
// ---------------------------------------------------------------------------

Step SimRuntime::partition_hold(Pid from, Pid to, Step deliver_at, Rng& rng) {
  if (!config_.partition.has_value()) return deliver_at;
  const Partition& part = *config_.partition;
  // A message crossing the partition during its window is held until the
  // window closes: pure extra asynchrony, never a loss.
  if (part.crosses(from, to) && global_step_ < part.until && deliver_at >= part.from) {
    deliver_at = part.until + rng.between(config_.min_delay, config_.max_delay);
  }
  return deliver_at;
}

void SimRuntime::enqueue_message(Pid to, Step deliver_at, Message m) {
  auto& pend = pending_[to.index()];
  pend.push_back(InFlight{deliver_at, send_seq_++, global_step_, std::move(m)});
  std::push_heap(pend.begin(), pend.end(), &SimRuntime::delivers_later);
  pending_head_[to.index()] = pend.front().deliver_at;
}

void SimRuntime::env_send(Pid from, Pid to, Message m) {
  MM_ASSERT(to.index() < config_.n());
  bool deliver = true;
  if (injector_ != nullptr) [[unlikely]] {
    injector_->on_send(*this, from, to);
    deliver = injector_->on_byz_send(from, to, m);
  }
  if (record_footprints_) [[unlikely]]
    scratch_.footprint.add_send(to);
  ++metrics_.msgs_sent;
  ++metrics_.sends_by_proc[from.index()];
  if (!deliver) [[unlikely]] {  // Byzantine selective silence
    ++metrics_.msgs_dropped;
    trace_event(from, TraceEvent::Kind::kDrop, to.value(), m.kind);
    return;
  }
  if (config_.link_type == LinkType::kFairLossy && link_rng_.bernoulli(config_.drop_prob)) {
    ++metrics_.msgs_dropped;
    trace_event(from, TraceEvent::Kind::kDrop, to.value(), m.kind);
    return;
  }
  // Injected burst hostility (drops / delay spikes / duplicates) draws from
  // the dedicated fault stream; outside a burst window this block is free
  // and burst-free runs stay bit-identical.
  const bool burst = global_step_ < burst_.until;
  if (burst && fault_rng_.bernoulli(burst_.drop_prob)) {
    ++metrics_.msgs_dropped;
    trace_event(from, TraceEvent::Kind::kDrop, to.value(), m.kind);
    return;
  }
  m.from = from;
  Step deliver_at = global_step_ + link_rng_.between(config_.min_delay, config_.max_delay);
  if (burst && burst_.extra_delay_max > 0)
    deliver_at += fault_rng_.between(0, burst_.extra_delay_max);
  deliver_at = partition_hold(from, to, deliver_at, link_rng_);
  if (ef_part_active_) [[unlikely]] {
    // Explorer partition window: crossing sends are held (with their
    // already-drawn stamp and the next seq, exactly as if enqueued) until
    // the off toggle re-injects them. The send was counted above, so
    // send-metrics oracles are window-invariant.
    if (detail::mask_crosses(*config_.explore_faults->partition_mask, from, to)) {
      trace_event(from, TraceEvent::Kind::kSend, to.value(), m.kind, send_seq_);
      ef_held_.emplace_back(to.index(),
                            InFlight{deliver_at, send_seq_++, global_step_, std::move(m)});
      return;
    }
  }
  if (burst && fault_rng_.bernoulli(burst_.dup_prob)) {
    // Link-level duplication: the copy travels independently (own delay,
    // own partition hold) and is not counted as a send by `from`.
    Step dup_at = global_step_ + fault_rng_.between(config_.min_delay, config_.max_delay);
    if (burst_.extra_delay_max > 0) dup_at += fault_rng_.between(0, burst_.extra_delay_max);
    dup_at = partition_hold(from, to, dup_at, fault_rng_);
    enqueue_message(to, dup_at, m);
  }
  // Flow id = the seq enqueue_message is about to assign, pairing this
  // kSend with its kDeliver.
  trace_event(from, TraceEvent::Kind::kSend, to.value(), m.kind, send_seq_);
  enqueue_message(to, deliver_at, std::move(m));
}

void SimRuntime::drain_pending(Pid to, Step now_step, std::vector<Message>& out) {
  auto& pend = pending_[to.index()];
  // The cached pending_head_ guarantees this drain delivers at least one
  // message; the heap it found is the pending-depth sample.
  if (record_obs_) [[unlikely]]
    obs_->pending_depth.add(pend.size());
  std::uint64_t delivered = 0;
  while (!pend.empty() && pend.front().deliver_at <= now_step) {
    std::pop_heap(pend.begin(), pend.end(), &SimRuntime::delivers_later);
    InFlight f = std::move(pend.back());
    pend.pop_back();
    if (record_obs_) [[unlikely]]
      obs_->delivery_latency.add(now_step >= f.sent_at ? now_step - f.sent_at : 0);
    trace_event(f.msg.from, TraceEvent::Kind::kDeliver, to.value(), f.msg.kind, f.seq);
    out.push_back(std::move(f.msg));
    ++delivered;
  }
  pending_head_[to.index()] = pend.empty() ? kNever : pend.front().deliver_at;
  if (record_obs_) [[unlikely]]
    obs_->inbox_depth.add(delivered);
  metrics_.msgs_delivered += delivered;
}

void SimRuntime::env_drain(Pid self, std::vector<Message>& out) {
  // Pop eligible messages straight from the heap into the caller's buffer —
  // delivery order is (deliver_at, seq), exactly the heap's pop order, so no
  // intermediate inbox is needed. Reused caller buffers keep their capacity:
  // the steady-state drain allocates nothing, and when nothing is due the
  // cached pending_head_ skips the heap entirely.
  out.clear();
  if (pending_head_[self.index()] <= global_step_)
    drain_pending(self, global_step_, out);
  if (record_footprints_) [[unlikely]] {
    SliceScratch& sc = scratch_;
    // Even an empty drain is a channel touch: it would have observed any
    // message sent before it, so it must order against sends to `self`.
    sc.footprint.drained = true;
    if (!out.empty()) sc.got_messages = true;
    obs_note(self, kObsDrain, out.size(), sc.sig);
    for (const Message& m : out) {
      obs_note(self, kObsMsg, m.from.value(), sc.sig);
      obs_note(self, kObsMsg, (static_cast<std::uint64_t>(m.kind) << 32) ^ m.round, sc.sig);
      obs_note(self, kObsMsg, m.value, sc.sig);
      obs_note(self, kObsMsg, m.aux, sc.sig);
      obs_note(self, kObsMsg, m.tuples.size(), sc.sig);
      for (const RepTuple& t : m.tuples) {
        obs_note(self, kObsMsg, t.pid.value(), sc.sig);
        obs_note(self, kObsMsg, t.value, sc.sig);
      }
    }
  }
}

RegId SimRuntime::env_reg(Pid self, RegKey key) {
  const std::size_t slot = reg_slot(key);
  std::uint32_t idx = reg_slots_[slot];
  if (idx == 0) {
    reg_values_.push_back(0);
    reg_acl_.push_back(key.is_global() ? kGlobalOwner : key.owner().value());
    reg_owner_.push_back(key.owner().value());
    reg_keys_.push_back(key);
    idx = static_cast<std::uint32_t>(reg_keys_.size());
    reg_slots_[slot] = idx;
    if (2 * reg_keys_.size() > reg_slots_.size()) grow_reg_index();
  }
  const RegId r{idx - 1};
  check_register_access(self, r);
  return r;
}

void SimRuntime::check_memory_alive(RegId r) const {
  MM_ASSERT(r.index() < reg_acl_.size());
  if (!mem_faults_armed_) return;
  if (reg_acl_[r.index()] == kGlobalOwner) return;
  const std::uint32_t owner = reg_owner_[r.index()];
  if (global_step_ < mem_failed_until_[owner]) {
    throw MemoryFailure{"memory hosted at " + to_string(Pid{owner}) + " has failed"};
  }
}

void SimRuntime::check_register_access(Pid accessor, RegId r) const {
  // Domain (GSM) check only: naming a register via env.reg() must stay
  // legal during a memory-failure window — availability is checked per
  // access by check_memory_alive, matching the thread runtime's split.
  MM_ASSERT(r.index() < reg_acl_.size());
  const std::uint32_t acl = reg_acl_[r.index()];
  if (acl == kGlobalOwner || acl == accessor.value()) return;
  MM_ASSERT_MSG(acl < config_.n(), "register owner out of range");
  if (!config_.gsm.has_edge(accessor, Pid{acl})) {
    throw ModelViolation{to_string(accessor) + " accessed register owned by " +
                         to_string(Pid{acl}) + " outside its shared-memory domain"};
  }
}

std::uint64_t SimRuntime::env_read(Pid self, RegId r) {
  check_register_access(self, r);
  check_memory_alive(r);
  ++metrics_.reg_reads;
  ++metrics_.reads_by_proc[self.index()];
  if (reg_owner_[r.index()] == self.value()) {
    ++metrics_.reg_reads_local;
  } else {
    ++metrics_.remote_reads_by_proc[self.index()];
  }
  trace_event(self, TraceEvent::Kind::kRegRead, r.value(), reg_values_[r.index()]);
  if (record_obs_) [[unlikely]]
    ++obs_->reg_touches[reg_keys_[r.index()].bits()];
  if (record_footprints_) [[unlikely]] {
    scratch_.footprint.add_read(reg_keys_[r.index()]);
    obs_note(self, kObsRead, reg_values_[r.index()], scratch_.sig);
  }
  return reg_values_[r.index()];
}

void SimRuntime::env_write(Pid self, RegId r, std::uint64_t v) {
  if (injector_ != nullptr) [[unlikely]] {
    injector_->on_reg_write(*this, self, reg_keys_[r.index()]);
    injector_->on_byz_reg_write(self, reg_keys_[r.index()], v);
  }
  check_register_access(self, r);
  check_memory_alive(r);
  ++metrics_.reg_writes;
  ++metrics_.writes_by_proc[self.index()];
  if (reg_owner_[r.index()] == self.value()) {
    ++metrics_.reg_writes_local;
  } else {
    ++metrics_.remote_writes_by_proc[self.index()];
  }
  trace_event(self, TraceEvent::Kind::kRegWrite, r.value(), v);
  if (record_obs_) [[unlikely]]
    ++obs_->reg_touches[reg_keys_[r.index()].bits()];
  if (record_footprints_) [[unlikely]]
    scratch_.footprint.add_write(reg_keys_[r.index()]);
  reg_values_[r.index()] = v;
}

std::uint64_t SimRuntime::env_cas(Pid self, RegId r, std::uint64_t expected,
                                  std::uint64_t desired) {
  // A CAS is a write-class mutation: fault rules keyed on register writes
  // (kOnFirstWrite / kOnRoundEntry) must see CAS-based object protocols too.
  if (injector_ != nullptr) [[unlikely]] {
    injector_->on_reg_write(*this, self, reg_keys_[r.index()]);
    injector_->on_byz_reg_write(self, reg_keys_[r.index()], desired);
  }
  check_register_access(self, r);
  check_memory_alive(r);
  ++metrics_.reg_cas_ops;
  if (reg_owner_[r.index()] == self.value()) ++metrics_.reg_cas_local;
  trace_event(self, TraceEvent::Kind::kRegCas, r.value(), reg_values_[r.index()]);
  if (record_obs_) [[unlikely]]
    ++obs_->reg_touches[reg_keys_[r.index()].bits()];
  const std::uint64_t old = reg_values_[r.index()];
  if (record_footprints_) [[unlikely]] {
    // A CAS both observes and (potentially) mutates: read+write footprint,
    // with the observed old value as the observation. Whether the swap hit
    // is a deterministic function of (old, expected), so old alone suffices.
    scratch_.footprint.add_read(reg_keys_[r.index()]);
    scratch_.footprint.add_write(reg_keys_[r.index()]);
    obs_note(self, kObsCas, old, scratch_.sig);
  }
  if (old == expected) reg_values_[r.index()] = desired;
  return old;
}

bool SimRuntime::env_coin(Pid self) {
  const bool v = proc_rng_[self.index()].coin();
  if (record_footprints_) [[unlikely]] {
    scratch_.footprint.drew_rand = true;
    obs_note(self, kObsCoin, v ? 1 : 0, scratch_.sig);
  }
  return v;
}

std::uint64_t SimRuntime::env_rand_below(Pid self, std::uint64_t bound) {
  const std::uint64_t v = proc_rng_[self.index()].below(bound);
  if (record_footprints_) [[unlikely]] {
    scratch_.footprint.drew_rand = true;
    obs_note(self, kObsRand, v, scratch_.sig);
  }
  return v;
}

Step SimRuntime::env_now(Pid self) {
  if (record_footprints_) [[unlikely]] {
    // Reading the clock makes the step depend on *every* other step (time
    // advances with each), so it is recorded as a global conflict.
    scratch_.footprint.observed_clock = true;
    obs_note(self, kObsNow, global_step_, scratch_.sig);
  }
  return global_step_;
}

}  // namespace mm::runtime
