// Deterministic cooperative simulator for the m&m model.
//
// Each process body runs on its own userspace fiber (runtime/fiber.hpp), and
// exactly one of {scheduler, process} is ever running: every handoff is a
// direct Fiber::resume()/yield() switch on the calling thread. Algorithms
// therefore execute real sequential C++ (no state-machine contortions) while
// the schedule — the interleaving of steps, message delays, drops,
// partitions, and crashes — is a pure function of (SimConfig.seed, config).
// Every test failure is replayable from its seed.
//
// Adversary strength: by default every shared-register access yields to the
// scheduler first (auto_step_on_shm, taken in SimEnv), so interleavings are
// adversarial at register-operation granularity — the granularity at which
// linearizability of the register layer matters for the algorithms' safety
// proofs.
//
// Hot-path layout (docs/RUNTIME.md "Memory layout"): per-process scheduler
// state lives in dense parallel arrays (proc_state_/proc_kill_/
// proc_finished_/fiber_), registers in parallel arrays indexed through the
// flat reg_slots_ table, and messages carry inline small-buffer payloads
// (runtime/message.hpp) — a steady-state step performs zero heap
// allocations. Every container sits in detail::SimStorage, which a runtime
// destroyed inside a FiberStackRecycler scope parks for the next one, so a
// replay loop builds and tears down runtimes without the heap either.
// Footprint-recording and observability instrumentation sits behind one
// [[unlikely]] flag test at each point of use in the Env backends, so the
// no-checker path skips it with branches that always go the same way.
#pragma once

#include <unwind.h>

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "runtime/env.hpp"
#include "runtime/fault_hook.hpp"
#include "runtime/fiber.hpp"
#include "runtime/footprint.hpp"
#include "runtime/metrics.hpp"
#include "runtime/obs_recorder.hpp"
#include "runtime/sim_config.hpp"

namespace mm::runtime {

class SimRuntime;

/// Per-process Env implementation; a thin facade over the runtime.
///
/// Each call forwards to one Env backend of the runtime. read, write and cas
/// first take the auto-step yield (auto_step_on_shm) here, so SimEnv is the
/// only place a process yields. The backends test the recording flags at the
/// access itself, after that yield: a hook armed or disarmed while a process
/// is parked applies to the access the process makes when it resumes, and
/// recording stays armable after a deterministic warmup prefix (the instance
/// corpus relies on that).
class SimEnv final : public Env {
 public:
  SimEnv(SimRuntime& rt, Pid self) : rt_(&rt), self_(self) {}

  [[nodiscard]] Pid self() const override { return self_; }
  [[nodiscard]] std::size_t n() const override;
  void send(Pid to, Message m) override;
  void drain_inbox(std::vector<Message>& out) override;
  [[nodiscard]] RegId reg(RegKey key) override;
  [[nodiscard]] std::uint64_t read(RegId r) override;
  void write(RegId r, std::uint64_t v) override;
  std::uint64_t cas(RegId r, std::uint64_t expected, std::uint64_t desired) override;
  [[nodiscard]] bool coin() override;
  [[nodiscard]] std::uint64_t rand_below(std::uint64_t bound) override;
  void step() override;
  [[nodiscard]] Step now() const override;
  [[nodiscard]] bool stop_requested() const override;

 private:
  friend class SimRuntime;

  /// Unwind the killed process's body and leave its fiber: a forced unwind
  /// (no throw, no search phase) runs every destructor below the process
  /// wrapper, and stop_at_wrapper ends it there.
  void unwind_killed();
  static _Unwind_Reason_Code stop_at_wrapper(int version, _Unwind_Action actions,
                                             _Unwind_Exception_Class exception_class,
                                             _Unwind_Exception* exception,
                                             _Unwind_Context* context, void* env);

  SimRuntime* rt_;
  Pid self_;
  /// Bound by SimRuntime::start(): step() — the single hottest Env call —
  /// then needs no runtime indirection at all, just the inline switch and
  /// one kill-flag load.
  Fiber* fiber_ = nullptr;
  const std::uint8_t* kill_flag_ = nullptr;
  /// Frame address of SimRuntime::run_body, which calls the body: the kill
  /// unwind stops at the first frame above it.
  std::uintptr_t body_floor_ = 0;
  /// The kill unwind's exception object. It lives here, off the stack being
  /// unwound.
  _Unwind_Exception kill_exc_{};
};

namespace detail {

/// Cold per-process handles. Everything the scheduler and Env hot paths
/// touch per step lives in SimStorage's parallel arrays instead (SoA), so a
/// scheduling decision reads dense bytes/words, not scattered structs. The
/// env and fiber are built in place by SimRuntime::start().
struct SimProc {
  std::function<void(Env&)> body;
  std::optional<SimEnv> env;
  std::optional<Fiber> fiber;  ///< runs SimRuntime::run_process
  std::exception_ptr error;
};

inline constexpr Step kNever = ~Step{0};

struct InFlight {
  Step deliver_at;
  std::uint64_t seq;
  /// Step the message was sent at. Written unconditionally (it rides the
  /// existing store), read only by the observability recorder — never by
  /// the schedule or the state hash, so trajectories are unaffected.
  Step sent_at;
  Message msg;
};

/// Scratch for the recording state of the slice in flight.
struct SliceScratch {
  StepFootprint footprint;   ///< footprint of the slice in flight / just retired
  std::uint64_t sig = 0;     ///< observation signature of the slice in flight
  bool got_messages = false; ///< slice drained a non-empty inbox
};

/// An in-flight message in state_hash()'s per-destination order.
struct HashFlight {
  const InFlight* f;
  bool held;  ///< held by the explorer partition window
};

/// Every heap container of a SimRuntime, which inherits them privately.
/// A runtime destroyed inside a FiberStackRecycler scope empties them,
/// keeping their capacity, and parks them; the next runtime built on the
/// thread adopts them in its constructor, which sizes each exactly as a
/// fresh runtime's. Only containers live here: a fresh SimStorage and an
/// emptied one differ in capacity alone.
struct SimStorage {
  /// Empty every container, keeping its capacity: processes drop their
  /// fibers, envs, bodies and errors, and pending_ keeps its per-destination
  /// queues (emptied).
  void clear() noexcept;

  /// One slot per process (more when adopted from a larger runtime);
  /// add_process fills the bodies in pid order.
  std::vector<SimProc> procs_;

  // Per-process scheduler state, struct-of-arrays (hot; indexed by pid).
  std::vector<std::uint8_t> proc_state_;     ///< SimRuntime::ProcState values
  std::vector<std::uint8_t> proc_kill_;      ///< kill flag read by SimEnv::step
  std::vector<std::uint8_t> proc_finished_;  ///< set once the body has returned or unwound
  std::vector<Fiber*> fiber_;  ///< procs_[i].fiber, dense for the handoff

  /// Runnable pids in pid order, maintained incrementally (see
  /// remove_runnable) instead of being rebuilt by scanning every step.
  std::vector<std::size_t> runnable_;
  std::vector<Pid> policy_scratch_;  ///< reused buffer for schedule_policy_ calls
  /// Crash plan flattened to (step, pid), sorted; crash_next_ advances as
  /// steps pass so apply_crash_plan is O(1) when nothing is due.
  std::vector<std::pair<Step, std::uint32_t>> crash_schedule_;
  /// Messages held across the explorer partition window, (destination,
  /// in-flight) in send order; re-injected with their original stamps by the
  /// off toggle.
  std::vector<std::pair<std::uint32_t, InFlight>> ef_held_;

  std::vector<Rng> proc_rng_;
  /// Per host: its memory is failed while the global step is below this
  /// (0 = up, kNever = failed for good). fail_memory_now opens a window at
  /// the current step, so its end is all a window needs.
  std::vector<Step> mem_failed_until_;

  // Register table, struct-of-arrays by RegId: value words, access-control
  // words, and raw owners in dense parallel arrays so env_read/env_write
  // touch one cache line each. reg_slots_ indexes it by key: open
  // addressing with linear probing on the mixed key bits, each slot holding
  // RegId + 1 (0 = empty), at most half full.
  std::vector<std::uint32_t> reg_slots_;
  std::vector<std::uint64_t> reg_values_;
  std::vector<std::uint32_t> reg_acl_;    ///< owner pid value, or kGlobalOwner
  std::vector<std::uint32_t> reg_owner_;  ///< raw key owner (metrics, mem windows)
  std::vector<RegKey> reg_keys_;          ///< creation-order keys

  // Per-destination pending messages: a binary min-heap on (deliver_at, seq)
  // (see delivers_later). pending_head_[d] caches the earliest deliver_at
  // (kNever when empty) so a drain with nothing due never touches the heap.
  std::vector<std::vector<InFlight>> pending_;
  std::vector<Step> pending_head_;

  // Footprint / observation recording (see the model-checker hooks).
  SliceScratch scratch_;                 ///< the slice in flight
  std::vector<std::uint64_t> obs_hash_;  ///< per-process rolling observation hash
  // Idle-spin collapse state (set_idle_slice_collapse): per process, a ring
  // of the last kIdleRing effect-free slice signatures and post-slice
  // observation hashes, plus the current effect-free streak length. A spin
  // whose signature stream is periodic with period <= kIdleMaxPeriod rolls
  // its observation hash back one full period, so same-phase states hash
  // equal and the explorer's state cache recognises the cycle. Periods > 1
  // arise whenever one await iteration spans several scheduler slices (a
  // remote-register read is its own yield point ahead of the drain+step
  // slice — e.g. ABD servers polling a global result register).
  std::vector<std::uint64_t> idle_sig_ring_;   ///< n * kIdleRing signatures
  std::vector<std::uint64_t> idle_post_ring_;  ///< n * kIdleRing post-slice obs
  std::vector<std::uint32_t> idle_streak_;     ///< consecutive effect-free slices
  // state_hash() scratch: the sorted register dump and one destination's
  // in-flight order.
  mutable std::vector<std::pair<std::uint64_t, std::uint64_t>> hash_regs_;
  mutable std::vector<HashFlight> hash_order_;

  Metrics metrics_;
};

// clear() names every container: a new one must join it, or a recycled
// runtime would inherit the last runtime's contents.
static_assert(sizeof(SimStorage) == 24 * sizeof(std::vector<std::uint64_t>) +
                                        sizeof(SliceScratch) + sizeof(Metrics),
              "SimStorage::clear() must empty every container");

}  // namespace detail

class SimRuntime : private detail::SimStorage {
 public:
  /// Inside a FiberStackRecycler scope, adopts the containers the last
  /// runtime destroyed there parked (see detail::SimStorage).
  explicit SimRuntime(SimConfig config);
  ~SimRuntime();
  SimRuntime(const SimRuntime&) = delete;
  SimRuntime& operator=(const SimRuntime&) = delete;

  /// Register the body of the next process (call exactly n times, in pid
  /// order, before start()).
  void add_process(std::function<void(Env&)> body);

  /// Create the (suspended) process fibers. Implicit in the first run call.
  void start();

  /// Execute up to `k` scheduler steps. Returns the number executed, which
  /// is smaller only if every process finished or crashed first, or the
  /// schedule policy returned kStopRun.
  Step run_steps(Step k);

  /// Run until all processes are finished/crashed or `budget` total steps
  /// have elapsed since construction. True iff all are done.
  bool run_until_all_done(Step budget);

  /// Kill parked processes and drain their fibers to completion: each one's
  /// pending yield unwinds its body (SimEnv::step). Idempotent; also called
  /// by the destructor. After shutdown the runtime can only be inspected: a
  /// run call aborts.
  void shutdown();

  /// Crash p at the next scheduling decision (dynamic injection).
  void crash_now(Pid p);
  /// Cooperative stop flag, visible through Env::stop_requested().
  void request_stop() { stop_requested_.store(true, std::memory_order_relaxed); }

  // -- dynamic fault actuators (reactive injection; see fault_hook.hpp) ------
  // All of these may be called between run chunks or from FaultInjector
  // hooks mid-run; each takes effect immediately and is part of the
  // deterministic trajectory (any randomness they introduce is drawn from a
  // dedicated seeded fault stream that fault-free runs never touch).

  /// Open a memory-failure window for the registers hosted at `host`,
  /// starting now: every access to one of them throws MemoryFailure until
  /// `recover_at` (nullopt = for good). Values survive the window
  /// (unavailability, never corruption), and a host's memory fails
  /// independently of its process (§6's partial-memory-failure model). The
  /// one way memory fails: FaultEngine's kMemoryWindow calls it, and so may
  /// a caller between run chunks.
  void fail_memory_now(Pid host, std::optional<Step> recover_at = std::nullopt);
  /// Close `host`'s memory-failure window now (idempotent).
  void recover_memory_now(Pid host);
  /// Install a partition with the given mask from now until `until`,
  /// replacing any configured one. Requires n <= 64.
  void set_partition_now(std::uint64_t side_a, Step until);
  /// Remove the active partition (configured or injected).
  void clear_partition_now();

  /// A bounded window of extra link hostility: while `global step < until`,
  /// each sent message is independently dropped with `drop_prob`, duplicated
  /// with `dup_prob` (the copy gets its own delay), and delayed by an extra
  /// uniform draw from [0, extra_delay_max]. Draws come from the fault RNG
  /// stream, so burst-free traffic is untouched. Applies on top of the
  /// configured link model, to reliable links too — callers asserting
  /// no-loss invariants should not arm drops on reliable-link runs.
  struct LinkBurst {
    Step until = 0;
    double drop_prob = 0.0;
    double dup_prob = 0.0;
    Step extra_delay_max = 0;
  };
  void begin_link_burst(const LinkBurst& burst) { burst_ = burst; }

  /// Install a reactive fault injector (non-owning; must outlive the run).
  /// Null detaches. Fault-free runs (no injector, no actuator calls) are
  /// bit-identical to runs before this hook existed.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  [[nodiscard]] bool finished(Pid p) const;
  [[nodiscard]] bool crashed(Pid p) const;
  [[nodiscard]] bool all_done() const;
  /// Rethrows the first non-kill exception that escaped a process body, if
  /// any. Call after a run to surface algorithm bugs in tests.
  void rethrow_process_error() const;

  /// The current global step.
  [[nodiscard]] Step now() const noexcept { return global_step_; }
  [[nodiscard]] const Metrics& metrics() const noexcept { return metrics_; }
  [[nodiscard]] const SimConfig& config() const noexcept { return config_; }

  /// Register values indexed by RegId — i.e. in creation order, which is
  /// itself part of the deterministic trajectory. The trajectory pins fold
  /// this table verbatim.
  [[nodiscard]] const std::vector<std::uint64_t>& register_values() const noexcept {
    return reg_values_;
  }
  /// Value of the register materialised under `key`, or nullopt if no
  /// process ever touched it. Key-addressed (unlike register_values(), whose
  /// RegId order depends on the schedule), so explorer oracles can read
  /// results a process published to a well-known key on ANY interleaving.
  [[nodiscard]] std::optional<std::uint64_t> register_value(RegKey key) const;

  /// Interleave at register-op granularity (default on; see header comment).
  void set_auto_step_on_shm(bool on) noexcept { auto_step_on_shm_ = on; }

  /// Externally controlled scheduling: the policy receives the runnable
  /// processes (pid order) and returns the index into that list to schedule.
  /// Overrides weights and the timeliness guarantee. This is the hook the
  /// exhaustive schedule explorer drives.
  using SchedulePolicy = std::function<std::size_t(const std::vector<Pid>& runnable)>;
  void set_schedule_policy(SchedulePolicy policy) { schedule_policy_ = std::move(policy); }
  /// Policy return value that ends the run instead of scheduling: no step is
  /// taken and the run call returns at once with all_done() false. This is
  /// how the explorers abandon a replay; a later run call asks the policy
  /// again.
  static constexpr std::size_t kStopRun = static_cast<std::size_t>(-1);

  /// Schedule width a policy-driven run exposes: the n real processes plus
  /// the fault pseudo-processes of SimConfig::explore_faults (== n when no
  /// plan is armed). Enabled pseudo-pids (indices n .. sched_width()-1) are
  /// appended after the real runnable pids in the policy's list; choosing
  /// one fires the fault as a zero-time transition (global step unchanged)
  /// whose footprint carries the matching fault dependency class. The
  /// explorer sizes its masks and per-pid tables with this, not n().
  [[nodiscard]] std::size_t sched_width() const noexcept { return config_.n() + ef_width_; }
  /// Fill `out` with the footprint fault pseudo-event `idx` (relative to n,
  /// below sched_width() - n) records when it fires, known without firing
  /// it: a crash event's target, a drop event's destination, a partition
  /// toggle's cut. Firing the off toggle adds the sends that re-inject the
  /// held messages. This owns the pseudo-pid layout: crash events in
  /// ExploreFaults::crashes order, then one drop event per destination,
  /// then partition on and off. `out` keeps its vectors' capacity.
  void fault_footprint(std::size_t idx, StepFootprint& out) const;

  // -- model-checker hooks (footprints + canonical state hashes) -------------
  // The third runtime hook family, next to trace_event and FaultInjector:
  // when armed, every scheduler step records which shared objects the slice
  // touched (runtime/footprint.hpp) and folds everything the process
  // *observed* (read values, drained messages, coin draws, clock reads) into
  // a per-process rolling observation hash. The DPOR explorer in check/dpor.*
  // consumes both. Off by default, and cheap by default: each Env backend
  // tests the flag where it would record, at the access (see SimEnv), so
  // recording may be armed after a deterministic warmup prefix.

  /// Arm/disarm per-step footprint + observation recording.
  void set_footprint_recording(bool on);
  /// Footprint of the most recently executed scheduler step. Valid while
  /// recording is armed and at least one step has run.
  [[nodiscard]] const StepFootprint& last_footprint() const noexcept {
    return scratch_.footprint;
  }

  /// Opt-in spin-cycle collapse: an *effect-free* slice (no writes, sends,
  /// clock reads, or randomness; drained nothing) whose observation sequence
  /// is identical to the process's previous effect-free slice does not
  /// advance the observation hash, so busy-wait spins map to a fixed point
  /// and the explorer's state cache can prune the cycle. Only sound for
  /// algorithms whose await loops are spin-stateless (no iteration counters,
  /// no timeouts) — see docs/RUNTIME.md. Off by default: every slice then
  /// advances the hash, which is always sound.
  void set_idle_slice_collapse(bool on) noexcept { idle_collapse_ = on; }

  /// 128-bit canonical hash of the current simulator state: per-process
  /// (lifecycle state, observation hash), non-zero register contents, and
  /// in-flight messages with *relative* delivery delays. Deliberately
  /// excludes the global step counter so states that differ only by elapsed
  /// time (e.g. spin iterations) coincide; sound for the explorer's
  /// restricted configs (crashes at step 0 only, unit delays) because every
  /// other time dependence flows through observations that are hashed.
  /// Requires footprint recording to be armed since construction.
  [[nodiscard]] StateHash state_hash() const;

  // -- event tracing (debugging adversarial schedules) -----------------------
  struct TraceEvent {
    enum class Kind : std::uint8_t {
      kSchedule,  ///< pid scheduled for one step
      kSend,      ///< a = destination pid, b = message kind, seq = flow id
      kDeliver,   ///< a = destination pid, b = message kind (pid = sender), seq = flow id
      kDrop,      ///< a = destination pid, b = message kind (fair-lossy)
      kRegRead,    ///< a = register index, b = value read
      kRegWrite,   ///< a = register index, b = value written
      kRegCas,     ///< a = register index, b = value observed
      kCrash,      ///< pid crashed
      kMemFail,    ///< pid = host whose memory failed, a = recover step (0 = never)
      kMemRecover, ///< pid = host whose memory recovered
      kFault,      ///< fault rule fired: pid = context, a = action code, b = rule index
    };
    Step step = 0;
    Pid pid;
    Kind kind = Kind::kSchedule;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    /// Flow id pairing a kSend with its kDeliver (the pending-queue seq);
    /// 0 for every other kind. Trails the struct so five-field aggregate
    /// initialisers keep working.
    std::uint64_t seq = 0;

    friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
  };

  /// Keep the last `capacity` events and feed the sim-time histograms
  /// (obs_report); 0 disarms both, and a runtime starts disarmed. The event
  /// storage is a fixed ring: memory use is bounded by the capacity, never
  /// by run length.
  void enable_trace(std::size_t capacity = 65'536);
  /// The retained events, oldest first (a copy — the live buffer is a ring).
  [[nodiscard]] std::vector<TraceEvent> trace() const;
  /// Render the last `last_n` events, one per line (for failure triage):
  /// sim-time step deltas plus decoded per-kind payloads.
  [[nodiscard]] std::string dump_trace(std::size_t last_n = 100) const;

  /// Instant trace event for a fault-rule firing (called by the fault
  /// engine so rule firings — including kGoByzantine — appear in exported
  /// traces).
  void trace_fault(Pid context, std::uint64_t action, std::uint64_t rule);

  // -- sim-time observability (docs/RUNTIME.md "Observability") --------------
  /// The delivery-latency, inbox-depth, pending-depth and
  /// register-contention histograms fed while enable_trace armed tracing,
  /// bit-identical at any MM_JOBS (empty if tracing was never armed). The
  /// feeds test the trace switch at the access (see SimEnv), and arming
  /// only observes, so trajectories are unchanged. The recorder is
  /// allocated on the first arming and kept after a disarm. Call between
  /// run chunks.
  [[nodiscard]] ObsReport obs_report() const;

 private:
  friend class SimEnv;

  enum class ProcState : std::uint8_t { kNew, kParked, kFinished, kCrashed };

  using Proc = detail::SimProc;
  using InFlight = detail::InFlight;
  using SliceScratch = detail::SliceScratch;
  static constexpr Step kNever = detail::kNever;

  /// reg_acl_ sentinel: register readable/writable by everyone (global key).
  static constexpr std::uint32_t kGlobalOwner = ~std::uint32_t{0};
  /// reg_slots_ size of a runtime with no registers yet (a power of two).
  static constexpr std::size_t kMinRegSlots = 16;
  /// Heap order for pending_: true when `a` delivers after `b`, so
  /// std::push_heap/pop_heap with this comparator keep the *earliest*
  /// (deliver_at, seq) at the front — the same order the old std::map
  /// iterated in, without per-message node allocations.
  static bool delivers_later(const InFlight& a, const InFlight& b) noexcept {
    return a.deliver_at != b.deliver_at ? a.deliver_at > b.deliver_at : a.seq > b.seq;
  }

  /// One scheduler step; returns false when no process is runnable or the
  /// schedule policy returned kStopRun. The general path: honours
  /// policy/timely/weights/injector hooks.
  bool step_once();
  /// The specialised inner loop for the common configuration (no policy, no
  /// injector, no timeliness, uniform weights, tracing off, recording off):
  /// consumes exactly the same RNG draws and produces the same trajectory as
  /// step_once, minus every disarmed-hook branch. Runs up to `k` steps.
  Step run_fast(Step k);
  [[nodiscard]] bool fast_path_eligible() const noexcept {
    return !schedule_policy_ && injector_ == nullptr && !config_.timely.has_value() &&
           config_.sched_weight.empty() && trace_capacity_ == 0 && !record_footprints_;
  }
  /// A process's whole lifecycle, the entry of its fiber: kill check, body,
  /// error capture, finished flag. A kill unwind never reaches its handler:
  /// SimEnv::stop_at_wrapper leaves the fiber just below this frame.
  void run_process(std::size_t i);
  /// Call process i's body from a frame of its own, whose address bounds the
  /// kill unwind (SimEnv::body_floor_).
  [[gnu::noinline]] void run_body(std::size_t i);
  /// Hand one step to process `pick` and park again, bookkeeping included.
  void activate(std::size_t pick);
  void resume_proc(std::size_t i) { fiber_[i]->resume(); }
  [[nodiscard]] bool runnable(std::size_t i) const {
    return proc_state_[i] == static_cast<std::uint8_t>(ProcState::kParked);
  }
  /// Drop a pid from the incrementally-maintained runnable list (kParked →
  /// kFinished/kCrashed transitions are one-way, so the list only shrinks).
  void remove_runnable(std::size_t idx);
  void apply_crash_plan();
  // -- explorer fault plan (SimConfig::explore_faults) -----------------------
  /// Append the currently-enabled fault pseudo-pids to `out` (policy path
  /// only). Enabledness is a pure function of the canonically-hashed state:
  /// a crash event is enabled while its target is parked, a drop event
  /// while the shared budget is positive and its destination has in-flight
  /// messages, the partition toggles while unfired (off only after on).
  void ef_append_enabled(std::vector<Pid>& out);
  /// Fire pseudo-event `idx` (relative to n): a zero-time transition that
  /// records fault_footprint(idx) directly (no process slice runs), plus
  /// the off toggle's re-injected sends.
  void ef_fire(std::size_t idx);
  /// reg_slots_ slot holding `key`, or the empty slot where it would go.
  [[nodiscard]] std::size_t reg_slot(RegKey key) const noexcept;
  /// Double reg_slots_ and re-index every register.
  void grow_reg_index();
  void check_register_access(Pid accessor, RegId r) const;
  /// Throws MemoryFailure while r's host is inside a failure window. Split
  /// from check_register_access so env_reg (naming) stays available during
  /// the window — mirrors the thread runtime's check_memory_alive.
  void check_memory_alive(RegId r) const;
  /// Pop every message for `to` eligible at `now_step` straight into `out`
  /// (delivery order), maintaining pending_head_.
  void drain_pending(Pid to, Step now_step, std::vector<Message>& out);
  /// Apply the partition hold rule to a tentative delivery step; re-draws
  /// the post-window delay from `rng` (the link stream for originals, the
  /// fault stream for injected duplicates).
  [[nodiscard]] Step partition_hold(Pid from, Pid to, Step deliver_at, Rng& rng);
  void enqueue_message(Pid to, Step deliver_at, Message m);

  // Env backends (called from the running process fiber; serialized by the
  // handoff, so no locking is needed). Each is one function: it tests
  // record_footprints_ and the trace switch ([[unlikely]]) where it would
  // record, so the flags are read at the access. The register calls never
  // yield; SimEnv takes the auto-step before calling them.
  void env_send(Pid from, Pid to, Message m);
  void env_drain(Pid self, std::vector<Message>& out);
  RegId env_reg(Pid self, RegKey key);
  std::uint64_t env_read(Pid self, RegId r);
  void env_write(Pid self, RegId r, std::uint64_t v);
  std::uint64_t env_cas(Pid self, RegId r, std::uint64_t expected, std::uint64_t desired);
  bool env_coin(Pid self);
  std::uint64_t env_rand_below(Pid self, std::uint64_t bound);
  Step env_now(Pid self);

  /// Fold one observation (tagged by kind) into `self`'s rolling observation
  /// hash and into the slice signature `sig` (for idle-slice collapse).
  void obs_note(Pid self, std::uint64_t tag, std::uint64_t value, std::uint64_t& sig);
  /// Slice lifecycle around a process resume while recording is armed.
  void begin_slice(std::size_t pick);
  void end_slice(std::size_t pick);
  /// Hot-path tracing hook: a branch-predictable no-op unless enable_trace
  /// armed it (the capacity check inlines; the ring push and the
  /// register-contention count stay out of line).
  void trace_event(Pid pid, TraceEvent::Kind kind, std::uint64_t a = 0, std::uint64_t b = 0,
                   std::uint64_t seq = 0) {
    if (trace_capacity_ == 0) [[likely]] {
      return;
    }
    trace_event_slow(pid, kind, a, b, seq);
  }
  void trace_event_slow(Pid pid, TraceEvent::Kind kind, std::uint64_t a, std::uint64_t b,
                        std::uint64_t seq);

  SimConfig config_;
  SchedulePolicy schedule_policy_;
  FaultInjector* injector_ = nullptr;
  /// Pooled fiber stacks (config_.pooled_fiber_stacks). The destructor
  /// releases the fibers (SimStorage::clear) before this pool goes.
  std::unique_ptr<FiberStackPool> stack_pool_;
  /// The emptied SimStorage this runtime adopted its containers from, kept to
  /// park them in again on destruction.
  std::unique_ptr<detail::SimStorage> shell_;
  std::size_t bodies_ = 0;  ///< process bodies added so far
  std::size_t crash_next_ = 0;

  // Explorer fault plan state (all zero/empty without explore_faults, so
  // legacy runs and hashes are untouched). Layout cached from the config:
  // crash events at [0, ef_drop_base_), per-destination drop events at
  // [ef_drop_base_, ef_part_base_), then partition-on and partition-off.
  std::size_t ef_width_ = 0;         ///< pseudo-process count (0 = no plan)
  std::size_t ef_drop_base_ = 0;
  std::size_t ef_part_base_ = 0;
  std::uint32_t ef_drops_left_ = 0;  ///< shared drop budget remaining
  bool ef_on_fired_ = false;
  bool ef_off_fired_ = false;
  bool ef_part_active_ = false;      ///< explorer partition window open
  bool started_ = false;
  bool shut_down_ = false;
  std::atomic<bool> stop_requested_{false};
  bool auto_step_on_shm_ = true;

  Step global_step_ = 0;
  Step steps_since_timely_ = 0;
  std::uint64_t send_seq_ = 0;

  Rng sched_rng_;
  Rng link_rng_;
  /// Dedicated stream for injected-fault randomness (burst drops, duplicate
  /// delays). Never drawn from unless a burst is active, so fault-free
  /// trajectories are unchanged by its existence.
  Rng fault_rng_;

  /// Keeps the fault-free register hot path to a single predictable branch.
  bool mem_faults_armed_ = false;
  LinkBurst burst_;

  // Trace ring: trace_buf_ grows once to trace_capacity_ and then wraps,
  // trace_head_ pointing at the oldest (= next overwritten) slot.
  std::size_t trace_capacity_ = 0;
  std::vector<TraceEvent> trace_buf_;
  std::size_t trace_head_ = 0;

  // Sim-time histograms, fed while tracing is armed.
  std::unique_ptr<ObsRecorder> obs_;  ///< made on the first arming, kept after a disarm

  // Footprint / observation recording (see the model-checker hooks above;
  // the per-process state is in detail::SimStorage).
  bool record_footprints_ = false;
  bool idle_collapse_ = false;
  static constexpr std::size_t kIdleRing = 8;
  static constexpr std::size_t kIdleMaxPeriod = 4;
};

}  // namespace mm::runtime
