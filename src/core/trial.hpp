// Seeded end-to-end trials: one function call = one adversarial run of a
// consensus algorithm (or an Ω stabilization scenario) under the
// deterministic simulator, with safety checked on the way out. Tests sweep
// these; benches aggregate them into the experiment tables.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "check/linearizability.hpp"
#include "graph/graph.hpp"
#include "runtime/fault_hook.hpp"
#include "runtime/sim_config.hpp"
#include "shm/consensus_object.hpp"

namespace mm::core {

enum class Algo : std::uint8_t { kHbo, kBenOr, kSmConsensus };
[[nodiscard]] const char* to_string(Algo algo) noexcept;

/// How the crash set is chosen.
enum class CrashPick : std::uint8_t {
  kNone,       ///< no crashes regardless of f
  kRandom,     ///< uniformly random f-subset
  kWorstCase,  ///< the f-subset minimising |C ∪ δC| (exact witness; n ≤ 26) —
               ///< the adversary Theorem 4.3 is stated against
  kTargeted,   ///< exactly the processes in `targeted_crash_mask`
};

struct ConsensusTrialConfig {
  graph::Graph gsm;
  std::uint64_t seed = 1;
  Algo algo = Algo::kHbo;
  shm::ConsensusImpl impl = shm::ConsensusImpl::kCas;

  std::size_t f = 0;  ///< number of processes to crash
  CrashPick crash_pick = CrashPick::kRandom;
  /// Crash set for kTargeted (bit p = crash process p); `f` is ignored then.
  std::uint64_t targeted_crash_mask = 0;
  /// Crash steps are drawn uniformly from [0, crash_window]. 0 = crash at
  /// step 0, i.e. initially-dead processes — the adversary the tolerance
  /// thresholds are stated against.
  Step crash_window = 2'000;

  /// Initial values: if set, per-process; otherwise seeded-random bits.
  std::optional<std::vector<std::uint32_t>> inputs;

  Step budget = 400'000;  ///< total scheduler steps before giving up
  std::uint64_t max_rounds = 1'000;

  Step min_delay = 1;
  Step max_delay = 8;
  std::optional<runtime::Partition> partition;

  /// Reactive fault injector installed into the runtime for this run (see
  /// runtime/fault_hook.hpp; non-owning, may be null). Injectors are
  /// stateful per run, so sweeps — which copy this config per seed — require
  /// it to be null; build a fresh engine inside the per-seed closure instead.
  runtime::FaultInjector* injector = nullptr;

  /// Arm event tracing (SimRuntime::enable_trace) for this run; the result
  /// then carries a decoded tail of the ring for failure triage.
  std::size_t trace_capacity = 0;
};

struct ConsensusTrialResult {
  bool agreement = true;        ///< no two decided processes differ (always checked)
  bool validity = true;         ///< every decision is some process' input
  bool all_correct_decided = false;  ///< termination within budget
  std::optional<std::uint32_t> decision;
  std::uint64_t max_decided_round = 0;  ///< largest round any process decided in
  Step steps_used = 0;
  std::uint64_t msgs_sent = 0;
  std::uint64_t reg_ops = 0;    ///< reads + writes + CAS
  std::vector<bool> crashed;    ///< which processes the adversary crashed
  std::string trace_tail;       ///< decoded ring tail (empty unless armed)
};

[[nodiscard]] ConsensusTrialResult run_consensus_trial(const ConsensusTrialConfig& cfg);

/// Size rules the trials enforce, also for callers that validate input first
/// (the chaos repro parser); each throws runtime::ConfigError naming the value.
/// f < n: a consensus trial cannot crash every process.
void require_crashable(std::size_t f, std::size_t n);
/// n >= 2: Ω and Byzantine-register trials need two processes at least.
void require_two_processes(std::size_t n);

/// Convenience: fraction of `trials` seeds (seed, seed+1, ...) in which all
/// correct processes decided, with safety asserted on every run. Trials fan
/// out across the MM_JOBS worker pool (see exec/parallel_map.hpp); the
/// aggregate is reduced in seed order and is bit-identical at any job count.
struct TerminationSweep {
  double termination_rate = 0.0;
  double mean_decided_round = 0.0;  ///< over terminating runs
  double mean_steps = 0.0;          ///< over terminating runs
  std::uint64_t safety_violations = 0;
};
[[nodiscard]] TerminationSweep sweep_termination(ConsensusTrialConfig cfg,
                                                 std::uint64_t trials);

// ---------------------------------------------------------------------------
// Byzantine register trials (E20)
// ---------------------------------------------------------------------------

/// One adversarial run of a ByzRegister instance: p0 writes values 1..writes
/// in order, every process (p0 included) then performs two reads, and
/// everyone keeps serving until all correct processes finished.
/// The Byzantine set is declarative here (validation + oracle scoping); the
/// actual corruption comes from the installed injector's kGoByzantine rules.
struct ByzRegisterTrialConfig {
  graph::Graph gsm;
  std::uint64_t seed = 1;
  std::size_t f = 0;        ///< configured tolerance of the register instance
  bool use_gsm = false;     ///< hybrid m&m mode (see core/byz_register.hpp)
  std::size_t writes = 3;   ///< writer writes 1..writes
  Step budget = 400'000;
  Step max_delay = 8;  ///< message delays are uniform in [1, max_delay]
  /// Declarative Byzantine set (empty = none); must not overlap crash_at and
  /// is validated against the register's resilience bound (n > 3f message
  /// mode, n > 2f hybrid — hybrid past n > 3f also needs the writer to
  /// neighbor every process, since the Bracha channel is then disabled).
  std::vector<std::uint8_t> byzantine;
  std::vector<std::optional<Step>> crash_at;  ///< crash plan (within f budget)
  runtime::FaultInjector* injector = nullptr;
  /// Arm event tracing; see ConsensusTrialConfig::trace_capacity.
  std::size_t trace_capacity = 0;
};

struct ByzRegisterTrialResult {
  bool completed = false;   ///< all correct processes finished their ops
  Step steps_used = 0;
  std::vector<std::uint64_t> written;  ///< values the writer's code issued
  /// Completed operations per process (writes at p0, reads everywhere),
  /// recorded with invocation/response steps for the linearizability oracle.
  std::vector<check::HistoryRecorder> histories;
  /// Per-process adopted (ts → value) logs for the agreement oracle.
  std::vector<std::map<std::uint32_t, std::uint64_t>> adopted;
  std::vector<bool> crashed;
  std::string trace_tail;   ///< decoded ring tail (empty unless armed)
};

[[nodiscard]] ByzRegisterTrialResult run_byz_register_trial(
    const ByzRegisterTrialConfig& cfg);

// ---------------------------------------------------------------------------
// Ω trials
// ---------------------------------------------------------------------------

enum class OmegaAlgo : std::uint8_t { kMnmReliable, kMnmFairLossy, kMessagePassing };
[[nodiscard]] const char* to_string(OmegaAlgo algo) noexcept;

struct OmegaTrialConfig {
  std::size_t n = 8;
  std::uint64_t seed = 1;
  OmegaAlgo algo = OmegaAlgo::kMnmReliable;
  double drop_prob = 0.3;  ///< used by kMnmFairLossy

  Step min_delay = 1;
  Step max_delay = 8;

  /// The process guaranteed timely by the scheduler (§3), run at least once
  /// in every 8 global steps. Others run at `slow_weight` relative weight.
  Pid timely{0};
  double slow_weight = 1.0;

  /// Crash the initial stable leader at this step (0 = never) to measure
  /// failover.
  Step crash_leader_at = 0;

  Step budget = 600'000;
  /// Stability horizon: consider the system stabilized once every correct
  /// process has reported the same correct leader for this many consecutive
  /// checks (checks run every check_every steps).
  Step check_every = 500;
  int stable_checks = 10;

  /// Reactive fault injector; see ConsensusTrialConfig::injector.
  runtime::FaultInjector* injector = nullptr;

  /// Arm event tracing; see ConsensusTrialConfig::trace_capacity.
  std::size_t trace_capacity = 0;
};

struct OmegaTrialResult {
  bool stabilized = false;
  Pid final_leader = Pid::none();
  Step stabilization_step = 0;   ///< first step of the final stable streak
  Step failover_step = 0;        ///< same, but measured after the crash (if any)
  // Steady-state per-window operation rates, measured after stabilization
  // (these are the Theorem 5.1/5.2 observables).
  double steady_msgs_per_1k = 0.0;
  double leader_writes_per_1k = 0.0;
  double leader_reads_per_1k = 0.0;
  double leader_remote_per_1k = 0.0;      ///< leader's remote reads+writes (§5.3)
  double others_writes_per_1k = 0.0;
  double others_reads_per_1k = 0.0;
  std::string trace_tail;  ///< decoded ring tail (empty unless armed)
};

[[nodiscard]] OmegaTrialResult run_omega_trial(const OmegaTrialConfig& cfg);

/// Parallel fan-out of independent Ω trials: result[i] is run_omega_trial
/// with cfg.seed = seeds[i], returned in input order — deterministic at any
/// MM_JOBS, so callers can reduce however they like.
[[nodiscard]] std::vector<OmegaTrialResult> run_omega_trials(
    const OmegaTrialConfig& cfg, const std::vector<std::uint64_t>& seeds);

}  // namespace mm::core
