// Multi-decree Paxos replicated log driven by the m&m Ω — the classic
// message-passing RSM (Multi-Paxos / Raft family), built here so E13 can
// contrast it against the m&m replicated log on equal footing:
//   * identical client model (every replica wants its commands committed),
//   * identical liveness oracle (the same OmegaMM instance),
//   * but quorum-bound: with ⌈n/2⌉ replicas crashed it wedges permanently,
//     which is precisely what the m&m log does not.
//
// Protocol (standard Multi-Paxos):
//   * One ballot per leadership: on becoming Ω-leader, broadcast PREPARE(b);
//     acceptors that promise report every slot they ever accepted.
//   * The new leader first re-proposes inherited values (highest accepted
//     ballot per slot), then assigns queued commands to fresh slots.
//   * Per-slot ACCEPT/ACCEPTED with majority quorums; a chosen slot is
//     announced with COMMIT and applied in log order.
//   * Non-leaders forward their commands to their current leader view and
//     re-forward until they see them committed.
//
// Safety is per-slot single-decree Paxos and holds under full asynchrony and
// arbitrary Ω churn; Ω provides liveness only.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "core/omega.hpp"
#include "runtime/env.hpp"

namespace mm::core {

class PaxosLog {
 public:
  explicit PaxosLog(std::vector<std::uint64_t> my_commands);

  /// Process body: serves proposer/acceptor/learner roles forever (until
  /// Env::stop_requested()). Commands from `my_commands` are injected into
  /// the log as leadership allows.
  void run(runtime::Env& env);

  /// Committed prefix applied so far (stable snapshot only after the run).
  [[nodiscard]] const std::vector<std::uint64_t>& applied_log() const noexcept {
    return applied_;
  }
  /// True once every one of this process' commands is in the applied prefix.
  [[nodiscard]] bool all_mine_committed() const noexcept {
    return mine_committed_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t applied_count() const noexcept {
    return applied_count_.load(std::memory_order_acquire);
  }

 private:
  struct Accepted {
    std::uint64_t ballot = 0;
    std::uint64_t command = 0;
  };
  struct PromiseInfo {
    std::size_t expected_entries = 0;
    std::size_t received_entries = 0;
    bool header = false;
    bool counted = false;
  };

  void handle(runtime::Env& env, const runtime::Message& m);
  void start_prepare(runtime::Env& env);
  void begin_accept_phase(runtime::Env& env);
  void propose_slot(runtime::Env& env, std::uint64_t slot, std::uint64_t command);
  void commit_slot(runtime::Env& env, std::uint64_t slot, std::uint64_t command);
  void apply_ready(runtime::Env& env);
  void pump_client(runtime::Env& env);

  OmegaMM omega_;

  // Client side.
  std::deque<std::uint64_t> pending_;        ///< my commands not yet committed
  std::set<std::uint64_t> mine_;             ///< all commands I ever submitted
  std::atomic<bool> mine_committed_{false};

  // Acceptor.
  std::uint64_t promised_ = 0;
  std::map<std::uint64_t, Accepted> accepted_;

  // Learner.
  std::map<std::uint64_t, std::uint64_t> chosen_;
  std::vector<std::uint64_t> applied_;
  std::atomic<std::uint64_t> applied_count_{0};

  // Proposer (valid while leading_).
  bool leading_ = false;
  bool accept_phase_ = false;
  std::uint64_t ballot_ = 0;
  std::uint64_t ballot_counter_ = 0;
  std::uint64_t phase_started_ = 0;
  std::vector<PromiseInfo> promises_;
  std::size_t full_promises_ = 0;
  std::map<std::uint64_t, Accepted> inherited_;
  std::uint64_t next_slot_ = 0;
  std::map<std::uint64_t, std::pair<std::uint64_t, std::set<Pid>>> in_flight_;  ///< slot → (cmd, acks)

  std::uint64_t iter_ = 0;
};

}  // namespace mm::core
