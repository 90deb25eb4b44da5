// Single-decree Paxos driven by the m&m leader election — the combination
// the paper motivates in §2/§5: Ω is the weakest failure detector for
// consensus, and the m&m model implements Ω with almost no synchrony. The
// result is a DETERMINISTIC consensus (contrast HBO's coin flips) that
// tolerates f < n/2 crashes and whose only synchrony requirement is the one
// timely process Ω needs — no timely links anywhere (compare Paxos deployed
// over a message-passing ◇-timely-link detector).
//
// Every process plays proposer, acceptor, and learner. The embedded OmegaMM
// instance (register-notification variant, so leadership itself needs no
// message timeliness) gates the proposer role: a process attempts a ballot
// only while it believes itself leader. Safety is classic Paxos and holds
// under full asynchrony regardless of Ω's output; Ω only provides liveness.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/omega.hpp"
#include "runtime/env.hpp"

namespace mm::core {

class OmegaPaxos {
 public:
  explicit OmegaPaxos(std::uint32_t initial_value);

  /// Process body: participates until decided AND the decision has been
  /// broadcast, then returns. (Ω keeps running until then.)
  void run(runtime::Env& env);

  [[nodiscard]] int decision() const noexcept { return decision_.load(std::memory_order_acquire); }
  [[nodiscard]] std::uint32_t initial_value() const noexcept { return initial_value_; }
  /// Number of ballots this process attempted as proposer (liveness probe).
  [[nodiscard]] std::uint64_t ballots_attempted() const noexcept {
    return ballots_.load(std::memory_order_acquire);
  }

 private:
  struct AcceptorState {
    std::uint64_t promised = 0;          ///< highest ballot promised (0 = none)
    std::uint64_t accepted_ballot = 0;   ///< 0 = nothing accepted
    std::uint32_t accepted_value = 0;
  };
  struct ProposerState {
    bool active = false;
    std::uint64_t ballot = 0;
    std::uint64_t started_iter = 0;
    bool accept_phase = false;
    std::uint32_t value = 0;
    std::vector<bool> promised_from;
    std::vector<bool> accepted_from;
    std::size_t promises = 0;
    std::size_t accepts = 0;
    std::uint64_t best_accepted_ballot = 0;
  };

  void handle(runtime::Env& env, const runtime::Message& m);
  void start_ballot(runtime::Env& env);
  void decide(runtime::Env& env, std::uint32_t value);

  std::uint32_t initial_value_;
  OmegaMM omega_;
  AcceptorState acceptor_;
  ProposerState proposer_;
  std::uint64_t iter_ = 0;
  std::atomic<int> decision_{-1};
  std::atomic<std::uint64_t> ballots_{0};
};

}  // namespace mm::core
