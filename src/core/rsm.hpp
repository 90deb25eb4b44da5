// Replicated state machine over m&m consensus — "evaluating algorithms in
// practice", per the paper's conclusion.
//
// A LogReplica agrees on a totally ordered log of fixed-width commands, one
// MultiConsensus instance per slot. Because each slot's consensus is HBO
// underneath, the log stays live as long as the surviving replicas represent
// a strict majority in GSM — i.e. the replicated service inherits the
// beyond-majority fault tolerance of §4.
//
// Usage: every replica calls run_slot(env, my_command) for slot 0, 1, 2, ...
// in lockstep (a replica with nothing to propose submits kNoopCommand). The
// decided command sequence is identical at every replica; apply() hands each
// decided command to the application in order.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/multi_consensus.hpp"
#include "graph/graph.hpp"
#include "runtime/env.hpp"

namespace mm::core {

inline constexpr std::uint64_t kNoopCommand = 0;

class LogReplica {
 public:
  struct Config {
    const graph::Graph* gsm = nullptr;
    std::uint32_t command_bits = 20;  ///< width of a command word
    std::uint32_t max_slots = 64;     ///< instance-space budget: slots*bits ≤ 4095
    /// Called once per decided slot, in log order.
    std::function<void(std::uint64_t slot, std::uint64_t command)> apply;
  };

  explicit LogReplica(Config config);

  /// Run consensus for the next slot, proposing `command` (use kNoopCommand
  /// to just participate). Returns the decided command, or nullopt if the
  /// run was stopped before the slot decided.
  std::optional<std::uint64_t> run_slot(runtime::Env& env, std::uint64_t command);

  [[nodiscard]] const std::vector<std::uint64_t>& log() const noexcept { return log_; }
  [[nodiscard]] std::size_t next_slot() const noexcept { return log_.size(); }

 private:
  Config config_;
  std::vector<std::uint64_t> log_;
  std::vector<runtime::Message> carry_;  ///< messages threaded between slots
};

}  // namespace mm::core
