// The reactive fault-rule grammar.
//
// A FaultRule is "when <trigger> fires, perform <action>": crash a process
// on its Nth send, open a partition when round 3 starts, fail a host's
// memory for 2000 steps at step 500, spike the links while the first write
// to the Ω STATE class is in flight. Rules are deliberately flat PODs — the
// JSON repro format serializes them field-for-field and the delta-debugging
// shrinker mutates them without knowing anything about their semantics.
//
// Rules fire at most once. All randomness lives in the *generation* of a
// schedule (tools/chaos draws rules from a seeded Rng); evaluating rules
// against a run is purely deterministic, which is what makes a shrunken
// schedule replayable.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "common/ids.hpp"

namespace mm::fault {

/// What a rule reacts to.
enum class Trigger : std::uint8_t {
  kAtStep,         ///< global step reaches `count`
  kOnNthSend,      ///< `who` (any process if none) performs its `count`-th send
  kOnFirstWrite,   ///< first write to a register with tag `count` (a register
                   ///< class, e.g. the Ω STATE registers)
  kOnRoundEntry,   ///< first write to a register of round >= `count` — the
                   ///< earliest shared-memory evidence a round has started
};

/// What firing does. Durations are relative to the firing step; 0 means
/// permanent (crash-like) where a window would otherwise apply.
enum class Action : std::uint8_t {
  kCrash,          ///< crash `target` (the triggering process if none)
  kPartition,      ///< install a partition with mask `mask` for `duration` steps
  kHealPartition,  ///< remove any active partition
  kMemoryWindow,   ///< fail `target`'s host memory for `duration` steps (0 = forever)
  kLinkBurst,      ///< drop/duplicate/delay-spike messages for `duration` steps
  kGoByzantine,    ///< corrupt `target` with behaviours `byz_behaviors`
};

struct FaultRule {
  Trigger trigger = Trigger::kAtStep;
  /// Trigger subject (the sender for kOnNthSend, the writer for the write
  /// triggers); Pid::none() = any process.
  Pid who = Pid::none();
  /// Trigger threshold: the step for kAtStep, N for kOnNthSend, the register
  /// tag for kOnFirstWrite, the round for kOnRoundEntry.
  std::uint64_t count = 0;

  Action action = Action::kCrash;
  /// Action subject for kCrash / kMemoryWindow; Pid::none() = the triggering
  /// process (p0 for kAtStep, where no process triggers).
  Pid target = Pid::none();
  std::uint64_t mask = 0;       ///< kPartition side_a bitmask
  Step duration = 0;            ///< window length in steps; 0 = permanent
  /// kLinkBurst per-message drop probability; doubles as the kGoByzantine
  /// corruption intensity (0 = always corrupt, mirroring duration 0 = forever).
  double drop_prob = 0.0;
  double dup_prob = 0.0;        ///< kLinkBurst per-message duplication probability
  Step extra_delay = 0;         ///< kLinkBurst max extra delay per message
  /// kGoByzantine behaviour bits (fault/byzantine.hpp: kByzEquivocate | ...).
  std::uint32_t byz_behaviors = 0;
  std::uint64_t byz_silence_mask = 0;  ///< kGoByzantine + kByzSilence destinations

  friend bool operator==(const FaultRule&, const FaultRule&) = default;
};

[[nodiscard]] const char* to_string(Trigger t) noexcept;
[[nodiscard]] const char* to_string(Action a) noexcept;
[[nodiscard]] std::optional<Trigger> trigger_from_string(std::string_view s) noexcept;
[[nodiscard]] std::optional<Action> action_from_string(std::string_view s) noexcept;

}  // namespace mm::fault
