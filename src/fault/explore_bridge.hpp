// Chaos -> check bridge: lift a chaos repro into the explorable fragment.
//
// E18's chaos campaigns SAMPLE fault schedules: a repro documents one
// trigger placement (crash p2 on its 7th send, open the cut at step 312)
// that produced a violation. The explorer can do strictly better on the
// cases it can express: discard the sampled placement entirely and hand
// each fault to the DPOR explorer as a pseudo-process event it may fire at
// ANY step (or never). The bridged instance therefore covers a superset of
// the repro's schedule — if the repro's violation is real within the
// explorable fragment, exhaustive exploration must rediscover it, and a
// clean repro must verify clean on EVERY placement, not just the sampled
// one.
//
// The explorable fragment (check/dpor.hpp soundness envelope) is narrower
// than the chaos grammar, so bridging is partial by design:
//   * consensus cases only, algo = hbo (Ω cases lean on real time; the
//     explorer owns the clock);
//   * kCrash rules with explicit targets -> ExploreFaults::crashes;
//   * kPartition rules -> the explorer-owned transient partition window
//     (one cut; the explorer places both toggles, subsuming kHealPartition);
//   * pure-drop kLinkBurst rules -> one unit of the explorer's drop budget
//     each (duplication and extra delay break the unit-delay precondition);
//   * kMemoryWindow / kGoByzantine and baseline random crashes (f > 0)
//     have no dependency class -> BridgeError, keep sampling those with
//     chaos campaigns.
//
// Violation messages from the bridged oracle are "<oracle>: <detail>", so a
// replay can check it rediscovered the SAME oracle the repro recorded.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "check/instances.hpp"
#include "fault/chaos.hpp"

namespace mm::fault {

/// Thrown when a case falls outside the explorable fragment. The message
/// names the offending rule/knob and the campaign-side alternative.
class BridgeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Build an explorable instance from a chaos case. `recorded` (the repro's
/// claimed violation, if any) tunes the explorer budgets: a recorded
/// termination violation disables idle-slice collapse and tightens the step
/// budget so livelocks surface as truncated runs the oracle flags, instead
/// of vanishing into the cycle prune. Throws BridgeError outside the
/// fragment (see file comment).
[[nodiscard]] check::Instance instance_from_chaos(const ChaosCase& c,
                                                  const Violation* recorded);

struct BridgedRepro {
  check::Instance instance;
  std::optional<Violation> recorded;  ///< the violation the repro claims
};

/// Parse a version-1/2 chaos repro document (fault/chaos.hpp envelope) and
/// bridge its case. Throws JsonError on malformed input, BridgeError when
/// the case is outside the explorable fragment.
[[nodiscard]] BridgedRepro bridge_repro(std::string_view repro_json);

/// The oracle a bridged-instance violation message names (messages are
/// "<oracle>: <detail>"); nullopt when the prefix is not an oracle name.
[[nodiscard]] std::optional<Oracle> violation_oracle(std::string_view message);

}  // namespace mm::fault
