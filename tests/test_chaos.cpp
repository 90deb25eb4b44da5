// Tests for the fault subsystem: rule triggers, JSON round-trips,
// determinism, fault-free bit-identity, the shrinker, and the end-to-end
// planted-bug story (violation -> ddmin -> JSON repro -> replay).
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>

#include "check/instances.hpp"
#include "core/tags.hpp"
#include "core/trial.hpp"
#include "fault/campaign.hpp"
#include "fault/engine.hpp"
#include "fault/explore_bridge.hpp"
#include "fault/json.hpp"
#include "fault/shrink.hpp"
#include "graph/generators.hpp"

namespace mm {
namespace {

using namespace mm::fault;

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

TEST(FaultJson, ScalarsRoundTrip) {
  const Json j = Json::parse(R"({"a": 18446744073709551615, "b": -1.5, "c": "x\n\"y", )"
                             R"("d": true, "e": null, "f": [1, 2, 3]})");
  EXPECT_EQ(j.at("a").as_u64(), ~std::uint64_t{0});  // 64-bit seeds stay exact
  EXPECT_DOUBLE_EQ(j.at("b").as_double(), -1.5);
  EXPECT_EQ(j.at("c").as_string(), "x\n\"y");
  EXPECT_TRUE(j.at("d").as_bool());
  EXPECT_TRUE(j.at("e").is_null());
  EXPECT_EQ(j.at("f").as_array().size(), 3u);
  // dump -> parse -> dump is a fixed point.
  const std::string once = j.dump(2);
  EXPECT_EQ(Json::parse(once).dump(2), once);
}

TEST(FaultJson, MalformedInputThrows) {
  EXPECT_THROW((void)Json::parse("{"), JsonError);
  EXPECT_THROW((void)Json::parse("[1,]"), JsonError);
  EXPECT_THROW((void)Json::parse("\"unterminated"), JsonError);
  EXPECT_THROW((void)Json::parse("{} trailing"), JsonError);
  EXPECT_THROW((void)Json::parse("nul"), JsonError);
  EXPECT_THROW((void)Json::uint(1).as_string(), JsonError);
}

TEST(FaultJson, CasesRoundTripThroughJson) {
  Rng rng{99};
  for (int i = 0; i < 50; ++i) {
    const ChaosCase c = random_case(rng, /*include_omega=*/true,
                                    /*assert_termination=*/(i % 2) == 0);
    const ChaosCase back = case_from_json(Json::parse(case_to_json(c).dump(2)));
    EXPECT_EQ(back, c) << "case " << i;
  }
}

TEST(FaultJson, ReproEnvelopeRoundTrips) {
  Rng rng{3};
  const ChaosCase c = random_case(rng, false, false);
  const Violation v{Oracle::kAgreement, "two processes disagreed"};
  std::optional<Violation> recorded;
  const ChaosCase back = repro_from_string(repro_to_string(c, &v), &recorded);
  EXPECT_EQ(back, c);
  ASSERT_TRUE(recorded.has_value());
  EXPECT_EQ(recorded->oracle, Oracle::kAgreement);
  EXPECT_EQ(recorded->detail, "two processes disagreed");
  EXPECT_THROW((void)repro_from_string("{\"format\": \"other\"}"), JsonError);
}

// A parsed case runs as written or not at all: each rejection is a JsonError
// whose message starts with the offending field.

ChaosCase consensus_case(std::size_t n, Topology topo) {
  ChaosCase c;
  c.n = n;
  c.topology = topo;
  c.oracles = {Oracle::kAgreement};
  return c;
}

/// The error case_from_json reports for `c` ("" when it parses).
std::string parse_error(const ChaosCase& c) {
  try {
    (void)case_from_json(Json::parse(case_to_json(c).dump(2)));
  } catch (const JsonError& e) {
    return e.what();
  }
  return "";
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

TEST(FaultJson, RejectsOraclesTheKindNeverEvaluates) {
  ChaosCase consensus = consensus_case(5, Topology::kComplete);
  for (const Oracle o : {Oracle::kOmegaStabilizes, Oracle::kByzAgreement}) {
    consensus.oracles = {Oracle::kAgreement, o};
    const std::string err = parse_error(consensus);
    EXPECT_TRUE(starts_with(err, "oracles: consensus cases never evaluate")) << err;
  }
  ChaosCase omega;
  omega.kind = CaseKind::kOmega;
  omega.oracles = {Oracle::kTermination};
  EXPECT_TRUE(starts_with(parse_error(omega), "oracles: omega cases")) << parse_error(omega);
  ChaosCase byz;
  byz.kind = CaseKind::kByzRegister;
  byz.oracles = {Oracle::kAgreement};
  EXPECT_TRUE(starts_with(parse_error(byz), "oracles: byz_register cases"))
      << parse_error(byz);
}

TEST(FaultJson, RejectsARecordedViolationTheKindNeverEvaluates) {
  ChaosCase omega;
  omega.kind = CaseKind::kOmega;
  omega.oracles = {Oracle::kOmegaStabilizes};
  const Violation v{Oracle::kTermination, "never decided"};
  std::optional<Violation> recorded;
  try {
    (void)repro_from_string(repro_to_string(omega, &v), &recorded);
    ADD_FAILURE() << "an omega repro recording a termination violation parsed";
  } catch (const JsonError& e) {
    EXPECT_TRUE(starts_with(e.what(), "violation.oracle: omega cases")) << e.what();
  }
}

TEST(FaultJson, RejectsAnNTheTopologyCannotBuild) {
  for (const auto& [n, topo] : {std::pair{std::size_t{2}, Topology::kRing},
                                std::pair{std::size_t{2}, Topology::kChordalRing},
                                std::pair{std::size_t{1}, Topology::kStar}}) {
    const std::string err = parse_error(consensus_case(n, topo));
    EXPECT_TRUE(starts_with(err, "n: ")) << to_string(topo) << " n=" << n << ": " << err;
  }
  EXPECT_EQ(parse_error(consensus_case(3, Topology::kRing)), "");
  EXPECT_EQ(parse_error(consensus_case(3, Topology::kChordalRing)), "");
  EXPECT_EQ(parse_error(consensus_case(2, Topology::kStar)), "");
}

TEST(FaultJson, RejectsOmegaAndByzRegisterCasesBelowTwoProcesses) {
  ChaosCase omega;
  omega.kind = CaseKind::kOmega;
  omega.n = 1;
  omega.oracles = {Oracle::kOmegaStabilizes};
  EXPECT_TRUE(starts_with(parse_error(omega), "n: ")) << parse_error(omega);
  ChaosCase byz;
  byz.kind = CaseKind::kByzRegister;
  byz.n = 1;
  byz.oracles = {Oracle::kByzAgreement};
  EXPECT_TRUE(starts_with(parse_error(byz), "n: ")) << parse_error(byz);
}

TEST(FaultJson, RejectsAConsensusFThatCrashesEveryProcess) {
  ChaosCase c = consensus_case(4, Topology::kComplete);
  c.f = 4;
  EXPECT_TRUE(starts_with(parse_error(c), "f: ")) << parse_error(c);
  c.f = 3;
  EXPECT_EQ(parse_error(c), "");
}

TEST(FaultJson, RevokeTimelyActionAndLinearizableOracleNoLongerParse) {
  ChaosCase c = consensus_case(5, Topology::kComplete);
  FaultRule crash;
  crash.action = Action::kCrash;
  c.rules = {crash};
  const std::string text = case_to_json(c).dump(2);
  const auto replaced = [&](const std::string& from, const std::string& to) {
    std::string out = text;
    out.replace(out.find(from), from.size(), to);
    return out;
  };
  EXPECT_THROW((void)case_from_json(Json::parse(replaced("\"crash\"", "\"revoke_timely\""))),
               JsonError);
  EXPECT_THROW(
      (void)case_from_json(Json::parse(replaced("\"agreement\"", "\"linearizable\""))),
      JsonError);
}

// ---------------------------------------------------------------------------
// Rule triggers
// ---------------------------------------------------------------------------

ChaosCase base_case(std::size_t n, Topology topo) {
  ChaosCase c;
  c.kind = CaseKind::kConsensus;
  c.seed = 42;
  c.n = n;
  c.topology = topo;
  c.algo = core::Algo::kHbo;
  c.budget = 120'000;
  c.oracles = {Oracle::kAgreement, Oracle::kValidity, Oracle::kTermination};
  return c;
}

TEST(FaultEngine, AtStepCrashBelowBoundStillTerminates) {
  // Crashing 2 of 6 on the complete graph stays within HBO's tolerance:
  // rules fire, the run still decides, safety holds.
  // Fault-free this configuration decides around step ~80, so the trigger
  // steps must land well inside that window.
  ChaosCase c = base_case(6, Topology::kComplete);
  for (std::uint32_t p = 0; p < 2; ++p) {
    FaultRule r;
    r.trigger = Trigger::kAtStep;
    r.count = 10 + 10 * p;
    r.action = Action::kCrash;
    r.target = Pid{p};
    c.rules.push_back(r);
  }
  const ChaosOutcome out = run_chaos_case(c);
  EXPECT_EQ(out.rules_fired, 2u);
  EXPECT_FALSE(out.violation.has_value());
  EXPECT_TRUE(out.decided);
}

TEST(FaultEngine, NthSendCrashesTheSender) {
  // target = none: the rule crashes whichever process performs its 3rd
  // send. The run must still satisfy safety (and here, liveness).
  ChaosCase c = base_case(6, Topology::kComplete);
  FaultRule r;
  r.trigger = Trigger::kOnNthSend;
  r.count = 3;
  r.action = Action::kCrash;
  c.rules.push_back(r);
  const ChaosOutcome out = run_chaos_case(c);
  EXPECT_EQ(out.rules_fired, 1u);
  EXPECT_FALSE(out.violation.has_value());
}

TEST(FaultEngine, RoundEntryAndFirstWriteFire) {
  ChaosCase c = base_case(5, Topology::kComplete);
  {
    FaultRule r;  // first write to an HBO RVals register anywhere
    r.trigger = Trigger::kOnFirstWrite;
    r.count = core::kTagRVals;
    r.action = Action::kLinkBurst;
    r.duration = 300;
    r.drop_prob = 0.2;
    c.rules.push_back(r);
  }
  {
    // HBO on the complete graph usually decides in round 1, so trigger on
    // entry to round 1 (the first register write carrying round >= 1).
    FaultRule r;
    r.trigger = Trigger::kOnRoundEntry;
    r.count = 1;
    r.action = Action::kPartition;
    r.mask = 0b00011;
    r.duration = 200;
    c.rules.push_back(r);
  }
  const ChaosOutcome out = run_chaos_case(c);
  EXPECT_EQ(out.rules_fired, 2u);
  EXPECT_FALSE(out.violation.has_value());
  EXPECT_TRUE(out.decided);
}

TEST(FaultEngine, TransientMemoryWindowKeepsHboLive) {
  // One host's memory fails for a finite window mid-run; HBO re-adopts the
  // recovered neighbor and still decides.
  ChaosCase c = base_case(5, Topology::kComplete);
  FaultRule r;
  r.trigger = Trigger::kAtStep;
  r.count = 10;  // mid-round-1: before the fault-free decision step (~80)
  r.action = Action::kMemoryWindow;
  r.target = Pid{1};
  r.duration = 500;
  c.rules.push_back(r);
  const ChaosOutcome out = run_chaos_case(c);
  EXPECT_EQ(out.rules_fired, 1u);
  EXPECT_FALSE(out.violation.has_value());
  EXPECT_TRUE(out.decided);
}

TEST(FaultEngine, OutOfRangeTargetIsInert) {
  ChaosCase c = base_case(4, Topology::kComplete);
  FaultRule r;
  r.trigger = Trigger::kAtStep;
  r.count = 10;
  r.action = Action::kCrash;
  r.target = Pid{17};  // no such process: rule fires but does nothing
  c.rules.push_back(r);
  const ChaosOutcome out = run_chaos_case(c);
  EXPECT_EQ(out.rules_fired, 1u);
  EXPECT_FALSE(out.violation.has_value());
  EXPECT_TRUE(out.decided);
}

// ---------------------------------------------------------------------------
// Determinism and fault-free identity
// ---------------------------------------------------------------------------

TEST(FaultEngine, RunsAreDeterministic) {
  Rng rng{1234};
  for (int i = 0; i < 8; ++i) {
    const ChaosCase c = random_case(rng, true, true);
    const ChaosOutcome a = run_chaos_case(c);
    const ChaosOutcome b = run_chaos_case(c);
    EXPECT_EQ(a.violation.has_value(), b.violation.has_value()) << i;
    if (a.violation && b.violation) {
      EXPECT_EQ(a.violation->oracle, b.violation->oracle);
    }
    EXPECT_EQ(a.decided, b.decided) << i;
    EXPECT_EQ(a.steps_used, b.steps_used) << i;
    EXPECT_EQ(a.rules_fired, b.rules_fired) << i;
  }
}

TEST(FaultEngine, EmptyScheduleIsBitIdenticalToNoInjector) {
  // An installed engine with zero rules must not perturb the trajectory:
  // no extra RNG draws, no scheduling change — same steps, messages, and
  // decision as a run with no injector at all.
  for (const std::uint64_t seed : {1ULL, 7ULL, 23ULL}) {
    core::ConsensusTrialConfig cfg;
    cfg.gsm = graph::chordal_ring(8);
    cfg.seed = seed;
    cfg.algo = core::Algo::kHbo;
    cfg.f = 2;
    const core::ConsensusTrialResult plain = core::run_consensus_trial(cfg);

    FaultEngine empty{{}};
    core::ConsensusTrialConfig with = cfg;
    with.injector = &empty;
    const core::ConsensusTrialResult hooked = core::run_consensus_trial(with);

    EXPECT_EQ(hooked.steps_used, plain.steps_used) << seed;
    EXPECT_EQ(hooked.msgs_sent, plain.msgs_sent) << seed;
    EXPECT_EQ(hooked.reg_ops, plain.reg_ops) << seed;
    EXPECT_EQ(hooked.decision, plain.decision) << seed;
    EXPECT_EQ(hooked.max_decided_round, plain.max_decided_round) << seed;
    EXPECT_EQ(hooked.crashed, plain.crashed) << seed;
  }
}

// ---------------------------------------------------------------------------
// Campaign + shrinker + replay: the end-to-end planted-bug story
// ---------------------------------------------------------------------------

TEST(ChaosCampaign, SafetyCampaignFindsNothing) {
  CampaignConfig cfg;
  cfg.seed = 7;
  cfg.trials = 30;
  const CampaignResult res = run_campaign(cfg);
  EXPECT_EQ(res.runs, 30u);
  EXPECT_EQ(res.violations, 0u) << "safety violation under faults: a real bug";
  EXPECT_GT(res.decided, 0u);
}

TEST(ChaosCampaign, PlantedBugIsFoundShrunkAndReplayed) {
  // The planted bug: HBO on the *edgeless* graph (= pure Ben-Or) with a
  // schedule crashing 3 of 5 processes — above the majority bound, so the
  // (false) termination invariant must be violated. One rule is pure noise
  // for the shrinker to discard.
  ChaosCase c = base_case(5, Topology::kEdgeless);
  c.budget = 60'000;
  for (std::uint32_t p = 0; p < 3; ++p) {
    FaultRule r;
    r.trigger = Trigger::kAtStep;
    r.count = 20 * p;
    r.action = Action::kCrash;
    r.target = Pid{p};
    c.rules.push_back(r);
  }
  {
    FaultRule noise;
    noise.trigger = Trigger::kAtStep;
    noise.count = 400;
    noise.action = Action::kLinkBurst;
    noise.duration = 100;
    noise.dup_prob = 0.3;
    c.rules.push_back(noise);
  }

  // 1. The oracle catches the violation.
  const ChaosOutcome out = run_chaos_case(c);
  ASSERT_TRUE(out.violation.has_value());
  EXPECT_EQ(out.violation->oracle, Oracle::kTermination);

  // 2. ddmin shrinks the schedule to exactly the 3 crashes (the burst and
  //    no single crash can be dropped: 2 of 5 crashed still decides).
  const ShrinkResult shrunk = shrink_case(c);
  EXPECT_EQ(shrunk.rules_before, 4u);
  EXPECT_EQ(shrunk.rules_after, 3u);
  for (const FaultRule& r : shrunk.minimized.rules)
    EXPECT_EQ(r.action, Action::kCrash);
  EXPECT_EQ(shrunk.minimized.oracles.size(), 1u);  // only the violated oracle

  // 3. The minimized case round-trips through the JSON repro format and
  //    deterministically reproduces the same violation.
  const std::string doc = repro_to_string(shrunk.minimized, &shrunk.violation);
  std::optional<Violation> recorded;
  const ChaosCase replayed = repro_from_string(doc, &recorded);
  EXPECT_EQ(replayed, shrunk.minimized);
  ASSERT_TRUE(recorded.has_value());
  const ChaosOutcome replay_out = run_chaos_case(replayed);
  ASSERT_TRUE(replay_out.violation.has_value());
  EXPECT_EQ(replay_out.violation->oracle, recorded->oracle);
}

// ---------------------------------------------------------------------------
// Chaos -> check bridge: from one sampled repro to an exhaustive proof
// ---------------------------------------------------------------------------

TEST(ChaosBridge, ShrunkReproReplaysExhaustivelyUnderDpor) {
  // Plant: HBO on the edgeless n=3 graph (= pure Ben-Or) with a schedule
  // crashing p1 and p2 — above the majority bound, so the (false)
  // termination invariant breaks. One noise rule for the shrinker to
  // discard; it could not be bridged (duplication), which is the point:
  // shrinking is what maps a chaos finding into the explorable fragment.
  ChaosCase c = base_case(3, Topology::kEdgeless);
  c.budget = 60'000;
  for (std::uint32_t p = 1; p < 3; ++p) {
    FaultRule r;
    r.trigger = Trigger::kAtStep;
    r.count = 10 * p;
    r.action = Action::kCrash;
    r.target = Pid{p};
    c.rules.push_back(r);
  }
  {
    FaultRule noise;
    noise.trigger = Trigger::kAtStep;
    noise.count = 400;
    noise.action = Action::kLinkBurst;
    noise.duration = 100;
    noise.dup_prob = 0.3;
    c.rules.push_back(noise);
  }

  // 1. The campaign-side oracle catches the sampled violation and ddmin
  //    shrinks the schedule to exactly the two crashes (dropping either
  //    leaves a live majority, which decides).
  const ChaosOutcome out = run_chaos_case(c);
  ASSERT_TRUE(out.violation.has_value());
  EXPECT_EQ(out.violation->oracle, Oracle::kTermination);
  const ShrinkResult shrunk = shrink_case(c);
  EXPECT_EQ(shrunk.rules_after, 2u);
  for (const FaultRule& r : shrunk.minimized.rules)
    EXPECT_EQ(r.action, Action::kCrash);

  // 2. Bridge the emitted repro document: the sampled crash *steps* are
  //    discarded and each crash becomes an explorer-owned pseudo-event.
  const std::string doc = repro_to_string(shrunk.minimized, &shrunk.violation);
  const BridgedRepro bridged = bridge_repro(doc);
  ASSERT_TRUE(bridged.recorded.has_value());
  EXPECT_EQ(bridged.recorded->oracle, Oracle::kTermination);
  EXPECT_TRUE(bridged.instance.expect_violation);
  EXPECT_FALSE(bridged.instance.dpor.idle_slice_collapse)
      << "a claimed livelock must surface as truncation, not a cycle prune";

  // 3. DPOR rediscovers the SAME oracle violation — now as a schedule it
  //    *constructed* (both crash events fired before the quorum formed),
  //    not one the campaign sampled. The replay budget is pinned: a
  //    reduction bug that skips crash placements shows up as a blown pin.
  const check::InstanceVerdict v = check_instance_dpor(bridged.instance);
  ASSERT_TRUE(v.violation.has_value());
  EXPECT_EQ(violation_oracle(*v.violation), Oracle::kTermination);
  EXPECT_LE(v.violation_run, 50u) << "crash placements should trip early";
}

TEST(ChaosBridge, CleanReproVerifiesCleanAcrossPlacements) {
  // A repro with no recorded violation: a transient partition the sampled
  // run survived. The bridge turns the one sampled window into explorer-
  // owned toggles, so every explored schedule re-proves the decision under
  // a *different* placement (including "never opens"). Full HBO instances
  // run to millions of schedules, so the unit test caps the replay budget;
  // the run-to-exhaustion versions are the E19 corpus instances
  // (hbo3-anycrash and friends, docs/EXPERIMENTS.md).
  ChaosCase c = base_case(2, Topology::kComplete);
  FaultRule cut;
  cut.trigger = Trigger::kAtStep;
  cut.count = 25;
  cut.action = Action::kPartition;
  cut.mask = 0b01;
  cut.duration = 200;
  c.rules.push_back(cut);
  FaultRule heal;
  heal.action = Action::kHealPartition;
  heal.trigger = Trigger::kAtStep;
  heal.count = 300;
  c.rules.push_back(heal);  // subsumed: the explorer owns the off-toggle
  const BridgedRepro bridged = bridge_repro(repro_to_string(c, nullptr));
  EXPECT_FALSE(bridged.recorded.has_value());
  EXPECT_FALSE(bridged.instance.expect_violation);
  EXPECT_NE(bridged.instance.description.find("partition window"),
            std::string::npos);

  check::DporOptions opts = bridged.instance.dpor;
  opts.max_runs = 5'000;
  const check::InstanceVerdict v = check_instance_dpor(bridged.instance, opts);
  EXPECT_FALSE(v.violation.has_value()) << *v.violation;
  EXPECT_EQ(v.result.runs, 5'000u) << "the toggle placements alone exceed "
                                      "the cap; fewer runs means the fault "
                                      "pseudo-events went unscheduled";
}

TEST(ChaosBridge, OutsideFragmentCasesAreRejectedWithReasons) {
  // Ω cases lean on real time — no bridge.
  {
    ChaosCase c;
    c.kind = CaseKind::kOmega;
    EXPECT_THROW((void)instance_from_chaos(c, nullptr), BridgeError);
  }
  // Byzantine interposition has no dependency class (same contract the
  // explorer's config validation pins).
  {
    ChaosCase c = base_case(3, Topology::kComplete);
    FaultRule r;
    r.action = Action::kGoByzantine;
    r.target = Pid{1};
    c.rules.push_back(r);
    EXPECT_THROW((void)instance_from_chaos(c, nullptr), BridgeError);
  }
  // Memory-failure windows and baseline random crashes: explicit rejects.
  {
    ChaosCase c = base_case(3, Topology::kComplete);
    FaultRule r;
    r.action = Action::kMemoryWindow;
    r.target = Pid{1};
    c.rules.push_back(r);
    EXPECT_THROW((void)instance_from_chaos(c, nullptr), BridgeError);
  }
  {
    ChaosCase c = base_case(3, Topology::kComplete);
    c.f = 1;
    EXPECT_THROW((void)instance_from_chaos(c, nullptr), BridgeError);
  }
  // A burst that only drops bridges onto the drop budget; duplication does
  // not.
  {
    ChaosCase c = base_case(3, Topology::kComplete);
    FaultRule r;
    r.action = Action::kLinkBurst;
    r.drop_prob = 0.5;
    c.rules.push_back(r);
    const check::Instance in = instance_from_chaos(c, nullptr);
    EXPECT_NE(in.description.find("drop budget 1"), std::string::npos);
    r.dup_prob = 0.5;
    c.rules.push_back(r);
    EXPECT_THROW((void)instance_from_chaos(c, nullptr), BridgeError);
  }
}

TEST(ChaosShrink, TerminationViolationsSkipBudgetShrink) {
  // Any budget "reproduces" a liveness failure — never deciding, never
  // settling on one leader — so budget-shrinking one would minimize to a
  // vacuous near-zero-step repro; the shrinker must leave the budget alone
  // for both liveness oracles.
  ChaosCase consensus = base_case(5, Topology::kEdgeless);
  consensus.budget = 60'000;
  for (std::uint32_t p = 0; p < 3; ++p) {
    FaultRule r;
    r.trigger = Trigger::kAtStep;
    r.count = 0;
    r.action = Action::kCrash;
    r.target = Pid{p};
    consensus.rules.push_back(r);
  }

  // Ω with a budget below the stabilization horizon (10 agreeing checks
  // 500 steps apart), so no run can stabilize, plus a crash of a
  // non-timely process for the rule shrinker to remove.
  ChaosCase omega;
  omega.kind = CaseKind::kOmega;
  omega.n = 4;
  omega.budget = 4'000;
  omega.oracles = {Oracle::kOmegaStabilizes};
  FaultRule crash;
  crash.trigger = Trigger::kAtStep;
  crash.count = 1'000;
  crash.action = Action::kCrash;
  crash.target = Pid{1};
  omega.rules.push_back(crash);

  for (const ChaosCase& c : {consensus, omega}) {
    SCOPED_TRACE(to_string(c.oracles.back()));
    const ShrinkResult shrunk = shrink_case(c);
    EXPECT_EQ(shrunk.violation.oracle, c.oracles.back());
    EXPECT_EQ(shrunk.budget_after, shrunk.budget_before)
        << "liveness violations must not budget-shrink (vacuous repro)";
  }
}

}  // namespace
}  // namespace mm
