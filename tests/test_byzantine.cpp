// Tests for the Byzantine adversary subsystem: the dedicated adversary RNG
// stream (empty set = zero draws = bit-identical runs), the per-behavior
// interposition semantics, the signature-free Byzantine-tolerant register's
// resilience frontier (n > 3f pure messages, n > 2f hybrid m&m), and the
// chaos-campaign integration (planted over-tolerant configs are found,
// ddmin-shrunk, and replay from JSON).
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "core/tags.hpp"
#include "core/trial.hpp"
#include "fault/byzantine.hpp"
#include "fault/campaign.hpp"
#include "fault/engine.hpp"
#include "fault/shrink.hpp"
#include "graph/generators.hpp"
#include "runtime/sim_config.hpp"

namespace mm {
namespace {

using namespace mm::fault;

FaultRule byz_rule(std::uint32_t target, std::uint32_t behaviors,
                   std::uint64_t silence_mask = 0) {
  FaultRule r;
  r.trigger = Trigger::kAtStep;
  r.count = 0;  // byzantine from the first step
  r.action = Action::kGoByzantine;
  r.target = Pid{target};
  r.byz_behaviors = behaviors;
  r.byz_silence_mask = silence_mask;
  return r;
}

core::ByzRegisterTrialConfig byz_cfg(std::size_t n, std::uint64_t seed,
                                     std::size_t f, bool hybrid) {
  core::ByzRegisterTrialConfig cfg;
  cfg.gsm = hybrid ? graph::complete(n) : graph::edgeless(n);
  cfg.seed = seed;
  cfg.f = f;
  cfg.use_gsm = hybrid;
  cfg.byzantine.assign(n, 0);
  return cfg;
}

const std::vector<Oracle> kAllByzOracles = {Oracle::kByzAgreement, Oracle::kByzValidity,
                                            Oracle::kByzLinearizable,
                                            Oracle::kTermination};

// ---------------------------------------------------------------------------
// The adversary itself: empty-set contract, pinned stream, behaviors
// ---------------------------------------------------------------------------

TEST(ByzAdversary, EmptySetDrawsNothingAndPassesThrough) {
  ByzantineAdversary adv{123};
  runtime::Message m;
  m.kind = 7;
  m.value = 42;
  m.aux = 9;
  for (std::uint32_t p = 0; p < 8; ++p) {
    EXPECT_TRUE(adv.on_byz_send(Pid{p}, Pid{(p + 1) % 8}, m));
    std::uint64_t v = 5;
    adv.on_byz_reg_write(Pid{p}, runtime::RegKey::make(core::kTagState, Pid{p}, 0), v);
    EXPECT_EQ(v, 5u);
  }
  EXPECT_EQ(m.value, 42u);
  EXPECT_EQ(m.aux, 9u);
  EXPECT_EQ(adv.count(), 0u);
  EXPECT_EQ(adv.byz_mask(), 0u);
  EXPECT_EQ(adv.rng_draws(), 0u) << "empty adversary must not touch its stream";
}

TEST(ByzAdversary, CorruptionStreamIsPinnedToItsSeed) {
  // kByzCorrupt at full intensity draws exactly twice per send (value, aux),
  // straight off the dedicated stream — pin the mapping so any accidental
  // extra draw (which would shift every Byzantine replay) fails loudly.
  constexpr std::uint64_t kSeed = 0xfeedface;
  ByzantineAdversary adv{kSeed};
  adv.go_byzantine(Pid{1}, ByzPolicy{kByzCorrupt, 0, 1.0});
  runtime::Message m;
  m.value = 1;
  ASSERT_TRUE(adv.on_byz_send(Pid{1}, Pid{2}, m));
  Rng expect{kSeed};
  EXPECT_EQ(m.value, expect());
  EXPECT_EQ(m.aux, expect());
  EXPECT_EQ(adv.rng_draws(), 2u);
  // Sends by non-Byzantine processes draw nothing even with a non-empty set.
  runtime::Message honest;
  honest.value = 77;
  ASSERT_TRUE(adv.on_byz_send(Pid{0}, Pid{2}, honest));
  EXPECT_EQ(honest.value, 77u);
  EXPECT_EQ(adv.rng_draws(), 2u);
}

TEST(ByzAdversary, SilenceMaskSuppressesSelectively) {
  ByzantineAdversary adv{1};
  adv.go_byzantine(Pid{0}, ByzPolicy{kByzSilence, /*silence_mask=*/0b0100, 1.0});
  runtime::Message m;
  EXPECT_FALSE(adv.on_byz_send(Pid{0}, Pid{2}, m)) << "masked destination";
  EXPECT_TRUE(adv.on_byz_send(Pid{0}, Pid{1}, m)) << "unmasked destination";
  EXPECT_EQ(adv.rng_draws(), 0u) << "silence is draw-free";
}

TEST(ByzAdversary, EquivocationIsDeterministicPerDestination) {
  ByzantineAdversary adv{1};
  adv.go_byzantine(Pid{3}, ByzPolicy{kByzEquivocate, 0, 1.0});
  runtime::Message even, odd;
  even.value = odd.value = 10;
  ASSERT_TRUE(adv.on_byz_send(Pid{3}, Pid{2}, even));
  ASSERT_TRUE(adv.on_byz_send(Pid{3}, Pid{5}, odd));
  EXPECT_EQ(even.value, 10u);
  EXPECT_EQ(odd.value, 11u);
  EXPECT_EQ(adv.rng_draws(), 0u) << "equivocation is draw-free";
}

TEST(ByzAdversary, GoByzantineRuleFiresThroughTheEngine) {
  FaultEngine eng{{byz_rule(2, kByzCorrupt)}};
  EXPECT_EQ(eng.adversary().count(), 0u);
  core::ByzRegisterTrialConfig cfg = byz_cfg(4, 1, 1, false);
  cfg.byzantine[2] = 1;
  cfg.injector = &eng;
  const auto res = core::run_byz_register_trial(cfg);
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(eng.adversary().count(), 1u);
  EXPECT_EQ(eng.adversary().byz_mask(), 0b0100u);
  EXPECT_TRUE(eng.adversary().is_byzantine(Pid{2}));
  EXPECT_GT(eng.adversary().rng_draws(), 0u);
}

// ---------------------------------------------------------------------------
// Bit-identity: the subsystem compiled in + empty adversary changes nothing
// ---------------------------------------------------------------------------

TEST(ByzAdversary, EmptyAdversaryKeepsTrialsBitIdentical) {
  for (const std::uint64_t seed : {1ULL, 17ULL, 23ULL}) {
    core::ByzRegisterTrialConfig cfg = byz_cfg(5, seed, 1, false);
    const auto plain = core::run_byz_register_trial(cfg);

    FaultEngine empty{{}};
    core::ByzRegisterTrialConfig with = cfg;
    with.injector = &empty;
    const auto hooked = core::run_byz_register_trial(with);

    EXPECT_EQ(hooked.completed, plain.completed) << seed;
    EXPECT_EQ(hooked.steps_used, plain.steps_used) << seed;
    EXPECT_EQ(hooked.written, plain.written) << seed;
    EXPECT_EQ(hooked.adopted, plain.adopted) << seed;
    EXPECT_EQ(hooked.crashed, plain.crashed) << seed;
    EXPECT_EQ(empty.adversary().rng_draws(), 0u) << seed;
  }
}

TEST(ByzAdversary, CrashOnlyScheduleNeverTouchesTheByzStream) {
  // A crash-only schedule exercises the engine's actuators but must leave
  // the adversary stream untouched — the "crash-only runs stay bit-identical"
  // half of the determinism contract.
  FaultRule crash;
  crash.trigger = Trigger::kAtStep;
  crash.count = 50;
  crash.action = Action::kCrash;
  crash.target = Pid{3};
  FaultEngine eng{{crash}};
  core::ByzRegisterTrialConfig cfg = byz_cfg(5, 2, 1, false);
  cfg.injector = &eng;
  const auto res = core::run_byz_register_trial(cfg);
  EXPECT_EQ(eng.fired_count(), 1u);
  ASSERT_LT(3u, res.crashed.size());
  EXPECT_TRUE(res.crashed[3]);
  EXPECT_EQ(eng.adversary().rng_draws(), 0u);
}

// ---------------------------------------------------------------------------
// The register's resilience frontier
// ---------------------------------------------------------------------------

TEST(ByzRegister, SafeAndLiveForAllFBelowThirdUnderFullByzantine) {
  // n = 7 pure message passing: every f < n/3 with b = f fully-misbehaving
  // processes must stay safe at correct readers AND complete.
  for (std::size_t f = 1; f <= 2; ++f) {
    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL}) {
      std::vector<FaultRule> rules;
      core::ByzRegisterTrialConfig cfg = byz_cfg(7, seed, f, false);
      for (std::size_t i = 0; i < f; ++i) {
        const std::uint32_t target = static_cast<std::uint32_t>(1 + i);
        rules.push_back(byz_rule(target, kByzEquivocate | kByzCorrupt | kByzReplay));
        cfg.byzantine[target] = 1;
      }
      FaultEngine eng{std::move(rules)};
      cfg.injector = &eng;
      const auto res = core::run_byz_register_trial(cfg);
      const auto v =
          check_byz_register(res, eng.adversary().byz_mask(), kAllByzOracles);
      EXPECT_FALSE(v.has_value())
          << "f=" << f << " seed=" << seed << ": " << v->detail;
      EXPECT_TRUE(res.completed) << "f=" << f << " seed=" << seed;
    }
  }
}

TEST(ByzRegister, HybridSharedMemoryBeatsTheMessageOnlyBound) {
  // n = 7, f = 3: flatly illegal for pure message passing (needs n > 3f)…
  EXPECT_THROW((void)core::run_byz_register_trial(byz_cfg(7, 1, 3, false)),
               runtime::ConfigError);
  // …but the hybrid m&m register on the complete GSM tolerates it: with
  // adoption published through single-writer registers, only f < n/2 is
  // needed — shared-memory edges strictly extend the frontier.
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    std::vector<FaultRule> rules;
    core::ByzRegisterTrialConfig cfg = byz_cfg(7, seed, 3, true);
    for (std::uint32_t target : {1u, 3u, 5u}) {
      // Message-only misbehavior: the hybrid's trust anchor is the register
      // file, which a message-channel adversary cannot touch.
      rules.push_back(byz_rule(target, kByzEquivocate | kByzCorrupt | kByzSilence,
                               ~std::uint64_t{0}));
      cfg.byzantine[target] = 1;
    }
    FaultEngine eng{std::move(rules)};
    cfg.injector = &eng;
    const auto res = core::run_byz_register_trial(cfg);
    const auto v = check_byz_register(res, eng.adversary().byz_mask(), kAllByzOracles);
    EXPECT_FALSE(v.has_value()) << "seed=" << seed << ": " << v->detail;
    EXPECT_TRUE(res.completed) << "seed=" << seed;
  }
}

TEST(ByzRegister, CorruptWriterCollapsesTheHybridFrontier) {
  // The hybrid frontier's fine print: its register fast path trusts the
  // writer's published pairs, so one Byzantine process corrupting its own
  // *register writes* (still GSM-legal!) forges values straight into correct
  // readers — a planted safety violation the Byzantine oracles must catch.
  FaultEngine eng{{byz_rule(0, kByzCorruptWrites)}};
  core::ByzRegisterTrialConfig cfg = byz_cfg(5, 3, 1, true);
  cfg.byzantine[0] = 1;
  cfg.injector = &eng;
  const auto res = core::run_byz_register_trial(cfg);
  const auto v = check_byz_register(res, eng.adversary().byz_mask(),
                                    {Oracle::kByzAgreement, Oracle::kByzValidity,
                                     Oracle::kByzLinearizable});
  ASSERT_TRUE(v.has_value()) << "forged register writes must violate safety";
}

// ---------------------------------------------------------------------------
// Config validation
// ---------------------------------------------------------------------------

TEST(ByzConfig, ByzantineSetMustMatchArityAndAvoidCrashPlan) {
  runtime::SimConfig cfg;
  cfg.gsm = graph::complete(3);
  cfg.byzantine = {1, 0};  // wrong arity
  EXPECT_THROW(cfg.validate(), runtime::ConfigError);
  cfg.byzantine = {1, 0, 0};
  EXPECT_NO_THROW(cfg.validate());
  cfg.crash_at.assign(3, std::nullopt);
  cfg.crash_at[0] = 5;  // overlaps the Byzantine set
  EXPECT_THROW(cfg.validate(), runtime::ConfigError);
  cfg.byzantine = {0, 1, 0};
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ByzConfig, RegisterTrialsRejectOverTolerantF) {
  // Pure message passing needs n > 3f.
  EXPECT_THROW((void)core::run_byz_register_trial(byz_cfg(4, 1, 2, false)),
               runtime::ConfigError);
  // Hybrid needs n > 2f even with every shared-memory edge present.
  EXPECT_THROW((void)core::run_byz_register_trial(byz_cfg(4, 1, 2, true)),
               runtime::ConfigError);
  EXPECT_NO_THROW((void)core::run_byz_register_trial(byz_cfg(4, 1, 1, false)));
}

// ---------------------------------------------------------------------------
// Chaos integration: planted over-tolerant configs shrink and replay
// ---------------------------------------------------------------------------

TEST(ByzChaos, PlantedOverTolerantCaseIsFoundShrunkAndReplayed) {
  // f = 1 but TWO silent Byzantine processes: the write quorum n - f = 4 can
  // never fill (only 3 processes respond), so the planted termination oracle
  // fires. A link-burst rule rides along as noise for ddmin to discard.
  ChaosCase c;
  c.kind = CaseKind::kByzRegister;
  c.seed = 5;
  c.n = 5;
  c.topology = Topology::kEdgeless;
  c.f = 1;
  c.byz_writes = 2;
  c.budget = 60'000;
  c.oracles = {Oracle::kByzAgreement, Oracle::kByzValidity, Oracle::kByzLinearizable,
               Oracle::kTermination};
  c.rules.push_back(byz_rule(2, kByzSilence, ~std::uint64_t{0}));
  c.rules.push_back(byz_rule(4, kByzSilence, ~std::uint64_t{0}));
  {
    FaultRule noise;
    noise.trigger = Trigger::kAtStep;
    noise.count = 200;
    noise.action = Action::kLinkBurst;
    noise.duration = 150;
    noise.dup_prob = 0.4;
    c.rules.push_back(noise);
  }

  // 1. The oracle catches the stall.
  const ChaosOutcome out = run_chaos_case(c);
  ASSERT_TRUE(out.violation.has_value());
  EXPECT_EQ(out.violation->oracle, Oracle::kTermination);

  // 2. ddmin keeps exactly the two silences (dropping either leaves b <= f,
  //    which completes) and discards the noise burst.
  const ShrinkResult shrunk = shrink_case(c);
  EXPECT_EQ(shrunk.rules_before, 3u);
  EXPECT_EQ(shrunk.rules_after, 2u);
  for (const FaultRule& r : shrunk.minimized.rules)
    EXPECT_EQ(r.action, Action::kGoByzantine);
  EXPECT_EQ(shrunk.minimized.oracles.size(), 1u);

  // 3. JSON round trip + deterministic replay of the same violation.
  const std::string doc = repro_to_string(shrunk.minimized, &shrunk.violation);
  std::optional<Violation> recorded;
  const ChaosCase replayed = repro_from_string(doc, &recorded);
  EXPECT_EQ(replayed, shrunk.minimized);
  ASSERT_TRUE(recorded.has_value());
  const ChaosOutcome replay_out = run_chaos_case(replayed);
  ASSERT_TRUE(replay_out.violation.has_value());
  EXPECT_EQ(replay_out.violation->oracle, recorded->oracle);
}

TEST(ByzChaos, GeneratedCasesRoundTripThroughJson) {
  Rng rng{77};
  int byz_seen = 0;
  for (int i = 0; i < 60; ++i) {
    const ChaosCase c = random_case(rng, /*include_omega=*/false,
                                    /*assert_termination=*/(i % 2) == 0,
                                    /*include_byzantine=*/true);
    byz_seen += c.kind == CaseKind::kByzRegister ? 1 : 0;
    const ChaosCase back = case_from_json(Json::parse(case_to_json(c).dump(2)));
    EXPECT_EQ(back, c) << "case " << i;
  }
  EXPECT_GT(byz_seen, 5) << "the generator should actually mix in byz cases";
}

TEST(ByzCampaign, SafetyCampaignFindsNothing) {
  CampaignConfig cfg;
  cfg.seed = 21;
  cfg.trials = 20;
  cfg.include_omega = false;
  cfg.include_byzantine = true;
  const CampaignResult res = run_campaign(cfg);
  EXPECT_EQ(res.runs, 20u);
  EXPECT_EQ(res.violations, 0u) << "coherent b <= f cases must satisfy the oracles";
}

TEST(ByzCampaign, PlantedCampaignFindsByzantineViolations) {
  CampaignConfig cfg;
  cfg.seed = 5;
  cfg.trials = 30;
  cfg.include_omega = false;
  cfg.include_byzantine = true;
  cfg.assert_termination = true;
  cfg.shrink_findings = false;
  cfg.max_findings = 50;
  const CampaignResult res = run_campaign(cfg);
  EXPECT_GE(res.violations, 1u);
  bool saw_byz = false;
  for (const Finding& f : res.findings)
    saw_byz |= f.original.kind == CaseKind::kByzRegister;
  EXPECT_TRUE(saw_byz) << "planted b = f+1 silence must stall the register";
}

}  // namespace
}  // namespace mm
