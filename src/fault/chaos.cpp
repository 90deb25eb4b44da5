#include "fault/chaos.hpp"

#include "common/assert.hpp"
#include "core/tags.hpp"
#include "fault/engine.hpp"
#include "graph/generators.hpp"

namespace mm::fault {

const char* to_string(CaseKind k) noexcept {
  switch (k) {
    case CaseKind::kConsensus: return "consensus";
    case CaseKind::kOmega: return "omega";
    case CaseKind::kByzRegister: return "byz_register";
  }
  return "?";
}

const char* to_string(Topology t) noexcept {
  switch (t) {
    case Topology::kComplete: return "complete";
    case Topology::kRing: return "ring";
    case Topology::kChordalRing: return "chordal_ring";
    case Topology::kStar: return "star";
    case Topology::kEdgeless: return "edgeless";
  }
  return "?";
}

std::optional<Topology> topology_from_string(std::string_view s) noexcept {
  for (auto t : {Topology::kComplete, Topology::kRing, Topology::kChordalRing,
                 Topology::kStar, Topology::kEdgeless})
    if (s == to_string(t)) return t;
  return std::nullopt;
}

graph::Graph make_topology(Topology t, std::size_t n) {
  switch (t) {
    case Topology::kComplete: return graph::complete(n);
    case Topology::kRing: return graph::ring(n);
    case Topology::kChordalRing:
      return (n >= 4 && n % 2 == 0) ? graph::chordal_ring(n) : graph::ring(n);
    case Topology::kStar: return graph::star(n);
    case Topology::kEdgeless: return graph::edgeless(n);
  }
  return graph::edgeless(n);
}

namespace {

std::optional<core::Algo> algo_from_string(std::string_view s) noexcept {
  for (auto a : {core::Algo::kHbo, core::Algo::kBenOr, core::Algo::kSmConsensus})
    if (s == core::to_string(a)) return a;
  return std::nullopt;
}

std::optional<core::OmegaAlgo> omega_algo_from_string(std::string_view s) noexcept {
  for (auto a : {core::OmegaAlgo::kMnmReliable, core::OmegaAlgo::kMnmFairLossy,
                 core::OmegaAlgo::kMessagePassing})
    if (s == core::to_string(a)) return a;
  return std::nullopt;
}

}  // namespace

// ---------------------------------------------------------------------------
// Running
// ---------------------------------------------------------------------------

ChaosOutcome run_chaos_case(const ChaosCase& c, std::size_t trace_capacity) {
  ChaosOutcome out;
  FaultEngine engine{c.rules};

  if (c.kind == CaseKind::kConsensus) {
    core::ConsensusTrialConfig tc;
    tc.gsm = make_topology(c.topology, c.n);
    tc.seed = c.seed;
    tc.algo = c.algo;
    tc.f = c.f;
    tc.crash_pick = c.f > 0 ? core::CrashPick::kRandom : core::CrashPick::kNone;
    tc.crash_window = c.crash_window;
    tc.max_delay = c.max_delay;
    tc.budget = c.budget;
    tc.max_rounds = c.max_rounds;
    tc.injector = &engine;
    tc.trace_capacity = trace_capacity;
    const core::ConsensusTrialResult res = core::run_consensus_trial(tc);
    out.decided = res.all_correct_decided;
    out.steps_used = res.steps_used;
    out.violation = check_consensus(res, c.oracles);
    out.trace_tail = res.trace_tail;
  } else if (c.kind == CaseKind::kByzRegister) {
    core::ByzRegisterTrialConfig bc;
    bc.gsm = make_topology(c.topology, c.n);
    bc.seed = c.seed;
    bc.f = c.f;
    bc.use_gsm = c.byz_hybrid;
    bc.writes = c.byz_writes;
    bc.budget = c.budget;
    bc.max_delay = c.max_delay;
    // The declarative Byzantine set is derived from the schedule so it can
    // never drift from what the engine will actually corrupt — ddmin removing
    // a kGoByzantine rule shrinks both in lockstep.
    bc.byzantine.assign(c.n, 0);
    for (const FaultRule& r : c.rules)
      if (r.action == Action::kGoByzantine && !r.target.is_none() &&
          r.target.index() < c.n)
        bc.byzantine[r.target.index()] = 1;
    bc.injector = &engine;
    bc.trace_capacity = trace_capacity;
    try {
      const core::ByzRegisterTrialResult res = core::run_byz_register_trial(bc);
      out.decided = res.completed;
      out.steps_used = res.steps_used;
      out.violation = check_byz_register(res, engine.adversary().byz_mask(), c.oracles);
      out.trace_tail = res.trace_tail;
    } catch (const runtime::ConfigError&) {
      // Hand-edited or shrink-probed cases can leave the register's legal
      // envelope (f past the resilience bound, hybrid without the required
      // writer edges). An illegal case proves nothing: report it as passing
      // so the shrinker backs off instead of "minimizing" into nonsense.
      out.decided = false;
    }
  } else {
    core::OmegaTrialConfig oc;
    oc.n = c.n;
    oc.seed = c.seed;
    oc.algo = c.omega_algo;
    oc.drop_prob = c.drop_prob;
    oc.max_delay = c.max_delay;
    oc.budget = c.budget;
    oc.injector = &engine;
    oc.trace_capacity = trace_capacity;
    const core::OmegaTrialResult res = core::run_omega_trial(oc);
    out.decided = res.stabilized;
    out.steps_used = res.stabilization_step;
    out.violation = check_omega(res, c.oracles);
    out.trace_tail = res.trace_tail;
  }
  out.rules_fired = engine.fired_count();
  return out;
}

// ---------------------------------------------------------------------------
// Generation
// ---------------------------------------------------------------------------

namespace {

FaultRule random_consensus_rule(Rng& rng, std::size_t n) {
  FaultRule r;
  switch (rng.below(4)) {
    case 0:
      r.trigger = Trigger::kAtStep;
      r.count = rng.below(3'000);
      break;
    case 1:
      r.trigger = Trigger::kOnNthSend;
      r.who = rng.coin() ? Pid::none() : Pid{static_cast<std::uint32_t>(rng.below(n))};
      r.count = rng.between(1, 40);
      break;
    case 2:
      r.trigger = Trigger::kOnFirstWrite;
      r.count = rng.between(core::kTagRVals, core::kTagPVals);
      break;
    default:
      r.trigger = Trigger::kOnRoundEntry;
      r.count = rng.between(1, 8);
      break;
  }
  switch (rng.below(6)) {
    case 0:
    case 1:  // crashes are the most interesting action; weight them up
      r.action = Action::kCrash;
      r.target = rng.coin() ? Pid::none() : Pid{static_cast<std::uint32_t>(rng.below(n))};
      break;
    case 2:
      r.action = Action::kMemoryWindow;
      r.target = rng.coin() ? Pid::none() : Pid{static_cast<std::uint32_t>(rng.below(n))};
      r.duration = rng.coin() ? Step{0} : rng.between(500, 5'000);
      break;
    case 3:
      r.action = Action::kPartition;
      r.mask = rng() & ((n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1));
      r.duration = rng.coin() ? Step{0} : rng.between(500, 4'000);
      break;
    case 4:
      r.action = Action::kLinkBurst;
      r.duration = rng.between(200, 2'000);
      r.drop_prob = 0.8 * rng.uniform01();
      r.dup_prob = 0.5 * rng.uniform01();
      r.extra_delay = rng.below(64);
      break;
    default:
      r.action = Action::kHealPartition;
      break;
  }
  return r;
}

FaultRule random_omega_rule(Rng& rng, std::size_t n) {
  // Ω campaigns expect stabilization, so schedules stay away from the timely
  // process p0 (§3's guarantee is the algorithm's liveness precondition) and
  // every disruption is transient.
  FaultRule r;
  if (rng.coin()) {
    r.trigger = Trigger::kAtStep;
    r.count = rng.below(8'000);
  } else {
    r.trigger = Trigger::kOnNthSend;
    r.who = Pid::none();
    r.count = rng.between(1, 50);
  }
  const Pid non_timely{static_cast<std::uint32_t>(rng.between(1, n - 1))};
  switch (rng.below(3)) {
    case 0:
      r.action = Action::kCrash;
      r.target = non_timely;
      break;
    case 1:
      r.action = Action::kMemoryWindow;
      r.target = non_timely;
      r.duration = rng.between(1'000, 8'000);
      break;
    default:
      r.action = Action::kLinkBurst;
      r.duration = rng.between(200, 1'500);
      r.drop_prob = 0.4 * rng.uniform01();
      r.dup_prob = 0.3 * rng.uniform01();
      r.extra_delay = rng.below(16);
      break;
  }
  return r;
}

/// Byzantine-register cases. Safety campaigns draw coherent instances
/// (b ≤ f within the mode's resilience bound, writer never Byzantine, only
/// message-channel misbehavior in hybrid mode) so the Byzantine safety
/// oracles are genuine invariants. Planted campaigns instead arm termination
/// and corrupt one silent process *more* than f: the write quorum n − f then
/// provably cannot fill (only n − b = n − f − 1 processes respond).
ChaosCase random_byz_case(Rng& rng, bool assert_termination) {
  ChaosCase c;
  c.kind = CaseKind::kByzRegister;
  c.seed = rng();
  c.n = 4 + rng.below(6);  // 4..9
  c.byz_hybrid = !assert_termination && rng.coin();
  if (c.byz_hybrid) {
    // Hybrid rides the shared-memory fast path: every adoption is published
    // to a register the whole (complete) neighborhood can read, so the
    // instance tolerates any f < n/2.
    c.topology = Topology::kComplete;
    c.f = rng.between(1, (c.n - 1) / 2);
  } else {
    // Pure message passing: classic signature-free bound n > 3f.
    c.topology = Topology::kEdgeless;
    const std::size_t fmax = (c.n - 1) / 3;
    c.f = fmax == 0 ? 0 : rng.below(fmax + 1);
  }
  const std::size_t b = assert_termination ? c.f + 1 : rng.below(c.f + 1);
  c.byz_writes = 2 + rng.below(3);
  c.max_delay = rng.between(2, 10);
  c.budget = 200'000;
  c.oracles = {Oracle::kByzAgreement, Oracle::kByzValidity, Oracle::kByzLinearizable};
  if (assert_termination) c.oracles.push_back(Oracle::kTermination);

  // Corrupt b distinct non-writer processes; the writer stays honest so
  // check_swmr_atomic's distinct-write precondition holds at correct procs.
  std::vector<std::uint32_t> pool;
  for (std::uint32_t p = 1; p < c.n; ++p) pool.push_back(p);
  for (std::size_t i = 0; i < b && !pool.empty(); ++i) {
    const std::size_t pick = static_cast<std::size_t>(rng.below(pool.size()));
    FaultRule r;
    r.trigger = Trigger::kAtStep;
    r.count = rng.below(1'500);
    r.action = Action::kGoByzantine;
    r.target = Pid{pool[pick]};
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
    if (assert_termination) {
      r.byz_behaviors = kByzSilence;
      r.byz_silence_mask = ~std::uint64_t{0};  // silent toward everyone
      r.count = 0;                             // byzantine from the first step
    } else {
      // Any mix of message-channel misbehavior; kByzCorruptWrites stays out
      // of generated cases (it attacks the register fast path, which only a
      // Byzantine *writer* can leverage — the deliberately-planted demos).
      r.byz_behaviors = 1U + static_cast<std::uint32_t>(
                                 rng.below((kByzEquivocate | kByzSilence |
                                            kByzCorrupt | kByzReplay)));
      if ((r.byz_behaviors & kByzSilence) != 0)
        r.byz_silence_mask = rng();  // silence a random destination subset
      r.drop_prob = rng.coin() ? 0.0 : rng.uniform01();  // corruption intensity
    }
    c.rules.push_back(r);
  }
  return c;
}

}  // namespace

ChaosCase random_case(Rng& rng, bool include_omega, bool assert_termination,
                      bool include_byzantine) {
  ChaosCase c;
  c.seed = rng();
  if (include_byzantine && rng.below(3) == 0)
    return random_byz_case(rng, assert_termination);
  if (include_omega && rng.below(4) == 0) {
    c.kind = CaseKind::kOmega;
    c.n = 4 + rng.below(5);
    c.omega_algo =
        rng.coin() ? core::OmegaAlgo::kMnmReliable : core::OmegaAlgo::kMnmFairLossy;
    c.drop_prob =
        c.omega_algo == core::OmegaAlgo::kMnmFairLossy ? 0.1 + 0.3 * rng.uniform01() : 0.0;
    c.max_delay = rng.between(2, 10);
    c.budget = 500'000;
    c.oracles = {Oracle::kOmegaStabilizes};
    const std::uint64_t n_rules = rng.below(3);
    for (std::uint64_t i = 0; i < n_rules; ++i)
      c.rules.push_back(random_omega_rule(rng, c.n));
    return c;
  }
  c.kind = CaseKind::kConsensus;
  c.n = 4 + rng.below(6);
  c.topology = static_cast<Topology>(rng.below(5));
  c.algo = rng.coin() ? core::Algo::kHbo : core::Algo::kBenOr;
  // Planted campaigns draw crash counts up to n-1: above the Theorem 4.3
  // tolerance on sparse topologies, so the false termination invariant has
  // something to find. Safety campaigns stay mild so most runs decide.
  const std::size_t f_bound = assert_termination ? c.n : (c.n - 1) / 2 + 1;
  c.f = rng.below(2) == 0 ? 0 : rng.below(f_bound);
  // Near-initially-dead crashes (the adversary the tolerance thresholds are
  // stated against); mild windows let most crashes land after the decision.
  if (assert_termination) c.crash_window = rng.below(300);
  c.max_delay = rng.between(2, 14);
  c.budget = 200'000;
  c.oracles = {Oracle::kAgreement, Oracle::kValidity};
  if (assert_termination) c.oracles.push_back(Oracle::kTermination);
  const std::uint64_t n_rules = rng.below(4);
  for (std::uint64_t i = 0; i < n_rules; ++i)
    c.rules.push_back(random_consensus_rule(rng, c.n));
  return c;
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

namespace {

Json pid_to_json(Pid p) {
  if (p.is_none()) return Json{};
  return Json::uint(p.value());
}

/// Whether run_chaos_case's check_* call for cases of kind `k` evaluates `o`.
bool evaluates(CaseKind k, Oracle o) {
  using enum Oracle;
  switch (k) {
    case CaseKind::kConsensus: return o == kAgreement || o == kValidity || o == kTermination;
    case CaseKind::kOmega: return o == kOmegaStabilizes;
    case CaseKind::kByzRegister:
      return o == kByzAgreement || o == kByzValidity || o == kByzLinearizable || o == kTermination;
  }
  return false;
}

/// `name` as an oracle cases of kind `k` evaluate, else a JsonError naming `field`.
Oracle oracle_for(CaseKind k, const std::string& name, const char* field) {
  const auto o = oracle_from_string(name);
  if (!o) throw JsonError{std::string{field} + ": unknown oracle \"" + name + "\""};
  if (!evaluates(k, *o)) {
    throw JsonError{std::string{field} + ": " + to_string(k) + " cases never evaluate \"" +
                    name + "\""};
  }
  return *o;
}

Pid pid_from_json(const Json& j) {
  if (j.is_null()) return Pid::none();
  const std::uint64_t v = j.as_u64();
  if (v > 0xFFFF'FFFFULL) throw JsonError{"pid out of range"};
  return Pid{static_cast<std::uint32_t>(v)};
}

Json rule_to_json(const FaultRule& r) {
  Json j = Json::object();
  j.set("trigger", Json::str(to_string(r.trigger)));
  j.set("who", pid_to_json(r.who));
  j.set("count", Json::uint(r.count));
  j.set("action", Json::str(to_string(r.action)));
  j.set("target", pid_to_json(r.target));
  j.set("mask", Json::uint(r.mask));
  j.set("duration", Json::uint(r.duration));
  j.set("drop_prob", Json::number(r.drop_prob));
  j.set("dup_prob", Json::number(r.dup_prob));
  j.set("extra_delay", Json::uint(r.extra_delay));
  j.set("byz_behaviors", Json::uint(r.byz_behaviors));
  j.set("byz_silence_mask", Json::uint(r.byz_silence_mask));
  return j;
}

FaultRule rule_from_json(const Json& j) {
  FaultRule r;
  const auto trig = trigger_from_string(j.at("trigger").as_string());
  if (!trig) throw JsonError{"unknown trigger \"" + j.at("trigger").as_string() + "\""};
  r.trigger = *trig;
  r.who = pid_from_json(j.at("who"));
  r.count = j.at("count").as_u64();
  const auto act = action_from_string(j.at("action").as_string());
  if (!act) throw JsonError{"unknown action \"" + j.at("action").as_string() + "\""};
  r.action = *act;
  r.target = pid_from_json(j.at("target"));
  r.mask = j.at("mask").as_u64();
  r.duration = j.at("duration").as_u64();
  r.drop_prob = j.at("drop_prob").as_double();
  r.dup_prob = j.at("dup_prob").as_double();
  r.extra_delay = j.at("extra_delay").as_u64();
  // Byzantine fields arrived in repro version 2; absent = 0 so version-1
  // documents keep parsing.
  if (const Json* b = j.find("byz_behaviors")) {
    const std::uint64_t v = b->as_u64();
    if (v > 0xFFFF'FFFFULL) throw JsonError{"byz_behaviors out of range"};
    r.byz_behaviors = static_cast<std::uint32_t>(v);
  }
  if (const Json* m = j.find("byz_silence_mask")) r.byz_silence_mask = m->as_u64();
  return r;
}

}  // namespace

Json case_to_json(const ChaosCase& c) {
  Json j = Json::object();
  j.set("kind", Json::str(to_string(c.kind)));
  j.set("seed", Json::uint(c.seed));
  j.set("n", Json::uint(c.n));
  if (c.kind == CaseKind::kConsensus) {
    j.set("topology", Json::str(to_string(c.topology)));
    j.set("algo", Json::str(core::to_string(c.algo)));
    j.set("f", Json::uint(c.f));
    j.set("crash_window", Json::uint(c.crash_window));
    j.set("max_rounds", Json::uint(c.max_rounds));
  } else if (c.kind == CaseKind::kByzRegister) {
    j.set("topology", Json::str(to_string(c.topology)));
    j.set("f", Json::uint(c.f));
    j.set("byz_hybrid", Json::boolean(c.byz_hybrid));
    j.set("byz_writes", Json::uint(c.byz_writes));
  } else {
    j.set("omega_algo", Json::str(core::to_string(c.omega_algo)));
    j.set("drop_prob", Json::number(c.drop_prob));
  }
  j.set("max_delay", Json::uint(c.max_delay));
  j.set("budget", Json::uint(c.budget));
  Json rules = Json::array();
  for (const FaultRule& r : c.rules) rules.push(rule_to_json(r));
  j.set("rules", std::move(rules));
  Json oracles = Json::array();
  for (const Oracle o : c.oracles) oracles.push(Json::str(to_string(o)));
  j.set("oracles", std::move(oracles));
  return j;
}

ChaosCase case_from_json(const Json& j) {
  ChaosCase c;
  const std::string& kind = j.at("kind").as_string();
  if (kind == to_string(CaseKind::kConsensus)) {
    c.kind = CaseKind::kConsensus;
  } else if (kind == to_string(CaseKind::kOmega)) {
    c.kind = CaseKind::kOmega;
  } else if (kind == to_string(CaseKind::kByzRegister)) {
    c.kind = CaseKind::kByzRegister;
  } else {
    throw JsonError{"unknown case kind \"" + kind + "\""};
  }
  c.seed = j.at("seed").as_u64();
  c.n = j.at("n").as_u64();
  if (c.n < 1 || c.n > 4096) throw JsonError{"n out of range"};
  if (c.kind == CaseKind::kConsensus) {
    const auto topo = topology_from_string(j.at("topology").as_string());
    if (!topo) throw JsonError{"unknown topology"};
    c.topology = *topo;
    const auto algo = algo_from_string(j.at("algo").as_string());
    if (!algo) throw JsonError{"unknown algo"};
    c.algo = *algo;
    c.f = j.at("f").as_u64();
    c.crash_window = j.at("crash_window").as_u64();
    c.max_rounds = j.at("max_rounds").as_u64();
  } else if (c.kind == CaseKind::kByzRegister) {
    const auto topo = topology_from_string(j.at("topology").as_string());
    if (!topo) throw JsonError{"unknown topology"};
    c.topology = *topo;
    c.f = j.at("f").as_u64();
    c.byz_hybrid = j.at("byz_hybrid").as_bool();
    c.byz_writes = j.at("byz_writes").as_u64();
    if (c.byz_writes < 1 || c.byz_writes > 0xFF'FFFF)
      throw JsonError{"byz_writes out of range"};
  } else {
    const auto algo = omega_algo_from_string(j.at("omega_algo").as_string());
    if (!algo) throw JsonError{"unknown omega algo"};
    c.omega_algo = *algo;
    c.drop_prob = j.at("drop_prob").as_double();
  }
  // A case runs as written or not at all: the trials' and the generators'
  // own size rules reject what they cannot build.
  const char* field = "n";
  try {
    if (c.kind != CaseKind::kConsensus) core::require_two_processes(c.n);
    if (c.kind != CaseKind::kOmega) (void)make_topology(c.topology, c.n);
    field = "f";
    if (c.kind == CaseKind::kConsensus) core::require_crashable(c.f, c.n);
  } catch (const std::invalid_argument& e) {
    throw JsonError{std::string{field} + ": " + e.what()};
  }
  c.max_delay = j.at("max_delay").as_u64();
  c.budget = j.at("budget").as_u64();
  for (const Json& rj : j.at("rules").as_array()) c.rules.push_back(rule_from_json(rj));
  for (const Json& oj : j.at("oracles").as_array())
    c.oracles.push_back(oracle_for(c.kind, oj.as_string(), "oracles"));
  return c;
}

std::string repro_to_string(const ChaosCase& c, const Violation* v) {
  Json doc = Json::object();
  doc.set("format", Json::str("mm-chaos-repro"));
  // Version 2 added the Byzantine rule fields and the byz_register case
  // kind; version-1 documents (no such fields) still parse.
  doc.set("version", Json::uint(2));
  doc.set("case", case_to_json(c));
  if (v != nullptr) {
    Json vj = Json::object();
    vj.set("oracle", Json::str(to_string(v->oracle)));
    vj.set("detail", Json::str(v->detail));
    doc.set("violation", std::move(vj));
  }
  return doc.dump(2) + "\n";
}

ChaosCase repro_from_string(std::string_view text, std::optional<Violation>* recorded) {
  const Json doc = Json::parse(text);
  const Json* fmt = doc.find("format");
  if (fmt == nullptr || fmt->as_string() != "mm-chaos-repro")
    throw JsonError{"not an mm-chaos-repro document"};
  const std::uint64_t version = doc.at("version").as_u64();
  if (version < 1 || version > 2) throw JsonError{"unsupported repro version"};
  ChaosCase c = case_from_json(doc.at("case"));
  if (recorded != nullptr) {
    recorded->reset();
    if (const Json* vj = doc.find("violation")) {
      *recorded = Violation{oracle_for(c.kind, vj->at("oracle").as_string(), "violation.oracle"),
                            vj->at("detail").as_string()};
    }
  }
  return c;
}

}  // namespace mm::fault
