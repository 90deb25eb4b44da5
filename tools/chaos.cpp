// tools/chaos — randomized fault-schedule campaigns with shrink-and-replay.
//
// Subcommands:
//   chaos campaign [--seed S] [--trials N] [--no-omega] [--byzantine]
//                  [--assert-termination] [--expect-violations]
//                  [--no-shrink] [--max-findings K] [--out DIR]
//     Generate N random fault-schedule cases, run them across MM_JOBS
//     workers, and report violations. Every finding is ddmin-shrunk and
//     written as a JSON repro to DIR (default '.') as chaos-repro-<i>.json.
//     --byzantine mixes in Byzantine-register cases (kGoByzantine schedules
//     against the n > 3f register). --assert-termination arms a deliberately
//     false invariant (termination under arbitrary fault schedules —
//     Theorem 4.3 promises no such thing), so such a campaign *will* find
//     violations. A campaign exits 1 whenever it records >= 1 violation;
//     pass --expect-violations to invert that (exit 0 iff >= 1 violation) for
//     planted campaigns whose findings are the point.
//
//   chaos replay FILE [FILE...]
//     Re-run repro documents. Exit 0 when every file reproduces the recorded
//     violation (or, for repros without one, runs clean); exit 1 otherwise.
//
//   chaos show FILE
//     Pretty-print a repro (case summary + recorded violation).
//
// Campaigns are pure functions of (--seed, --trials, flags): rerunning one
// reproduces the same cases, findings, and shrunk repros bit-for-bit at any
// MM_JOBS value.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/parse.hpp"
#include "fault/campaign.hpp"

namespace {

using namespace mm;
using namespace mm::fault;

int usage() {
  std::fprintf(stderr,
               "usage: chaos campaign [--seed S] [--trials N] [--no-omega]\n"
               "                      [--byzantine] [--assert-termination]\n"
               "                      [--expect-violations] [--no-shrink]\n"
               "                      [--max-findings K] [--out DIR]\n"
               "       chaos replay FILE [FILE...]\n"
               "       chaos show FILE\n");
  return 2;
}

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) throw std::runtime_error{"cannot open " + path};
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void describe(const ChaosCase& c, const std::optional<Violation>& v) {
  if (c.kind == CaseKind::kConsensus) {
    std::printf("  consensus: algo=%s topo=%s n=%zu f=%zu seed=%llu budget=%llu\n",
                core::to_string(c.algo), to_string(c.topology), c.n, c.f,
                static_cast<unsigned long long>(c.seed),
                static_cast<unsigned long long>(c.budget));
  } else if (c.kind == CaseKind::kByzRegister) {
    std::printf("  byz_register: topo=%s n=%zu f=%zu mode=%s writes=%zu seed=%llu budget=%llu\n",
                to_string(c.topology), c.n, c.f,
                c.byz_hybrid ? "hybrid" : "message", c.byz_writes,
                static_cast<unsigned long long>(c.seed),
                static_cast<unsigned long long>(c.budget));
  } else {
    std::printf("  omega: algo=%s n=%zu drop=%.3f seed=%llu budget=%llu\n",
                core::to_string(c.omega_algo), c.n, c.drop_prob,
                static_cast<unsigned long long>(c.seed),
                static_cast<unsigned long long>(c.budget));
  }
  std::printf("  %zu rule(s):\n", c.rules.size());
  for (const FaultRule& r : c.rules) {
    const std::string who = r.who.is_none() ? "" : ", who=" + to_string(r.who);
    std::printf("    when %s(count=%llu%s) do %s", to_string(r.trigger),
                static_cast<unsigned long long>(r.count), who.c_str(),
                to_string(r.action));
    if (!r.target.is_none()) std::printf(" target=%s", to_string(r.target).c_str());
    if (r.action == Action::kPartition)
      std::printf(" mask=0x%llx", static_cast<unsigned long long>(r.mask));
    if (r.duration != 0)
      std::printf(" for=%llu", static_cast<unsigned long long>(r.duration));
    if (r.action == Action::kLinkBurst)
      std::printf(" drop=%.2f dup=%.2f delay+%llu", r.drop_prob, r.dup_prob,
                  static_cast<unsigned long long>(r.extra_delay));
    if (r.action == Action::kGoByzantine)
      std::printf(" behaviors=0x%x silence=0x%llx", r.byz_behaviors,
                  static_cast<unsigned long long>(r.byz_silence_mask));
    std::printf("\n");
  }
  if (v) std::printf("  recorded violation: %s — %s\n", to_string(v->oracle), v->detail.c_str());
}

int cmd_campaign(int argc, char** argv) {
  CampaignConfig cfg;
  cfg.seed = 20260807;
  std::string out_dir = ".";
  bool expect_violations = false;
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) throw std::runtime_error{"missing value for " + a};
      return argv[++i];
    };
    if (a == "--seed") cfg.seed = parse_decimal(a, next());
    else if (a == "--trials") cfg.trials = parse_decimal(a, next());
    else if (a == "--no-omega") cfg.include_omega = false;
    else if (a == "--byzantine") cfg.include_byzantine = true;
    else if (a == "--assert-termination") cfg.assert_termination = true;
    else if (a == "--expect-violations") expect_violations = true;
    else if (a == "--no-shrink") cfg.shrink_findings = false;
    else if (a == "--max-findings") cfg.max_findings = parse_decimal<std::size_t>(a, next());
    else if (a == "--out") out_dir = next();
    else return usage();
  }

  std::printf(
      "chaos campaign: seed=%llu trials=%llu omega=%s byzantine=%s planted-termination=%s\n",
      static_cast<unsigned long long>(cfg.seed),
      static_cast<unsigned long long>(cfg.trials),
      cfg.include_omega ? "yes" : "no", cfg.include_byzantine ? "yes" : "no",
      cfg.assert_termination ? "yes" : "no");

  const CampaignResult res = run_campaign(cfg);
  std::printf("ran %llu cases: %llu decided/stabilized, %llu violation(s)\n",
              static_cast<unsigned long long>(res.runs),
              static_cast<unsigned long long>(res.decided),
              static_cast<unsigned long long>(res.violations));

  int i = 0;
  for (const Finding& f : res.findings) {
    std::printf("\nfinding #%d: %s — %s\n", i, to_string(f.violation.oracle),
                f.violation.detail.c_str());
    const ChaosCase& c = f.shrunk ? f.shrunk->minimized : f.original;
    const Violation& v = f.shrunk ? f.shrunk->violation : f.violation;
    if (f.shrunk) {
      std::printf("  shrunk %zu -> %zu rule(s), budget %llu -> %llu in %zu eval(s)\n",
                  f.shrunk->rules_before, f.shrunk->rules_after,
                  static_cast<unsigned long long>(f.shrunk->budget_before),
                  static_cast<unsigned long long>(f.shrunk->budget_after),
                  f.shrunk->evals);
    }
    describe(c, v);
    const std::string path = out_dir + "/chaos-repro-" + std::to_string(i) + ".json";
    std::ofstream out{path, std::ios::binary};
    out << repro_to_string(c, &v);
    std::printf("  wrote %s\n", path.c_str());
    ++i;
  }
  // Any recorded violation makes the campaign exit 1 — CI wires campaigns as
  // "findings are bugs". Planted campaigns pass --expect-violations, which
  // inverts the check: finding nothing then means the injection pipeline
  // itself regressed.
  if (expect_violations) {
    if (res.violations == 0) {
      std::printf("expected >= 1 violation but the campaign found none\n");
      return 1;
    }
    return 0;
  }
  return res.violations > 0 ? 1 : 0;
}

int cmd_replay(int argc, char** argv) {
  if (argc < 1) return usage();
  int failures = 0;
  for (int i = 0; i < argc; ++i) {
    const std::string path = argv[i];
    std::optional<Violation> recorded;
    const ChaosCase c = repro_from_string(read_file(path), &recorded);
    const ChaosOutcome out = run_chaos_case(c);
    const char* verdict;
    bool ok;
    if (recorded) {
      ok = out.violation && out.violation->oracle == recorded->oracle;
      verdict = ok ? "reproduced" : "DID NOT REPRODUCE";
    } else {
      ok = !out.violation;
      verdict = ok ? "clean" : "UNEXPECTED VIOLATION";
    }
    std::printf("%s: %s", path.c_str(), verdict);
    if (out.violation)
      std::printf(" (%s — %s)", to_string(out.violation->oracle),
                  out.violation->detail.c_str());
    std::printf("\n");
    failures += ok ? 0 : 1;
  }
  return failures == 0 ? 0 : 1;
}

int cmd_show(int argc, char** argv) {
  if (argc != 1) return usage();
  std::optional<Violation> recorded;
  const ChaosCase c = repro_from_string(read_file(argv[0]), &recorded);
  std::printf("%s\n", argv[0]);
  describe(c, recorded);
  // Replay with event tracing armed so the schedule that produced the
  // violation is visible, not just its verdict.
  const ChaosOutcome out = run_chaos_case(c, 4096);
  if (out.violation) {
    std::printf("  replayed violation: %s — %s\n", to_string(out.violation->oracle),
                out.violation->detail.c_str());
    std::printf("  last events before the verdict (step, +delta, pid, kind):\n%s",
                out.trace_tail.c_str());
  } else {
    std::printf("  replay ran clean (no armed oracle fired)\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "campaign") return cmd_campaign(argc - 2, argv + 2);
    if (cmd == "replay") return cmd_replay(argc - 2, argv + 2);
    if (cmd == "show") return cmd_show(argc - 2, argv + 2);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "chaos: %s\n", e.what());
    return 1;
  }
  return usage();
}
