// tools/check — drive the model checker over the canonical instance corpus.
//
// Subcommands:
//   check list
//     Print every registered instance with its tuned budgets and whether the
//     naive DFS baseline is feasible for it.
//
//   check run NAME... [--max-runs N] [--max-steps N]
//                     [--dfs [--bound K] | [--no-cache] [--no-sleep]]
//     Explore the named instances (or 'all') with the DPOR explorer (default)
//     or the naive DFS. Exit 0 when every clean instance verifies clean and
//     exhausts (its verdict is not budget-truncated) and every planted-bug
//     instance produces its violation; 1 otherwise. Each explorer's flags
//     refuse the other (exit 2): --bound K is the DFS's preemption bound,
//     and the DPOR walk has none (dpor.hpp); --no-cache and --no-sleep
//     switch off parts of the DPOR walk, which the DFS does not have.
//     --no-sleep sets DporOptions::sleep_sets = false, which only stops the
//     walk skipping backtrack candidates that were asleep on entry: replays
//     still end sleep-blocked (dpor.hpp).
//
//   check diff NAME...
//     Differential mode: run DFS and DPOR on each instance (DFS-feasible
//     ones only, unless named explicitly) and require the same verdict AND
//     the same reachable final-state set, with DPOR using no more replays.
//
//   check replay FILE... [--max-runs N] [--max-steps N]
//     Chaos -> check bridge: parse each chaos repro document (the JSON
//     `tools/chaos` / the shrinker emit), lift its fault schedule into the
//     explorable fragment (fault/explore_bridge.hpp), and explore it
//     EXHAUSTIVELY — every trigger placement the campaign sampled, and all
//     the others. Exit 0 when every repro that records a violation
//     rediscovers the SAME oracle, and every clean repro verifies clean.
//
// Everything here is deterministic: rerunning a command reproduces the same
// run counts and verdicts bit-for-bit.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check/instances.hpp"
#include "common/parse.hpp"
#include "fault/explore_bridge.hpp"

namespace {

using namespace mm;
using namespace mm::check;

int usage() {
  std::fprintf(stderr,
               "usage: check list\n"
               "       check run NAME... [--max-runs N] [--max-steps N]\n"
               "                 [--dfs [--bound K] | [--no-cache] [--no-sleep]]\n"
               "       check diff NAME...\n"
               "       check replay FILE... [--max-runs N] [--max-steps N]\n"
               "(NAME may be 'all'. --bound K, a preemption bound, needs --dfs;\n"
               " --no-cache and --no-sleep are the DPOR walk's: --dfs rejects them.\n"
               " --no-sleep only stops the walk skipping candidates asleep on\n"
               " entry; replays still end sleep-blocked)\n");
  return 2;
}

std::vector<const Instance*> resolve(const std::vector<std::string>& names, bool* ok) {
  std::vector<const Instance*> out;
  *ok = true;
  for (const std::string& n : names) {
    if (n == "all") {
      for (const Instance& i : instances()) out.push_back(&i);
      continue;
    }
    const Instance* i = find_instance(n);
    if (i == nullptr) {
      std::fprintf(stderr, "check: unknown instance '%s' (try 'check list')\n", n.c_str());
      *ok = false;
      continue;
    }
    out.push_back(i);
  }
  return out;
}

void print_result(const char* engine, const InstanceVerdict& v) {
  const ExploreResult& r = v.result;
  std::printf("  %s: %llu runs (%llu cache-pruned, %llu sleep-pruned), %s, "
              "%zu final state(s)\n",
              engine, static_cast<unsigned long long>(r.runs),
              static_cast<unsigned long long>(r.runs_pruned_by_state_cache),
              static_cast<unsigned long long>(r.runs_pruned_by_sleep_set),
              to_string(r.exhaustiveness), r.final_states.size());
  if (v.violation)
    std::printf("  VIOLATION on verified run %llu: %s\n",
                static_cast<unsigned long long>(v.violation_run), v.violation->c_str());
}

/// Why the outcome breaks the instance's contract (clean instances verify
/// clean and exhaust; planted ones produce their violation), or nullptr.
const char* contract_failure(const Instance& inst, const InstanceVerdict& v) {
  if (inst.expect_violation)
    return v.violation.has_value() ? nullptr : "planted bug was not found";
  if (v.violation.has_value()) return "clean instance produced a violation";
  if (v.result.exhaustiveness == Exhaustiveness::kBudgetTruncated)
    return "clean instance did not exhaust (budget-truncated)";
  return nullptr;
}

int cmd_list() {
  for (const Instance& i : instances()) {
    std::printf("%-14s %s\n", i.name.c_str(), i.description.c_str());
    std::printf("%-14s   dpor: max-runs=%llu max-steps=%llu%s%s; dfs: %s%s\n", "",
                static_cast<unsigned long long>(i.dpor.max_runs),
                static_cast<unsigned long long>(i.dpor.max_steps_per_run),
                i.dpor.idle_slice_collapse ? " +idle-collapse" : "",
                i.expect_violation ? " [planted bug]" : "",
                i.dfs_feasible ? "feasible" : "infeasible (spin/blowup)",
                i.expect_violation ? "" : "");
  }
  return 0;
}

int cmd_run(int argc, char** argv) {
  std::vector<std::string> names;
  bool use_dfs = false;
  DporOptions dpor_over;
  ExploreOptions dfs_over;
  bool have_max_runs = false, have_max_steps = false;
  bool no_cache = false, no_sleep = false;
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) throw std::runtime_error{"missing value for " + a};
      return argv[++i];
    };
    if (a == "--dfs") use_dfs = true;
    else if (a == "--max-runs") { dpor_over.max_runs = dfs_over.max_runs = parse_decimal(a, next()); have_max_runs = true; }
    else if (a == "--max-steps") { dpor_over.max_steps_per_run = dfs_over.max_steps_per_run = parse_decimal(a, next()); have_max_steps = true; }
    else if (a == "--bound") dfs_over.max_preemptions = parse_decimal<std::uint32_t>(a, next());
    else if (a == "--no-cache") no_cache = true;
    else if (a == "--no-sleep") no_sleep = true;
    else if (!a.empty() && a[0] == '-') return usage();
    else names.push_back(a);
  }
  if (names.empty()) return usage();
  if (dfs_over.max_preemptions.has_value() && !use_dfs) {
    std::fprintf(stderr, "check: --bound needs --dfs: the DPOR walk has no preemption bound\n");
    return 2;
  }
  if (use_dfs && (no_cache || no_sleep)) {
    std::fprintf(stderr,
                 "check: %s does not apply with --dfs: the naive DFS has no state cache "
                 "or sleep sets\n",
                 no_cache ? "--no-cache" : "--no-sleep");
    return 2;
  }
  bool ok = true;
  const std::vector<const Instance*> picked = resolve(names, &ok);

  for (const Instance* inst : picked) {
    std::printf("%s — %s\n", inst->name.c_str(), inst->description.c_str());
    InstanceVerdict v;
    if (use_dfs) {
      ExploreOptions o = inst->dfs;
      if (have_max_runs) o.max_runs = dfs_over.max_runs;
      if (have_max_steps) o.max_steps_per_run = dfs_over.max_steps_per_run;
      if (dfs_over.max_preemptions.has_value()) o.max_preemptions = dfs_over.max_preemptions;
      v = check_instance_dfs(*inst, o);
      print_result("dfs", v);
    } else {
      DporOptions o = inst->dpor;
      if (have_max_runs) o.max_runs = dpor_over.max_runs;
      if (have_max_steps) o.max_steps_per_run = dpor_over.max_steps_per_run;
      if (no_cache) o.state_cache = false;
      if (no_sleep) o.sleep_sets = false;
      v = check_instance_dpor(*inst, o);
      print_result("dpor", v);
    }
    if (const char* why = contract_failure(*inst, v)) {
      std::printf("  FAIL: %s\n", why);
      ok = false;
    }
  }
  return ok ? 0 : 1;
}

int cmd_diff(int argc, char** argv) {
  std::vector<std::string> names;
  for (int i = 0; i < argc; ++i) names.emplace_back(argv[i]);
  if (names.empty()) return usage();
  const bool explicit_names = names.size() != 1 || names[0] != "all";
  bool ok = true;
  const std::vector<const Instance*> picked = resolve(names, &ok);

  for (const Instance* inst : picked) {
    if (!inst->dfs_feasible && !explicit_names) continue;
    std::printf("%s\n", inst->name.c_str());
    const InstanceVerdict a = check_instance_dfs(*inst);
    const InstanceVerdict b = check_instance_dpor(*inst, inst->dpor);
    print_result("dfs", a);
    print_result("dpor", b);
    if (a.violation.has_value() != b.violation.has_value()) {
      std::printf("  FAIL: verdicts differ\n");
      ok = false;
    } else if (!a.violation && a.result.final_states != b.result.final_states) {
      std::printf("  FAIL: reachable final-state sets differ (%zu vs %zu)\n",
                  a.result.final_states.size(), b.result.final_states.size());
      ok = false;
    } else if (!a.violation && b.result.runs > a.result.runs) {
      std::printf("  FAIL: DPOR used more replays than the naive DFS\n");
      ok = false;
    } else {
      const double ratio = b.result.runs == 0
                               ? 0.0
                               : static_cast<double>(a.result.runs) /
                                     static_cast<double>(b.result.runs);
      std::printf("  ok: identical verdict + final states; reduction %.1fx\n", ratio);
    }
  }
  return ok ? 0 : 1;
}

int cmd_replay(int argc, char** argv) {
  std::vector<std::string> files;
  DporOptions over;
  bool have_max_runs = false, have_max_steps = false;
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) throw std::runtime_error{"missing value for " + a};
      return argv[++i];
    };
    if (a == "--max-runs") { over.max_runs = parse_decimal(a, next()); have_max_runs = true; }
    else if (a == "--max-steps") { over.max_steps_per_run = parse_decimal(a, next()); have_max_steps = true; }
    else if (!a.empty() && a[0] == '-') return usage();
    else files.push_back(a);
  }
  if (files.empty()) return usage();

  bool ok = true;
  for (const std::string& file : files) {
    std::ifstream in{file};
    if (!in) {
      std::fprintf(stderr, "check: cannot read '%s'\n", file.c_str());
      ok = false;
      continue;
    }
    std::ostringstream text;
    text << in.rdbuf();
    fault::BridgedRepro bridged;
    try {
      bridged = fault::bridge_repro(text.str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "check: %s: %s\n", file.c_str(), e.what());
      ok = false;
      continue;
    }
    std::printf("%s — %s\n", file.c_str(), bridged.instance.description.c_str());
    if (bridged.recorded)
      std::printf("  repro records a %s violation: %s\n",
                  fault::to_string(bridged.recorded->oracle),
                  bridged.recorded->detail.c_str());
    DporOptions o = bridged.instance.dpor;
    if (have_max_runs) o.max_runs = over.max_runs;
    if (have_max_steps) o.max_steps_per_run = over.max_steps_per_run;
    const InstanceVerdict v = check_instance_dpor(bridged.instance, o);
    print_result("dpor", v);
    if (bridged.recorded) {
      const auto found = v.violation ? fault::violation_oracle(*v.violation)
                                     : std::nullopt;
      if (!v.violation) {
        std::printf("  FAIL: recorded violation was not rediscovered\n");
        ok = false;
      } else if (found != bridged.recorded->oracle) {
        std::printf("  FAIL: rediscovered a different oracle (%s)\n",
                    found ? fault::to_string(*found) : "unparsable");
        ok = false;
      } else {
        std::printf("  ok: same oracle rediscovered exhaustively\n");
      }
    } else if (v.violation) {
      std::printf("  FAIL: clean repro produced a violation under exhaustive "
                  "exploration\n");
      ok = false;
    } else {
      std::printf("  ok: clean on every fault placement (%s)\n",
                  to_string(v.result.exhaustiveness));
    }
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "list") return cmd_list();
    if (cmd == "run") return cmd_run(argc - 2, argv + 2);
    if (cmd == "diff") return cmd_diff(argc - 2, argv + 2);
    if (cmd == "replay") return cmd_replay(argc - 2, argv + 2);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "check: %s\n", e.what());
    return 1;
  }
  return usage();
}
