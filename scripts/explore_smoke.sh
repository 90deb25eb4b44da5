#!/usr/bin/env bash
# Explore smoke: proves the model checker hasn't bit-rotted.
#
# Uses the built tools/check binary:
#   1. `check run all` — every clean instance must verify clean and exhaust,
#      every planted-bug instance must produce its violation. The corpus now
#      carries one fault-bearing instance per dependency class, so this leg
#      covers crash events (hbo3-anycrash, ac4/ac5, crashwin3), head-of-queue
#      drops (abd4-drop, abd4-drop2, dropval2) and transient partition
#      toggles (pingpart2, omega2-part);
#   2. `check diff all` — the differential oracle: naive DFS and DPOR must
#      reach the same verdict AND the same reachable final-state set on every
#      DFS-feasible instance, with DPOR using no more replays;
#   3. `check replay` — the chaos bridge: a recorded chaos repro must
#      rediscover the same oracle exhaustively, and a clean repro must stay
#      clean across every fault placement the budget reaches.
# Before those, a malformed numeric flag value must be rejected by name;
# each explorer's flags must refuse the other: `check run ac2 --bound 1`
# exits 2 naming --dfs (the DPOR walk has no bound), `check run ac2 --dfs
# --no-cache` (or --no-sleep) exits 2 naming the flag (the DFS has no
# cache or sleep sets), while `check run ac3 --dfs --bound 1` reports its
# bounded verdict over 21 final states; and a DFS budget of exactly the
# tree's size covers it: `check run steppers2 --dfs --max-runs 20` reads
# full after 20 runs and passes, `--max-runs 19` reads budget-truncated.
# Wired into CTest under the "explore" label:
#     ctest -L explore
#
# Env:
#   BUILD_DIR   built tree to use (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${BUILD_DIR:-build}

# The build makes every target (the tier-1 command and scripts/ci.sh build
# before testing); this script only runs what is there.
for bin in "$BUILD_DIR/tools/check"; do
  if [ ! -x "$bin" ]; then
    echo "FAIL: $bin missing: build target $(basename "$bin") first (cmake --build $BUILD_DIR)" >&2
    exit 2
  fi
done

CHECK="$BUILD_DIR/tools/check"

echo "== malformed numeric flag: --max-runs abc must fail, naming the flag =="
if err=$("$CHECK" run ac2 --max-runs abc 2>&1); then
  echo "FAIL: check accepted --max-runs abc"
  exit 1
fi
case "$err" in
  *--max-runs*) echo "$err" ;;
  *) echo "FAIL: the error does not name --max-runs: $err"; exit 1 ;;
esac

echo "== preemption bound without --dfs: must exit 2, naming --dfs =="
rc=0
err=$("$CHECK" run ac2 --bound 1 2>&1) || rc=$?
if [ "$rc" -ne 2 ]; then
  echo "FAIL: check run ac2 --bound 1 exited $rc, not 2: $err"
  exit 1
fi
case "$err" in
  *--dfs*) echo "$err" ;;
  *) echo "FAIL: the error does not name --dfs: $err"; exit 1 ;;
esac

echo "== DPOR-only flags with --dfs: must exit 2, naming the flag =="
for flag in --no-cache --no-sleep; do
  rc=0
  err=$("$CHECK" run ac2 --dfs "$flag" 2>&1) || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "FAIL: check run ac2 --dfs $flag exited $rc, not 2: $err"
    exit 1
  fi
  case "$err" in
    *"$flag"*--dfs*) echo "$err" ;;
    *) echo "FAIL: the error does not name $flag and --dfs: $err"; exit 1 ;;
  esac
done

echo "== DFS budget: exactly the tree's 20 runs read full, 19 read truncated =="
out=$("$CHECK" run steppers2 --dfs --max-runs 20)
echo "$out"
case "$out" in
  *"20 runs (0 cache-pruned, 0 sleep-pruned), full"*) ;;
  *) echo "FAIL: expected a full verdict after 20 runs"; exit 1 ;;
esac
rc=0
out=$("$CHECK" run steppers2 --dfs --max-runs 19) || rc=$?
echo "$out"
case "$rc:$out" in
  1:*"19 runs (0 cache-pruned, 0 sleep-pruned), budget-truncated"*) ;;
  *) echo "FAIL: expected exit 1 and budget-truncated after 19 runs (exit $rc)"; exit 1 ;;
esac

echo "== bounded DFS: ac3 within one preemption =="
out=$("$CHECK" run ac3 --dfs --bound 1)
echo "$out"
case "$out" in
  *"within-preemption-bound, 21 final state(s)"*) ;;
  *) echo "FAIL: expected within-preemption-bound over 21 final states"; exit 1 ;;
esac

echo "== run all instances (DPOR; clean must exhaust, planted must trip) =="
"$CHECK" run all

echo "== differential: naive DFS vs DPOR on every DFS-feasible instance =="
"$CHECK" diff all

echo "== chaos bridge: replay a recorded repro and a clean repro =="
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# A shrunk chaos repro claiming a termination violation: HBO consensus on an
# edgeless n=3 graph with two explicit crashes. The bridge discards the
# sampled trigger steps and lets the explorer place both crash events
# anywhere; the same oracle must be rediscovered exhaustively.
cat > "$TMP/violation.json" <<'EOF'
{
  "format": "mm-chaos-repro",
  "version": 2,
  "case": {
    "kind": "consensus",
    "seed": 42,
    "n": 3,
    "topology": "edgeless",
    "algo": "hbo",
    "f": 0,
    "crash_window": 2000,
    "max_rounds": 4000,
    "max_delay": 8,
    "budget": 120000,
    "rules": [
      {"trigger": "at_step", "who": null, "count": 10, "action": "crash",
       "target": 1, "mask": 0, "duration": 0, "drop_prob": 0.0,
       "dup_prob": 0.0, "extra_delay": 0, "byz_behaviors": 0,
       "byz_silence_mask": 0},
      {"trigger": "at_step", "who": null, "count": 20, "action": "crash",
       "target": 2, "mask": 0, "duration": 0, "drop_prob": 0.0,
       "dup_prob": 0.0, "extra_delay": 0, "byz_behaviors": 0,
       "byz_silence_mask": 0}
    ],
    "oracles": ["termination"]
  },
  "violation": {
    "oracle": "termination",
    "detail": "p0 never decided within the step budget"
  }
}
EOF

# The same envelope with no recorded violation: a transient partition window
# over a complete n=2 graph. Budget-capped: every placement the cap reaches
# must be clean (full exhaustion of live HBO runs is the corpus's job).
cat > "$TMP/clean.json" <<'EOF'
{
  "format": "mm-chaos-repro",
  "version": 2,
  "case": {
    "kind": "consensus",
    "seed": 42,
    "n": 2,
    "topology": "complete",
    "algo": "hbo",
    "f": 0,
    "crash_window": 2000,
    "max_rounds": 4000,
    "max_delay": 8,
    "budget": 120000,
    "rules": [
      {"trigger": "at_step", "who": null, "count": 25, "action": "partition",
       "target": null, "mask": 1, "duration": 200, "drop_prob": 0.0,
       "dup_prob": 0.0, "extra_delay": 0, "byz_behaviors": 0,
       "byz_silence_mask": 0},
      {"trigger": "at_step", "who": null, "count": 300,
       "action": "heal_partition", "target": null, "mask": 0, "duration": 0,
       "drop_prob": 0.0, "dup_prob": 0.0, "extra_delay": 0,
       "byz_behaviors": 0, "byz_silence_mask": 0}
    ],
    "oracles": ["agreement", "validity"]
  }
}
EOF

"$CHECK" replay "$TMP/violation.json"
"$CHECK" replay "$TMP/clean.json" --max-runs 2000

echo "explore smoke OK"
