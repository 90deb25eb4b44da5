#!/usr/bin/env bash
# Bench smoke: proves the perf tooling hasn't bit-rotted.
#
# In an already-built tree, runs bench_micro in quick mode plus one fast
# experiment bench that exercises the parallel trial engine, then checks the
# BENCH_runtime.json record bench_micro wrote: schema >= 9, every key,
# 0 < min <= median <= max on every rate rung, and no heap allocation on a
# steady-state step. A sim_steps_per_sec median below half the committed
# record's only warns. Wired into CTest under the "smoke" label:
#     ctest -L smoke
#
# Env:
#   BUILD_DIR   built tree to use (default: build)
#   MM_JOBS     trial-engine worker count (default: hardware concurrency)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${BUILD_DIR:-build}

if ! command -v python3 > /dev/null 2>&1; then
  echo "FAIL: python3 missing: the record check needs it" >&2
  exit 2
fi

# The build makes every target (the tier-1 command and scripts/ci.sh build
# before testing); this script only runs what is there.
for bin in "$BUILD_DIR/bench/bench_micro" "$BUILD_DIR/bench/bench_e9_ablation"; do
  if [ ! -x "$bin" ]; then
    echo "FAIL: $bin missing: build target $(basename "$bin") first (cmake --build $BUILD_DIR)" >&2
    exit 2
  fi
done

json="$BUILD_DIR/BENCH_runtime_smoke.json"
rm -f "$json"

echo "== bench_micro (quick) =="
MM_BENCH_QUICK=1 MM_BENCH_JSON="$json" "$BUILD_DIR/bench/bench_micro"

echo "== bench_e9_ablation =="
"$BUILD_DIR/bench/bench_e9_ablation" > /dev/null

echo "== validating $json =="
python3 - "$json" BENCH_runtime.json <<'EOF'
import json, os, sys

RATES = ["handoffs_per_sec", "sim_steps_per_sec", "sim_send_drains_per_sec",
         "sim_reads_per_sec", "sim_writes_per_sec", "sim_cas_per_sec",
         "adopt_commit_proposes_per_sec", "cas_consensus_proposes_per_sec",
         "rw_consensus_proposes_per_sec", "sim_steps_per_sec_ring",
         "sim_steps_per_sec_ring_traced"]
SCALARS = ["schema", "quick", "hardware_concurrency", "repeats", "ring_rounds",
           "tracing_overhead_pct", "alloc_counting_active", "allocs_per_step",
           "bytes_per_step"]

path, committed = sys.argv[1], sys.argv[2]
if not os.path.exists(path) or not os.path.getsize(path):
    sys.exit(f"FAIL: {path} missing or empty")
doc = json.load(open(path))
missing = [k for k in SCALARS + RATES if k not in doc]
if missing:
    sys.exit(f"FAIL: {path} lacks keys {missing}")
if doc["schema"] < 9:
    sys.exit(f"FAIL: schema {doc['schema']} < 9")
for key in RATES:
    r = doc[key]
    if not 0 < r["min"] <= r["median"] <= r["max"]:
        sys.exit(f"FAIL: {key} breaks 0 < min <= median <= max: {r}")
if doc["alloc_counting_active"] and doc["allocs_per_step"] != 0:
    sys.exit(f"FAIL: steady-state steps allocated ({doc['allocs_per_step']}/step)")
# Warn-only floor against the committed record: quick runs on loaded boxes
# are noisy, so a dip is a flag to re-measure, not a failure. 0.5x is far
# below any plausible noise band.
if os.path.exists(committed):
    ref = json.load(open(committed))["sim_steps_per_sec"]["median"]
    cur = doc["sim_steps_per_sec"]["median"]
    if cur < 0.5 * ref:
        print(f"WARN: sim_steps_per_sec median {cur:.0f} is <50% of committed {ref:.0f}"
              " — re-measure on an idle machine")
EOF

echo "bench smoke OK"
