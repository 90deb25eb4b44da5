#!/usr/bin/env bash
# Bench smoke: proves the perf tooling hasn't bit-rotted.
#
# In an already-built tree, runs a trimmed bench_micro plus one fast
# experiment bench that exercises the parallel trial engine, and
# validates that BENCH_runtime.json was produced and is well-formed with the
# expected fields. Wired into CTest under the "smoke" label:
#     ctest -L smoke
#
# Env:
#   BUILD_DIR   built tree to use (default: build)
#   MM_JOBS     trial-engine worker count (default: hardware concurrency)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${BUILD_DIR:-build}

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
MM_BENCH_QUICK=1 MM_BENCH_JSON="$json" \
  "$BUILD_DIR/bench/bench_micro" --benchmark_filter='BM_SimStep$' \
  --benchmark_min_time=0.05

echo "== bench_e9_ablation =="
"$BUILD_DIR/bench/bench_e9_ablation" > /dev/null

echo "== validating $json =="
[ -s "$json" ] || { echo "FAIL: $json missing or empty"; exit 1; }

required_keys="schema hardware_concurrency sim_steps_per_sec handoffs_per_sec sim_steps_per_sec_ring sim_steps_per_sec_ring_traced tracing_overhead_pct alloc_counting_active allocs_per_step bytes_per_step"
if command -v jq > /dev/null 2>&1; then
  for key in $required_keys; do
    jq -e --arg k "$key" 'has($k)' "$json" > /dev/null \
      || { echo "FAIL: $json lacks key '$key'"; exit 1; }
  done
  jq -e '.schema >= 8' "$json" > /dev/null \
    || { echo "FAIL: schema < 8"; exit 1; }
  jq -e '.alloc_counting_active == false or .allocs_per_step == 0' "$json" > /dev/null \
    || { echo "FAIL: steady-state steps allocated ($(jq -r '.allocs_per_step' "$json")/step)"; exit 1; }
  # Warn-only throughput floor against the committed record: quick-mode runs
  # on loaded CI boxes are noisy, so a dip is a flag to re-measure, not a
  # failure. 0.5x is far below any plausible noise band.
  if [ -f BENCH_runtime.json ]; then
    committed=$(jq -r '.sim_steps_per_sec' BENCH_runtime.json)
    current=$(jq -r '.sim_steps_per_sec' "$json")
    awk -v cur="$current" -v ref="$committed" 'BEGIN { exit !(cur < 0.5 * ref) }' \
      && echo "WARN: sim_steps_per_sec=$current is <50% of committed $committed — re-measure on an idle machine"
  fi
elif command -v python3 > /dev/null 2>&1; then
  python3 - "$json" $required_keys <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
missing = [k for k in sys.argv[2:] if k not in doc]
if missing:
    sys.exit(f"FAIL: missing keys {missing}")
if doc["schema"] < 8:
    sys.exit(f"FAIL: schema {doc['schema']} < 8")
if doc["alloc_counting_active"] and doc["allocs_per_step"] != 0:
    sys.exit(f"FAIL: steady-state steps allocated ({doc['allocs_per_step']}/step)")
import os
if os.path.exists("BENCH_runtime.json"):
    ref = json.load(open("BENCH_runtime.json")).get("sim_steps_per_sec", 0)
    cur = doc["sim_steps_per_sec"]
    if ref and cur < 0.5 * ref:
        print(f"WARN: sim_steps_per_sec={cur} is <50% of committed {ref} — re-measure on an idle machine")
EOF
else
  grep -Eq '"schema": ([8-9]|[1-9][0-9]+),' "$json" \
    || { echo "FAIL: schema < 8"; exit 1; }
fi

echo "bench smoke OK"
