#!/usr/bin/env bash
# The one CI entry point: configure, build, and run every test tier in
# sequence, then print a pass/fail summary table.
#
# Stages (each one is a ctest label selection over the same build tree):
#   build      configure (RelWithDebInfo) + compile everything
#   unit       the gtest suite and the examples (everything without a stage
#              label) — tier 1
#   smoke      bench smoke: trimmed microbench + engine bench + perf record
#   chaos      fault-injection campaigns: safety, Byzantine, planted+replay
#   explore    model checker: DFS/DPOR differential + chaos bridge replay
#   obs        observability: trace record/export/summarize round trip
#   bench      the repo's benchmark (perfbench/): builds it into .bench_build/
#              and runs each workload for one second; it fails on a build
#              error or a digest mismatch, never on a speed
#   asan       ASan+UBSan rebuild of the runtime/exec surface (optional: arm
#              with MM_CI_ASAN=1; skipped by default — a full side-tree
#              rebuild). It checks the fiber switches, including the exit
#              every killed simulated process takes after its forced unwind
#   tsan       ThreadSanitizer rebuild of the runtime/exec surface (optional:
#              arm with MM_CI_TSAN=1; skipped by default — it is a full
#              side-tree rebuild and the slowest stage by far)
#
# Any required stage failing fails the script (exit 1), but later stages
# still run so one red stage doesn't hide another. The summary table at the
# end is the CI verdict.
#
# Env:
#   BUILD_DIR    build tree to use (default: build; configured if missing)
#   MM_CI_ASAN   1 = also run the asan stage (default: skip)
#   MM_CI_TSAN   1 = also run the tsan stage (default: skip)
#   MM_JOBS      trial-engine worker count (default: hardware concurrency)
set -uo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${BUILD_DIR:-build}

STAGES=()
RESULTS=()
TIMES=()

run_stage() {
  local name=$1
  shift
  local t0 t1 rc
  echo
  echo "=== stage: $name ==="
  t0=$(date +%s)
  "$@"
  rc=$?
  t1=$(date +%s)
  STAGES+=("$name")
  TIMES+=($((t1 - t0)))
  if [ "$rc" -eq 0 ]; then RESULTS+=("pass"); else RESULTS+=("FAIL"); fi
  return 0
}

build_stage() {
  if [ ! -f "$BUILD_DIR/CMakeCache.txt" ]; then
    cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo || return 1
  fi
  cmake --build "$BUILD_DIR" -j
}

bench_stage() {
  local w
  for w in sweep chaos dpor; do
    python3 perfbench/run.py --workload "$w" --seed 1 --seconds 1 --trace 0 || return 1
  done
}

ctest_label() {
  # -L runs one stage's label; unit excludes all stage labels instead.
  # -j needs an explicit value: a bare `-j` would swallow the -L/-LE flag.
  (cd "$BUILD_DIR" && ctest --output-on-failure -j "$(nproc)" "$@")
}

run_stage build build_stage
run_stage unit ctest_label -LE 'smoke|chaos|explore|obs|sanitize|tsan'
run_stage smoke ctest_label -L smoke
run_stage chaos ctest_label -L chaos
run_stage explore ctest_label -L explore
run_stage obs ctest_label -L obs
run_stage bench bench_stage
# The sanitizer stages invoke the script directly: their label-registered
# tests are DISABLED unless configured with -DMM_SANITIZE_TEST=ON. Each
# builds its own side tree (build-sanitize/, build-tsan/), so neither
# inherits this script's BUILD_DIR.
if [ "${MM_CI_ASAN:-0}" = "1" ]; then
  run_stage asan env -u BUILD_DIR MM_SANITIZE=address bash scripts/sanitize.sh
else
  STAGES+=("asan")
  RESULTS+=("skip")
  TIMES+=(0)
fi
if [ "${MM_CI_TSAN:-0}" = "1" ]; then
  run_stage tsan env -u BUILD_DIR MM_SANITIZE=thread bash scripts/sanitize.sh
else
  STAGES+=("tsan")
  RESULTS+=("skip")
  TIMES+=(0)
fi

echo
echo "== CI summary =="
printf '| %-8s | %-6s | %8s |\n' stage result "sec"
printf '|----------|--------|----------|\n'
failed=0
for i in "${!STAGES[@]}"; do
  printf '| %-8s | %-6s | %8s |\n' "${STAGES[$i]}" "${RESULTS[$i]}" "${TIMES[$i]}"
  [ "${RESULTS[$i]}" = "FAIL" ] && failed=1
done
if [ "$failed" -ne 0 ]; then
  echo "CI: FAIL"
  exit 1
fi
echo "CI: OK"
