#!/usr/bin/env bash
# Observability smoke: proves the trace pipeline hasn't bit-rotted.
#
# Uses the built tools/trace binary: records the built-in chaos scenario
# into an mm-trace-1 recording, re-exports it to a Chrome-trace / Perfetto
# JSON without re-running, prints the sim-time summary, and validates both
# JSON documents: schema tag, non-empty event stream including the
# scenario's crash and fault-rule events, balanced send->deliver flow
# arrows, and metadata naming. A second record with the same seed must be
# byte-identical (the recording is a pure function of seed x config), and
# `chaos show` on a planted repro must print the decoded trace tail, and a
# malformed numeric flag value must be rejected by name. Wired into CTest
# under the "obs" label:
#     ctest -L obs
#
# Env:
#   BUILD_DIR   built tree to use (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${BUILD_DIR:-build}

# The build makes every target (the tier-1 command and scripts/ci.sh build
# before testing); this script only runs what is there.
for bin in "$BUILD_DIR/tools/trace" "$BUILD_DIR/tools/chaos"; do
  if [ ! -x "$bin" ]; then
    echo "FAIL: $bin missing: build target $(basename "$bin") first (cmake --build $BUILD_DIR)" >&2
    exit 2
  fi
done

TRACE="$BUILD_DIR/tools/trace"
CHAOS="$BUILD_DIR/tools/chaos"
OUT="$BUILD_DIR/obs-smoke"
rm -rf "$OUT"
mkdir -p "$OUT"

echo "== malformed numeric flag: --iters 1e9 must fail, naming the flag =="
if err=$("$TRACE" record --seed 1 --iters 1e9 --out "$OUT/bad.json" 2>&1); then
  echo "FAIL: trace accepted --iters 1e9"
  exit 1
fi
case "$err" in
  *--iters*) echo "$err" ;;
  *) echo "FAIL: the error does not name --iters: $err"; exit 1 ;;
esac

echo "== record (chaos scenario, seed 1) =="
"$TRACE" record --seed 1 --iters 200 --out "$OUT/rec.json"
[ -s "$OUT/rec.json" ] || { echo "FAIL: recording missing or empty"; exit 1; }

echo "== determinism: same seed must record a byte-identical document =="
"$TRACE" record --seed 1 --iters 200 --out "$OUT/rec2.json"
cmp "$OUT/rec.json" "$OUT/rec2.json" \
  || { echo "FAIL: two records of seed 1 differ"; exit 1; }

echo "== export (--from: re-export without re-running) =="
"$TRACE" export --from "$OUT/rec.json" --out "$OUT/chrome.json"
[ -s "$OUT/chrome.json" ] || { echo "FAIL: chrome trace missing or empty"; exit 1; }

echo "== summarize =="
summary=$("$TRACE" summarize --from "$OUT/rec.json")
printf '%s\n' "$summary"
printf '%s\n' "$summary" | grep -q "delivery_latency" \
  || { echo "FAIL: summary lacks the delivery-latency histogram"; exit 1; }

echo "== validating JSON structure =="
if command -v python3 > /dev/null 2>&1; then
  python3 - "$OUT/rec.json" "$OUT/chrome.json" <<'EOF'
import json, sys
rec = json.load(open(sys.argv[1]))
if rec.get("schema") != "mm-trace-1":
    sys.exit(f"FAIL: recording schema is {rec.get('schema')!r}, want 'mm-trace-1'")
events = rec.get("events", [])
if not events:
    sys.exit("FAIL: recording has no events")
kinds = {e["kind"] for e in events}
for need in ("send", "deliver", "crash", "fault"):
    if need not in kinds:
        sys.exit(f"FAIL: no '{need}' events in the chaos recording")
if "obs" not in rec:
    sys.exit("FAIL: recording lacks the obs block")
if rec["obs"]["delivery_latency"]["count"] == 0:
    sys.exit("FAIL: delivery-latency histogram is empty")

doc = json.load(open(sys.argv[2]))
ev = doc["traceEvents"]
if not ev:
    sys.exit("FAIL: chrome trace has no events")
starts = sum(1 for e in ev if e.get("ph") == "s")
ends = sum(1 for e in ev if e.get("ph") == "f")
if starts == 0:
    sys.exit("FAIL: no flow arrows in chrome trace")
start_ids = {e["id"] for e in ev if e.get("ph") == "s"}
dangling = [e for e in ev if e.get("ph") == "f" and e["id"] not in start_ids]
if dangling:
    sys.exit(f"FAIL: {len(dangling)} flow end(s) with no matching start")
names = {e.get("name") for e in ev if e.get("ph") == "M"}
if "process_name" not in names or "thread_name" not in names:
    sys.exit("FAIL: chrome trace lacks process/thread naming metadata")
if not any(e.get("ph") == "X" for e in ev):
    sys.exit("FAIL: chrome trace has no duration slices")
print(f"recording: {len(events)} events; chrome: {len(ev)} events, "
      f"{starts} flow starts / {ends} ends, 0 dangling")
EOF
else
  grep -q '"schema": "mm-trace-1"' "$OUT/rec.json" \
    || { echo "FAIL: recording schema tag absent"; exit 1; }
  grep -q '"traceEvents"' "$OUT/chrome.json" \
    || { echo "FAIL: chrome trace shape absent"; exit 1; }
fi

echo "== chaos show prints the replayed trace tail =="
mkdir -p "$OUT/planted"
"$CHAOS" campaign --seed 3 --trials 60 --assert-termination \
  --expect-violations --out "$OUT/planted" > /dev/null
repros=("$OUT"/planted/chaos-repro-*.json)
if [ -e "${repros[0]}" ]; then
  shown=$("$CHAOS" show "${repros[0]}")
  printf '%s\n' "$shown" | grep -q "last events before the verdict" \
    || { echo "FAIL: chaos show did not print the trace tail"; exit 1; }
else
  echo "FAIL: planted campaign produced no repro to show"
  exit 1
fi

echo "obs smoke OK"
