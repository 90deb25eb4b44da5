#!/usr/bin/env python3
"""Benchmark of the m&m experiment engine: sweep, chaos and dpor workloads.

    python3 perfbench/run.py --workload {sweep,chaos,dpor} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of the repository. It builds the program's libraries
and the perfbench binary from source into .bench_build/, times one workload
for --seconds, checks every output against the committed digests in
perfbench/digests.json, prints every metric by name with its unit, and ends
with one JSON line {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics of BENCHMARK.json with --trace 0, the per-layer ones with
--trace 1. A wrong output prints that line with "correct": false, names the
problem on stderr and exits 1.

    python3 perfbench/run.py --record-digests

runs every input window once and rewrites the committed digests; use it
only for a change that is meant to alter trajectories. perfbench/README.md
explains the workloads and the metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
DIGESTS = os.path.join(HERE, "digests.json")
WORKLOADS = ("sweep", "chaos", "dpor")
# Set-up is a few milliseconds of process start and input building; the
# median over several fresh processes keeps one slow exec from moving it.
SETUP_PROBES = 9
# What a perfbench process may take beyond its --seconds: warm-up, the last
# batch's overrun, the 1-worker traced batch, the checks and the capacity burn.
RUN_MARGIN_S = 120
# Knobs the program reads from the environment when a config leaves them
# unset. The benchmark times the default engine, so the processes it starts
# never inherit them.
ENGINE_ENV = ("MM_JOBS", "MM_SIM_BACKEND", "MM_SIM_PARTITIONS")


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def call(cmd):
    # Build output goes to stderr: stdout must end with the result line.
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=False)
    if done.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited with {done.returncode}")


def build(target="perfbench"):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no src/ beside perfbench/: the benchmark builds the program from source")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        call(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = max(1, min(len(os.sched_getaffinity(0)), 4))
    call(["cmake", "--build", BUILD, "--target", target, "--parallel", str(jobs)])


def run_binary(args, seconds=0.0):
    env = {k: v for k, v in os.environ.items() if k not in ENGINE_ENV}
    done = subprocess.run([BINARY] + args, stdout=subprocess.PIPE, stderr=sys.stderr, env=env,
                          text=True, timeout=seconds + RUN_MARGIN_S, check=False)
    if done.returncode != 0:
        raise BenchError(f"perfbench {' '.join(args)} exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"perfbench {' '.join(args)} printed no record")
    return json.loads(lines[-1])


def setup_seconds(workload, seed):
    """Process start to first item dispatch, median over fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        # CLOCK_MONOTONIC, the clock the perfbench binary's steady_clock reads.
        start = time.monotonic_ns()
        probe = run_binary(["probe", "--workload", workload, "--seed", str(seed)])
        samples.append((probe["first_dispatch_ns"] - start) / 1e9)
    return statistics.median(samples), samples


def check_record(rec, committed):
    """Compares a perfbench binary record with the committed outputs.

    Returns (attempted, failed, known, problems). `failed` counts items that
    threw, broke an oracle with no committed known finding, or ran in a batch
    whose digest differs from the committed one; `known` counts the known
    findings hit.
    """
    problems = []
    if rec["params"] != committed["params"]:
        problems.append(f"inputs differ from the committed ones: {rec['params']} "
                        f"vs {committed['params']}")
    window = rec["window"]
    digests = committed["digests"]
    expected = digests[window] if window < len(digests) else None
    known_findings = {(k["item"], k["oracle"]) for k in committed.get("known_findings", [])}
    attempted = failed = known = 0
    for pas in rec["passes"]:
        for batch in pas["batches"]:
            attempted += batch["items"]
            if batch["digest"] != expected:
                problems.append(f"DIGEST MISMATCH: {pas['name']} batch of window {window} "
                                f"gave {batch['digest']}, committed {expected}")
                failed += batch["items"]
                continue
            violations = [tuple(v) for v in batch["violations"]]
            unexpected = [v for v in violations if v not in known_findings]
            known += len(violations) - len(unexpected)
            failed += batch["exceptions"] + len(unexpected)
            if batch["exceptions"]:
                problems.append(f"{batch['exceptions']} item(s) threw in the {pas['name']} pass")
            if unexpected:
                problems.append(f"oracle violations with no known finding: {unexpected[:5]}")
    checks = rec["checks"]
    if "reference" in checks and not checks["reference"]["match"]:
        problems.append(f"harness aggregates differ from core::sweep_termination: "
                        f"{checks['reference']}")
    if "pins" in committed and checks.get("pins") != committed["pins"]:
        problems.append(f"DPOR counts differ from the pinned ones: {checks.get('pins')} "
                        f"vs {committed['pins']}")
    return attempted, failed, known, problems


def end_to_end(rec, setup_s):
    batches = rec["passes"][0]["batches"]
    return {
        "wall_s": statistics.median(b["wall_s"] for b in batches),
        "items_per_s": statistics.median(b["items"] / b["wall_s"] for b in batches),
        "item_p50_us": statistics.median(b["p50_us"] for b in batches),
        "item_p90_us": statistics.median(b["p90_us"] for b in batches),
        "setup_s": setup_s,
        "peak_rss_mib": rec["peak_rss_mib"],
    }


def measure(args):
    spec = load_json(SPEC)
    committed = load_json(args.digests)[args.workload]
    setup_s, setup_samples = (setup_seconds(args.workload, args.seed)
                              if args.trace == 0 else (None, []))
    os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
    trace_out = os.path.join(BUILD, "traces", f"{args.workload}.trace.json")
    rec = run_binary(["run", "--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", repr(float(args.seconds)), "--trace", str(args.trace),
                      "--trace-out", trace_out], args.seconds)
    attempted, failed, known, problems = check_record(rec, committed)
    error_rate = (failed + known) / attempted if attempted else 1.0

    if args.trace == 0:
        wanted, values = spec["end_to_end"], end_to_end(rec, setup_s)
    else:
        wanted, values = spec["per_layer"], dict(rec["layers"], error_rate=error_rate)
    unknown = set(values) - {m["name"] for m in wanted}
    if unknown:
        raise BenchError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics, absent = {}, []
    for m in wanted:
        if m["name"] not in values:
            absent.append(m["name"])
        metrics[m["name"]] = {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    report(args, rec, metrics, absent, known, error_rate)
    os.makedirs(os.path.join(BUILD, "records"), exist_ok=True)
    record_path = os.path.join(BUILD, "records",
                               f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as f:
        json.dump({"result": result, "problems": problems, "setup_samples_s": setup_samples,
                   "binary": rec}, f, indent=1)
    for problem in problems:
        log(f"perfbench: {problem}")
    return result


def report(args, rec, metrics, absent, known, error_rate):
    ctx = rec["context"]
    print(f"perfbench {args.workload}: seed {args.seed}, input window {rec['window']}, "
          f"{rec['workers']} worker(s), trace {args.trace}")
    print(f"machine: nproc {ctx['nproc']}, measured parallel capacity {ctx['capacity']:.2f}, "
          f"{ctx['compiler']}, {ctx['build_type']}, "
          f"allocation counting {'on' if ctx['alloc_counting'] else 'off'}")
    for pas in rec["passes"]:
        items = sum(b["items"] for b in pas["batches"])
        print(f"pass {pas['name']}: {len(pas['batches'])} batch(es), {items} item samples, "
              f"{pas['workers']} worker(s), digest {pas['batches'][0]['digest']}")
    print(f"error_rate {error_rate:.6g} ({known} known finding(s), see perfbench/README.md)")
    for name, m in metrics.items():
        note = "  (not measured on this workload)" if name in absent else ""
        print(f"{name:<36} {m['value']:.6g} {m['unit']}{note}")


def record_digests(path):
    doc = load_json(path) if os.path.exists(path) else {}
    for workload in WORKLOADS:
        def run_seed(k):
            # Seed k runs input window k: a seed picks window seed mod windows.
            return run_binary(["run", "--workload", workload, "--seed", str(k),
                               "--seconds", "0", "--trace", "0"])
        records = [run_seed(0)]
        records += [run_seed(k) for k in range(1, records[0]["params"]["windows"])]
        entry = doc.setdefault(workload, {})
        entry["params"] = records[0]["params"]
        entry["digests"] = [r["passes"][0]["batches"][0]["digest"] for r in records]
        for r in records:
            for item, oracle in r["passes"][0]["batches"][0]["violations"]:
                log(f"{workload} window {r['window']}: item {item} broke {oracle}")
        if "pins" in records[0]["checks"]:
            log(f"{workload} pins: {records[0]['checks']['pins']}")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--digests", default=DIGESTS,
                        help="committed digests to check against (default: %(default)s)")
    parser.add_argument("--record-digests", action="store_true",
                        help="rerun every input window once and rewrite --digests")
    args = parser.parse_args()
    if args.seed < 0 or not 0 <= args.seconds <= 3600:
        parser.error("--seed must be >= 0 and --seconds within [0, 3600]")
    if args.workload is None and not args.record_digests:
        parser.error("--workload is required")
    try:
        build()
        if args.record_digests:
            record_digests(args.digests)
            return 0
        result = measure(args)
    except (BenchError, OSError, ValueError, KeyError, subprocess.SubprocessError) as err:
        log(f"perfbench: {err}")
        return 1
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
