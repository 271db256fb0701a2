#!/usr/bin/env python3
"""Builds and runs the query-path benchmark (see README.md).

One run, as BENCHMARK.json's command gives it, from the repository root:

    python3 perfbench/run.py --workload star-d2 --seed 1 --seconds 25 --trace 0

builds perfbench/ (CMake, Release) into .bench_build/ when needed, runs one
workload and passes the program's output through; its last stdout line is
the run's JSON result.

Tooling on top of single runs:

    --repeat N [--workload W ...] [--out FILE]
        runs each workload N times (seeds 1..N) and prints, per metric, the
        median, the quartiles and the spread (interquartile range over
        median), plus the failed share; FILE keeps every value.
    --compare BASE.json NEW.json
        compares two --repeat files against the bounds in BENCHMARK.json:
        a metric whose NEW median is worse than BASE's by more than its
        bound is a regression (exit code 1).
    --smoke
        runs every workload for one second with tracing off and on, so
        every check runs quickly.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BINARY = os.path.join(BUILD, "perfbench")
SPEC = os.path.join(ROOT, "BENCHMARK.json")


def build():
    """Configures (once) and builds the benchmark; build output goes to
    stderr so stdout stays the benchmark's own."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def run_once(workload, seed, seconds, trace):
    """One run; returns (exit code, parsed last stdout line or None)."""
    proc = subprocess.run(
        [BINARY, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stdout


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def repeat(args):
    spec = load_spec()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    out = {}
    for w in workloads:
        runs = []
        for seed in range(1, args.repeat + 1):
            code, result, _ = run_once(w, seed, seconds, args.trace)
            if code != 0 or result is None or not result["correct"]:
                sys.exit(f"perfbench: {w} seed {seed} failed (exit {code})")
            runs.append(result)
        out[w] = runs
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{w}: {len(runs)} runs, failed share "
              f"{', '.join(f'{s:.6f}' for s in sorted(shares))}")
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            s = summarize(vals)
            unit = runs[0]["metrics"][name]["unit"]
            print(f"  {name:40s} median {s['median']:.6g} {unit}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                  f"spread {s['spread']:.3f}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(out, f)


def compare(base_path, new_path):
    spec = load_spec()
    with open(base_path) as f:
        base = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    regressions = 0
    for w in base:
        if w not in new:
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            if name not in base[w][0]["metrics"]:
                continue
            b = statistics.median(r["metrics"][name]["value"] for r in base[w])
            n = statistics.median(r["metrics"][name]["value"] for r in new[w])
            worse = (n - b) / b if m["better"] == "lower" else (b - n) / b
            flag = "REGRESSION" if worse > m["bound"] else "ok"
            regressions += flag != "ok"
            print(f"{w:9s} {name:18s} base {b:.6g}  new {n:.6g}  "
                  f"worse by {worse:+.3f} (bound {m['bound']})  {flag}")
        bshare = {r["failed"] / r["attempted"] for r in base[w]}
        nshare = {r["failed"] / r["attempted"] for r in new[w]}
        if bshare != nshare:
            regressions += 1
            print(f"{w:9s} failed share differs: {sorted(bshare)} vs "
                  f"{sorted(nshare)}")
    return 1 if regressions else 0


def smoke():
    spec = load_spec()
    bad = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            code, result, _ = run_once(w["name"], 1, 1, trace)
            ok = code == 0 and result is not None and result["correct"]
            bad += not ok
            print(f"{w['name']:9s} trace {trace}: "
                  f"{'ok' if ok else 'FAILED'} "
                  f"({result['attempted'] if result else '-'} requests)")
    return 1 if bad else 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", action="append")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int)
    p.add_argument("--out")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()

    if args.compare:
        return compare(*args.compare)
    build()
    if args.smoke:
        return smoke()
    if args.repeat:
        return repeat(args)
    if not args.workload or len(args.workload) != 1 or args.seconds is None:
        p.error("a single run needs one --workload and --seconds")
    code, _, stdout = run_once(args.workload[0], args.seed, args.seconds,
                               args.trace)
    sys.stdout.write(stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
