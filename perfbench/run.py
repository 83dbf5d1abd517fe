#!/usr/bin/env python3
"""Build and run the repository benchmark.

One run (what BENCHMARK.json's command does):

    python3 perfbench/run.py --workload figures --seed 1 --seconds 30 --trace 0

builds the perfbench binary and the gangd daemon from this checkout's
sources into .bench_build/ (incrementally), then runs one workload and
prints its JSON result as the last line of standard output.

Steadiness mode:

    python3 perfbench/run.py --steady 10 --seconds 30 [--workloads figures,gangd]

runs each workload that many times with seeds 1..N, prints every
end-to-end metric's median and quartiles against its bound from
BENCHMARK.json, and exits non-zero when a spread exceeds its bound, an
answer was wrong, or the share of failed operations differs between runs.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench"


def build():
    """Configure once, then build incrementally; False on any failure."""
    log = sys.stderr
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", str(BUILD), "-j", "4",
           "--target", "perfbench", "gangd"]
    return subprocess.run(cmd, stdout=log, stderr=log).returncode == 0


def run_once(workload, seed, seconds, trace):
    """One benchmark run; returns its parsed result line."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}")
    return json.loads(lines[-1])


def steady(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = ([w["name"] for w in spec["workloads"]] if not args.workloads
             else args.workloads.split(","))
    ok = True
    for workload in names:
        runs = []
        for i in range(args.steady):
            r = run_once(workload, args.seed + i, args.seconds, 0)
            runs.append(r)
            print(f"{workload} seed {args.seed + i}: " + json.dumps(r),
                  file=sys.stderr)
        shares = {(r["failed"], r["attempted"]) for r in runs}
        fail_shares = {f / a for f, a in shares}
        print(f"\n{workload}: attempted/failed per run: "
              + ", ".join(f"{a}/{f}" for f, a in sorted(shares)))
        if len(fail_shares) != 1:
            print("  FAIL: the share of failed operations differs between runs")
            ok = False
        if not all(r["correct"] for r in runs):
            print("  FAIL: a run reported wrong answers")
            ok = False
        print(f"  {'metric':<20} {'median':>12} {'q1':>12} {'q3':>12}"
              f" {'spread':>8} {'bound':>6}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread <= bound else "  FAIL"
            if flag:
                ok = False
            print(f"  {name:<20} {med:12.6g} {q1:12.6g} {q3:12.6g}"
                  f" {spread:8.3f} {bound:6.2f}{flag}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, default=0,
                    help="steadiness mode: runs per workload")
    ap.add_argument("--workloads",
                    help="steadiness mode: comma-separated workload names")
    args = ap.parse_args()
    if not args.steady and not args.workload:
        ap.error("--workload is required outside steadiness mode")
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.steady:
        return steady(args)
    sys.stdout.flush()
    os.execv(str(BINARY), [str(BINARY), "--workload", args.workload,
                           "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", str(args.trace)])


if __name__ == "__main__":
    sys.exit(main())
