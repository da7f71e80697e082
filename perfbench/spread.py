#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [workload ...]

Runs perfbench/run.py once per seed for each workload (all of
BENCHMARK.json's workloads by default) and prints, per metric, the
median and the distance between the first and third quartile as a
share of the median (statistics.quantiles(values, n=4)), next to the
metric's bound from BENCHMARK.json.  Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    failed_runs = 0
    steal = {}
    for w in workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w, "--seed",
                   str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            lines = out.stdout.strip().splitlines()
            if not lines or not lines[-1].startswith("{"):
                print(f"{w} seed {seed}: exit {out.returncode}, no result\n{out.stdout[-2000:]}")
                return 1
            result = json.loads(lines[-1])
            if not result["correct"]:
                failed_runs += 1
                bad = [l for l in lines if "VIOLATION" in l][:3]
                print(f"{w} seed {seed}: correct=false (exit {out.returncode}) " + " | ".join(bad),
                      flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for line in lines:
                if line.startswith("provenance "):
                    steal.setdefault(w, []).append(json.loads(line[11:])["host_steal_pct"])
        print(f"{w:14s} host CPU stolen by the hypervisor: "
              f"[{' '.join(f'{v:.1f}%' for v in steal.get(w, []))}]", flush=True)
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print(f"{w:14s} {name:15s} median {med:12.6g}  spread {spread:6.3f}  "
                  f"bound {bounds[name]:.2f}  {'ok' if spread <= bounds[name] / 3 else 'WIDE'}  "
                  f"[{' '.join(f'{v:.4g}' for v in vals)}]", flush=True)
    print(f"worst spread / bound (setup_s excluded): {worst:.3f}; runs with correct=false: "
          f"{failed_runs}")
    return 0 if failed_runs == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
