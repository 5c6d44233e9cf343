"""Steadiness of the benchmark: run each workload over many seeds.

    python3 perfbench/steady.py [--workloads a,b] [--runs 10]

Runs `perfbench/run.py` once per seed (1, 2, ...) and workload, one run at a
time, for BENCHMARK.json's run_seconds, and prints for each end-to-end
metric its median, quartiles and quartile spread as a share of the median,
next to the bound in BENCHMARK.json.  A spread at or above a third of the
bound is marked.  The share of failed operations must be the same in every
run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)
    seconds = spec["run_seconds"]

    steady = True
    for name in args.workloads.split(","):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        shares, walls = set(), []
        for seed in range(1, args.runs + 1):
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(seconds), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            walls.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{name} seed {seed}: exit code {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(proc.stderr, file=sys.stderr)
                steady = False
            shares.add((result["failed"] / result["attempted"]))
            for metric, v in result["metrics"].items():
                values[metric].append(v["value"])
        print(f"{name}: {args.runs} runs of {seconds} s, seeds 1..{args.runs}, "
              f"wall per run {statistics.median(walls):.1f} s (max {max(walls):.1f}), "
              f"failed share {sorted(shares)}")
        steady &= len(shares) == 1
        for m in spec["end_to_end"]:
            xs = values[m["name"]]
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            mark = "" if spread < m["bound"] / 3 else "  <-- spread >= bound/3"
            steady &= not mark
            print(f"  {m['name']:<13} median {med:12.4f} {m['unit']:<6} q1 {q1:12.4f}  q3 {q3:12.4f}"
                  f"  spread {spread:6.3f}  bound {m['bound']}{mark}")
            print("    runs: " + " ".join(f"{x:.4g}" for x in xs))
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
