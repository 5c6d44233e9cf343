"""Quick self-check of the benchmark, in seconds.

    python3 perfbench/selfcheck.py

Runs one round of every workload at small sizes, untraced and twice traced,
with every output check on.  It requires that each run is correct, that only
the budgeted operations fail, that two traced runs with the same seed give
the same counts and sizes, that the output checks reject a tampered
answer, and that a failed operation makes a run incorrect unless it is a
budgeted one that ran out of its budget.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402


def run(name: str, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", "3",
           "--seconds", "0", "--trace", str(trace), "--small"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SystemExit(f"{name}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tampered_answer_is_caught() -> bool:
    """The checks pass the true A1 answer and reject three wrong ones."""
    coeffs = workloads.A1
    index, ef = workloads.KNOWN["A1", 2]
    expect = {"index": index, "ef": ef}
    good = {"prime": "2", "degree": 12, "index": 33, "disc_valuation": 84,
            "field_disc_valuation": 18,
            "primes": [{"e": e, "f": f, "generator": None} for e, f in ef]}
    disc_v = checks.vp(checks.discriminant(coeffs), 2)
    if checks.check_payload(good, coeffs, 2, expect, disc_v):
        return False
    wrong = [
        dict(good, index=34, field_disc_valuation=16),
        dict(good, disc_valuation=86, field_disc_valuation=20),
        dict(good, primes=good["primes"][:5] + [{"e": 1, "f": 2, "generator": None}]),
    ]
    return all(checks.check_payload(bad, coeffs, 2, expect, disc_v) for bad in wrong)


def failures_are_judged() -> bool:
    """An operation that crashed is a check failure even when no round
    produced an answer; one that ran out of its budget is not."""
    op = workloads.Op("A1", 2)
    wl = workloads.Workload([op], {"A1": workloads.A1})
    crashed = [{"ops": [(0.1, None, "failed: ValueError()")]}]
    over_budget = [{"ops": [(2.0, None, None)]}]
    return bool(bench.check_rounds(wl, crashed, 1)) and not bench.check_rounds(wl, over_budget, 1)


def main() -> int:
    ok = tampered_answer_is_caught()
    print(f"tampered answers rejected: {ok}")
    judged = failures_are_judged()
    print(f"unbudgeted failures make a run incorrect: {judged}")
    ok &= judged
    for name in workloads.NAMES:
        plain = run(name, 0)
        traced = [run(name, 1) for _ in range(2)]
        budgeted = 2 if name == "ideal-data" else 0
        exact = [{k: v["value"] for k, v in t["metrics"].items() if not k.endswith("_s")}
                 for t in traced]
        good = (
            all(r["correct"] for r in [plain] + traced)
            and all(r["failed"] == budgeted for r in [plain] + traced)
            and exact[0] == exact[1]
        )
        print(f"{name}: correct {plain['correct']}, attempted {plain['attempted']}, "
              f"failed {plain['failed']}, traced counts repeat {exact[0] == exact[1]}: "
              f"{'ok' if good else 'FAIL'}")
        ok &= good
    print("self-check passed" if ok else "self-check FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
