"""Regenerate the reference values that only a stored copy can give.

    python3 perfbench/reference.py [--only KEY ...]

Some answers are too slow to recompute in every benchmark run: the
discriminant valuations of the large fixed inputs need the Sylvester
determinant of a matrix of size 2n-1 (minutes for tower:5 and A2), and the
tower:5 splitting is not pinned by any acceptance row.  Each value is made
by a route apart from the default run (the order-climbing path
`factor_prime(refine=False)`, or the benchmark's own resultant) and written
to perfbench/reference.json with the command line that made it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

PATH = os.path.join(HERE, "reference.json")
# key -> (section, input, prime)
ENTRIES = {
    "splitting:tower:5": ("splitting", "tower:5", 2),
    "disc:tower:4": ("disc_valuation", "tower:4", 2),
    "disc:tower:5": ("disc_valuation", "tower:5", 2),
    "disc:A2": ("disc_valuation", "A2", 2),
}


def compute(section: str, source: str, p: int) -> dict:
    coeffs = workloads.fixed_input(source)
    if section == "splitting":
        from montes.driver import factor_prime
        from montes.zpoly import IntPolynomial

        r = factor_prime(IntPolynomial(coeffs), p, refine=False)
        return {"prime": p, "index": r.index, "ef": sorted([q.e, q.f] for q in r.primes),
                "route": "factor_prime(refine=False)"}
    return {"prime": p, "value": checks.vp(checks.discriminant(coeffs), p),
            "route": "Sylvester determinant of f and f'"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--only", nargs="+", choices=sorted(ENTRIES), default=sorted(ENTRIES))
    args = ap.parse_args(argv)
    sys.set_int_max_str_digits(max(sys.get_int_max_str_digits(), 2_000_000))
    with open(PATH, encoding="utf-8") as fh:
        ref = json.load(fh)
    for key in args.only:
        section, source, p = ENTRIES[key]
        t0 = time.perf_counter()
        entry = compute(section, source, p)
        entry["command"] = f"python3 perfbench/reference.py --only {key}"
        ref[section][source] = entry
        print(f"{key}: {entry}  ({time.perf_counter() - t0:.1f} s)", flush=True)
        with open(PATH, "w", encoding="utf-8") as fh:
            json.dump(ref, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
