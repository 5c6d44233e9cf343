"""Benchmark of `montes factor`: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its `src/`.
Each operation is one `montes factor ... --json` call made in-process through
`montes.cli.main`, from this single process and thread, on an input file
written in `--format coeffs` during set-up.  Whole rounds of the workload's
operations run back to back (a closed loop with one client) until they have
taken S seconds.  Round r passes `--seed` N + r to the program, so the cost of
its randomized factoring is averaged over rounds, and runs with nearby seeds
share most of their program seeds; the answers must not depend on it, and
every round must give the same answers.  Outputs are checked after the
timed rounds; an operation that fails counts in `failed`, and unless it is
one of the budgeted operations that ran out of its budget, it also makes
the run incorrect.  With `--trace 1` the rounds run under the
module-boundary tracer and the per-layer metrics are printed instead of the
end-to-end ones.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# Set-up runs once before the first round, once after every untraced round
# and then again until it has run this often; set-up time is their median.
# Spreading them over the run averages the machine's speed the way the
# rounds do.
SETUP_REPEATS = 7
# Above this degree the Sylvester determinant is too slow to run per check;
# such inputs use the stored reference values, when there are any.
SYLVESTER_MAX_DEGREE = 50
# The timings block's length follows the clock, so output sizes leave it out.
TIMINGS = re.compile(r'"timings_ms": \{[^}]*\}')

sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


class BudgetExceeded(Exception):
    pass


def _alarm(signum, frame):
    raise BudgetExceeded()


def _import_program():
    """Import montes afresh from this checkout, as a user's process would."""
    for name in [m for m in sys.modules if m == "montes" or m.startswith("montes.")]:
        del sys.modules[name]
    import montes.cli

    if not os.path.abspath(montes.cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"montes imported from {montes.cli.__file__}, not from {SRC}")
    return montes.cli


def set_up(name: str, seed: int, workdir: str, small: bool = False):
    """Import the program, build the workload's inputs and write them out."""
    t0 = time.perf_counter()
    cli = _import_program()
    wl = workloads.build(name, seed, small)
    paths = {}
    for i, (source, coeffs) in enumerate(wl.inputs.items()):
        path = os.path.join(workdir, f"input{i}.coeffs")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(str(c) for c in reversed(coeffs)) + "\n")
        paths[source] = path
    return cli, wl, paths, time.perf_counter() - t0


def run_op(cli, op, path: str, seed: int):
    """(seconds, output text or None when the operation failed, fault).

    fault is None unless the operation failed in a way it must not: every
    failure except a budgeted operation running out of its budget."""
    argv = ["factor", "--prime", str(op.prime), "--poly-file", path,
            "--format", "coeffs", "--json", "--seed", str(seed), *op.flags]
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        # the timer is disarmed before standard output is restored
        with contextlib.redirect_stdout(buf):
            if op.budget_s:
                signal.setitimer(signal.ITIMER_REAL, op.budget_s)
            try:
                code = cli.main(argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except BudgetExceeded:
        code = "over budget"
    except (Exception, SystemExit) as exc:  # a crash is a failed operation
        code = repr(exc)
    dt = time.perf_counter() - t0
    if code != 0:
        print(f"failed: {op.label}: {code}", file=sys.stderr)
        budgeted = op.budget_s is not None and code == "over budget"
        return dt, None, None if budgeted else f"failed: {code}"
    return dt, buf.getvalue(), None


def program_seed(seed: int, round_no: int) -> int:
    return seed + round_no


def run_rounds(cli, wl, paths, seed: int, seconds: float, tracer=None, between=None):
    """Whole rounds until they have taken `seconds`; per-round records.
    between() is called after every round, outside the timed rounds."""
    rounds = []
    elapsed = 0.0
    while True:
        if tracer is not None:
            tracer.restore(({}, {}, {}))
        r0 = time.perf_counter()
        ops = []
        for op in wl.ops:
            before = tracer.state() if tracer is not None else None
            dt, text, fault = run_op(cli, op, paths[op.source], program_seed(seed, len(rounds)))
            if text is None and tracer is not None:
                tracer.restore(before)  # an interrupted call leaves partial figures
            ops.append((dt, text, fault))
        wall = time.perf_counter() - r0
        figures = tracer.figures() if tracer is not None else {}
        figures["cli.output_bytes"] = sum(len(TIMINGS.sub("", t).encode()) for _, t, _ in ops if t)
        rounds.append({"wall": wall, "ops": ops, "figures": figures})
        elapsed += wall
        if between is not None:
            between()
        if elapsed >= seconds:
            return rounds


def _strip(text: str) -> dict:
    doc = json.loads(text)
    doc.pop("timings_ms", None)
    return doc


def check_rounds(wl, rounds, seed: int) -> List[str]:
    """Every problem found in the outputs.  An operation must not fail
    unless budgeted; its first output is checked in full, and every other
    round's output must repeat it exactly (timings aside)."""
    from montes.zpoly import IntPolynomial

    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        ref = json.load(fh)
    errs = []
    discs: Dict[str, int] = {}
    for i, op in enumerate(wl.ops):
        errs += sorted({f"{op.label}: {r['ops'][i][2]}" for r in rounds if r["ops"][i][2]})
        texts = [(n, r["ops"][i][1]) for n, r in enumerate(rounds) if r["ops"][i][1] is not None]
        if not texts:
            continue
        first, text = texts[0]
        payload = _strip(text)
        if any(_strip(t) != payload for _, t in texts[1:]):
            errs.append(f"{op.label}: output changed between rounds")
        coeffs = wl.inputs[op.source]
        disc_v = None
        if len(coeffs) - 1 <= SYLVESTER_MAX_DEGREE:
            if op.source not in discs:
                discs[op.source] = checks.discriminant(coeffs)
            disc_v = checks.vp(discs[op.source], op.prime)
        elif ref["disc_valuation"].get(op.source, {}).get("prime") == op.prime:
            disc_v = ref["disc_valuation"][op.source]["value"]
        expect = dict(op.expect)
        known = ref["splitting"].get(op.source)
        if known is not None and known["prime"] == op.prime:
            expect.update(index=known["index"], ef=[tuple(x) for x in known["ef"]])
        if (op.source, op.prime) in workloads.KNOWN:
            expect["index"], expect["ef"] = workloads.KNOWN[op.source, op.prime]
        problems = checks.check_payload(payload, coeffs, op.prime, expect, disc_v)
        try:
            problems += _other_routes(op, payload, IntPolynomial(coeffs), program_seed(seed, first), problems)
        except Exception as exc:  # a fault met while checking is a failed check
            problems.append(f"check raised {exc!r}")
        errs += [f"{op.label}: {msg}" for msg in problems]
    return errs


def _other_routes(op, payload, f, seed: int, problems) -> List[str]:
    """Compare with the order-climbing run, and test the generators'
    valuation grid through the program's separate value route."""
    from montes.driver import factor_prime

    out = []
    if op.climb:
        other = factor_prime(f, op.prime, seed=seed, refine=False)
        out += checks.same_splitting(payload, other.index, [(q.e, q.f) for q in other.primes])
    if "--generators" in op.flags and not problems:
        records = factor_prime(f, op.prime, seed=seed).primes
        out += checks.generator_grid_errors(payload, records, f, op.prime)
    return out


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def end_to_end(rounds, setup_times) -> Dict[str, float]:
    lat = [dt for r in rounds for dt, _, _ in r["ops"]]
    done = sum(1 for r in rounds for _, text, _ in r["ops"] if text is not None)
    return {
        "setup_s": _median(setup_times),
        "run_s": _median([r["wall"] for r in rounds]),
        "ops_per_s": done / sum(r["wall"] for r in rounds),
        "op_p50_ms": 1000.0 * _median(lat),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(rounds, names, corpus_times) -> Dict[str, float]:
    """Counts, sizes and bytes from the first round (they repeat exactly);
    times as the median over rounds."""
    out = {}
    for name in names:
        if name == "corpus.build_s":
            out[name] = _median(corpus_times)
        elif name == "trace.run_s":
            out[name] = _median([r["wall"] for r in rounds])
        elif name.endswith("_s"):
            out[name] = _median([r["figures"].get(name, 0.0) for r in rounds])
        else:
            out[name] = rounds[0]["figures"].get(name, 0)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true", help="shrunken inputs, for the self-check")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    # Corpus members carry coefficients with thousands of digits.
    sys.set_int_max_str_digits(max(sys.get_int_max_str_digits(), 2_000_000))
    signal.signal(signal.SIGALRM, _alarm)

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        setup_times, corpus_times = [], []

        def set_up_once():
            cli, wl, paths, took = set_up(args.workload, args.seed, workdir, args.small)
            setup_times.append(took)
            corpus_times.append(wl.corpus_s)
            return cli, wl, paths

        # Later set-ups are only timed: the rounds keep the first one's
        # program and inputs.
        cli, wl, paths = set_up_once()
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        try:
            rounds = run_rounds(cli, wl, paths, args.seed, args.seconds, tracer,
                                None if tracer is not None else set_up_once)
        finally:
            if tracer is not None:
                tracer.uninstall()
        while len(setup_times) < SETUP_REPEATS:
            set_up_once()
        if args.trace:
            values = per_layer(rounds, [m["name"] for m in wanted], corpus_times)
        else:
            values = end_to_end(rounds, setup_times)
        errs = check_rounds(wl, rounds, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for i, op in enumerate(wl.ops):
        lat = _median([r["ops"][i][0] for r in rounds])
        print(f"{1000 * lat:10.1f} ms  {op.label}", file=sys.stderr)
    for msg in errs:
        print(f"check failed: {msg}", file=sys.stderr)
    attempted = sum(len(r["ops"]) for r in rounds)
    failed = sum(1 for r in rounds for _, text, _ in r["ops"] if text is None)
    print(f"{args.workload} seed {args.seed}: {len(rounds)} round(s), "
          f"{attempted} operations, {failed} failed, {len(errs)} check failure(s)", file=sys.stderr)
    missing = {m["name"] for m in wanted} ^ set(values)
    if missing:
        raise KeyError(f"metrics computed and metrics in BENCHMARK.json differ: {sorted(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": not errs, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
