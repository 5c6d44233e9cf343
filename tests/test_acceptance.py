"""Acceptance suite: every gating criterion, one printed PASS/FAIL line each.

The printed lines bypass pytest's capture so a plain `pytest -v` run leaves a
readable scoreboard in the log.  Stretch rows of the tower family are
reported for information and never gate; set MONTES_ACCEPT_STRETCH=1 to run
the large ones (the deepest member takes on the order of minutes to build
and a half hour to factor).
"""

import json
import os
import random
import subprocess
import sys
import time

from montes.cli import main, poly_to_expr
from montes.corpus import multi_branch, tower_phi
from montes.driver import disc_valuation, factor_prime
from montes.idealgen import compute_generators
from montes.polygon import cut_sides, principal_sides, region_index
from montes.zpoly import IntPolynomial, pval

from .oracles import (
    NotApplicable,
    dedekind_oracle,
    lattice_index_oracle,
    refinement_equivalence_check,
    refinement_instance,
    sylvester_discriminant,
    tame_disc_check,
)
from .test_driver import random_squarefree
from .test_idealgen import corrections, identity_grid, valuation_grid
from .test_polygon import _random_cloud, vertices_of
from .test_zpoly import F12

STRETCH = os.environ.get("MONTES_ACCEPT_STRETCH") == "1"


def report(capsys, label, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {label}"
    if detail:
        line += f"  ({detail})"
    with capsys.disabled():
        print(line)
    return ok


def ef(result):
    return sorted((r.e, r.f) for r in result.primes)


def test_a1_degree_twelve_benchmark(capsys):
    t0 = time.perf_counter()
    r = factor_prime(F12, 2)
    dv = disc_valuation(r)
    dt = time.perf_counter() - t0
    ok = (
        ef(r) == [(2, 1)] * 6
        and r.index == 33
        and dv == 84
        and dv - 2 * r.index == 18
        and dt < 1.0
    )
    assert report(
        capsys,
        "A1 degree-12 benchmark at 2: six (2,1), index 33, disc 84, field 18",
        ok,
        f"{dt:.3f}s",
    )


def test_a2_composed_cube(capsys):
    g = IntPolynomial([5, 1, 0, 1])
    f = g**50 + IntPolynomial([2**89]) * g**25 + IntPolynomial([2**178])
    t0 = time.perf_counter()
    r = factor_prime(f, 2)
    dt = time.perf_counter() - t0
    ok = ef(r) == [(25, 6)] and r.index == 13011 and dt < 10.0
    assert report(
        capsys,
        "A2 degree-150 composed cube at 2: one (25,6), index 13011",
        ok,
        f"{dt:.3f}s",
    )


def test_a3_tower_rows(capsys):
    table = {1: (2, 2, 1, 2), 2: (4, 16, 1, 4), 3: (16, 360, 2, 8), 4: (32, 1544, 2, 16)}
    ok = True
    worst = 0.0
    for level, (deg, index, e, fdeg) in table.items():
        f = tower_phi(level)
        t0 = time.perf_counter()
        r = factor_prime(f, 2)
        dt = time.perf_counter() - t0
        worst = max(worst, dt)
        ok = ok and f.degree == deg and r.index == index and ef(r) == [(e, fdeg)] and dt < 1.0
    assert report(capsys, "A3 tower levels 1-4 exact", ok, f"worst {worst:.3f}s")

    # Levels 5-8 are stretch rows: report what the printed members actually
    # yield, never gate on them.  The level-5 member provably disagrees with
    # its advertised invariants (see the build ledger outside the package).
    t0 = time.perf_counter()
    r5 = factor_prime(tower_phi(5), 2)
    dt = time.perf_counter() - t0
    with capsys.disabled():
        print(
            f"[STRETCH] A3 tower level 5: measured index {r5.index}, "
            f"primes {ef(r5)}  ({dt:.3f}s)"
        )
    if not STRETCH:
        with capsys.disabled():
            print("[STRETCH] A3 tower levels 6-8 skipped (set MONTES_ACCEPT_STRETCH=1)")
        return
    for level in (6, 7):
        t0 = time.perf_counter()
        f = tower_phi(level)
        r = factor_prime(f, 2)
        dt = time.perf_counter() - t0
        with capsys.disabled():
            print(
                f"[STRETCH] A3 tower level {level}: measured index {r.index}, "
                f"primes {ef(r)}  ({dt:.1f}s)"
            )
    # Level 8 (degree 6912) gets a half-hour budget in a subprocess; running
    # over is reported, never failed.
    script = (
        "import sys, time\n"
        "sys.set_int_max_str_digits(2_000_000)\n"
        "from montes.corpus import tower_phi\n"
        "from montes.driver import factor_prime\n"
        "t0 = time.perf_counter()\n"
        "r = factor_prime(tower_phi(8), 2)\n"
        "pairs = sorted((q.e, q.f) for q in r.primes)\n"
        "print(f'measured index {r.index}, primes {pairs}"
        "  ({time.perf_counter() - t0:.0f}s)')\n"
    )
    try:
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=1800,
        )
        note = proc.stdout.strip() or proc.stderr.strip()
    except subprocess.TimeoutExpired:
        note = "exceeded the 30 minute budget (non-gating)"
    with capsys.disabled():
        print(f"[STRETCH] A3 tower level 8: {note}")


def test_a4_quartic_refinement_chain(capsys):
    q = IntPolynomial([1, 1, 1])
    ok = True
    worst = 0.0
    for p in (7, 13, 1009):
        f = q * q - IntPolynomial([p**1001])
        t0 = time.perf_counter()
        r = factor_prime(f, p)
        dt = time.perf_counter() - t0
        worst = max(worst, dt)
        ok = ok and ef(r) == [(2, 1), (2, 1)] and r.index == 1000 and dt < 60.0
    assert report(
        capsys,
        "A4 quartic with 500 refinement rounds at 7, 13, 1009: two (2,1), index 1000",
        ok,
        f"worst {worst:.2f}s",
    )


def test_a5_multi_branch(capsys):
    f = multi_branch(1)
    t0 = time.perf_counter()
    r = factor_prime(f, 13)
    dt = time.perf_counter() - t0
    pairs = [(q.e, q.f) for q in r.primes]
    ok = (
        f.degree == 120
        and all(pr == (5, 24) for pr in pairs)
        and sum(e * k for e, k in pairs) == 120
        and r.index == 21576
        and dt < 30.0
    )
    assert report(
        capsys,
        "A5 degree-120 branch seed at 13: (5,24) primes, index 21576",
        ok,
        f"{dt:.3f}s, {len(pairs)} prime(s)",
    )


def test_a6_property_suite(capsys):
    t0 = time.perf_counter()
    rng = random.Random(20260819)
    ok = True

    # (a) degrees fill, (b) tame identity, (e) Dedekind agreement at index 0
    for _ in range(1000):
        f = random_squarefree(rng)
        p = rng.choice([2, 3, 5, 13])
        r = factor_prime(f, p)
        pairs = [(q.e, q.f) for q in r.primes]
        ok = ok and sum(e * k for e, k in pairs) == f.degree
        try:
            disc_v = pval(sylvester_discriminant(f.coeffs), p)
            lhs, rhs = tame_disc_check(disc_v, p, r.index, pairs)
            ok = ok and lhs == rhs
        except NotApplicable:
            pass
        zero, dk_primes = dedekind_oracle(f, p)
        ok = ok and zero == (r.index == 0)
        if zero:
            ok = ok and sorted(dk_primes) == sorted(pairs)

    # (c) polygon index routines against brute-force lattice enumeration
    for trial in range(500):
        cloud = _random_cloud(rng, with_zero=trial % 2 == 0)
        sides = principal_sides(cloud)
        for h in (0, 1, 2):
            cut = cut_sides(sides, h)
            want = lattice_index_oracle(vertices_of(cut), h)
            ok = ok and region_index(sides, h) == want

    # (d) unit-side refinement instances: both absorption orders agree
    for _ in range(100):
        coeffs, p = refinement_instance(rng)
        ok = ok and refinement_equivalence_check(IntPolynomial(coeffs), p)

    dt = time.perf_counter() - t0
    ok = ok and dt < 300.0
    assert report(
        capsys,
        "A6 property suite: 1000 factorizations, 500 polygons, 100 refinements",
        ok,
        f"{dt:.1f}s",
    )


def test_a7_generators(capsys):
    t0 = time.perf_counter()
    r = factor_prime(F12, 2)
    alphas = compute_generators(r)
    ok = valuation_grid(r, alphas) == identity_grid(6)
    ok = ok and all(a.p_power >= 0 for a in alphas)

    # Domination structure of the benchmark: three records each fold in one
    # other generator, with correction exponents 4, 4 and 1.
    fix = corrections(r)
    ok = ok and len(fix) == 3 and len({i for i, _ in fix}) == 3
    ok = ok and sorted(fix.values()) == [1, 4, 4]

    rng = random.Random(20260819)
    for _ in range(20):
        f = random_squarefree(rng)
        p = rng.choice([2, 3, 5, 13])
        rr = factor_prime(f, p)
        alphas = compute_generators(rr)
        ok = ok and valuation_grid(rr, alphas) == identity_grid(len(rr.primes))
        ok = ok and all(a.p_power >= 0 for a in alphas)
    dt = time.perf_counter() - t0
    ok = ok and dt < 30.0
    assert report(
        capsys,
        "A7 generators: identity grid, p-power denominators, correction exponents {4,4,1}",
        ok,
        f"{dt:.1f}s",
    )


def test_a8_determinism(capsys):
    argv = [
        "factor", "--prime", "2", "--poly", poly_to_expr(F12),
        "--json", "--generators", "--disc", "--seed", "7",
    ]

    def run():
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        doc.pop("timings_ms")  # wall-clock, exempt from byte comparison
        return json.dumps(doc, indent=2)

    first, second = run(), run()
    assert report(capsys, "A8 determinism: repeated seed byte-identical", first == second)
