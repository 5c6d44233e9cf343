import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from itertools import zip_longest
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from montes import driver, idealgen, types
from montes.cli import parse_poly
from montes.driver import disc_valuation, factor_prime
from montes.errors import InvariantViolation, UnliftableTarget, ZeroAtTheta
from montes.corpus import multi_branch, tower_phi
from montes.idealgen import beta, compute_generators, p_adic_inverse, value_at_prime
from montes.types import Type
from montes.zpoly import IntPolynomial, X, is_squarefree, pval

from .oracles import full_cofactor_euclid, sylvester_resultant
from .test_zpoly import F12

# At 2, the first prime's quotient needs the generators of the second and
# third primes, which come after it in branch order.
LATE_CORRECTIONS = parse_poly("x^6+56*x^5-63*x^4-72*x^3+78*x^2+112*x-40")


def lin(c):
    return X + IntPolynomial([c])


def valuation_grid(result, gens):
    """v_q(alpha_p) for every pair, through the expansion-value route only."""
    f, p = result.poly, result.p
    return [
        [value_at_prime(q, a.num, f, p) - a.p_power * q.e for q in result.primes]
        for a in gens
    ]


def identity_grid(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def corrections(result):
    """{(i, j): -v_j(beta_i)} for the pairs i != j whose value is nonzero."""
    f, p = result.poly, result.p
    out = {}
    for i, rec in enumerate(result.primes):
        b = beta(rec, f, p)
        for j, q in enumerate(result.primes):
            if j != i:
                v = value_at_prime(q, b.num, f, p) - q.e * b.p_power
                if v:
                    out[(i, j)] = -v
    return out


def test_generators_off_by_default():
    # A plain run leaves the generators out and never loads idealgen.
    code = (
        "import json, sys\n"
        "from montes.cli import main\n"
        "main(['factor', '--prime', '2', '--poly', 'x^2+4*x+16', '--json'])\n"
        "assert 'montes.idealgen' not in sys.modules\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert [q["generator"] for q in json.loads(out)["primes"]] == [None]


def test_benchmark_grid_is_identity():
    r = factor_prime(F12, 2)
    assert valuation_grid(r, compute_generators(r)) == identity_grid(6)


def test_benchmark_domination_structure():
    # Three pairs of branches; in each pair the steeper side dominates the
    # shallower one and nothing crosses between pairs.
    r = factor_prime(F12, 2)
    assert corrections(r) == {(1, 0): 4, (3, 2): 1, (5, 4): 4}


def test_benchmark_beta_values():
    # Each quotient has value one at its own prime, and every nonzero value
    # it has at another prime is negative.
    r = factor_prime(F12, 2)
    for rec in r.primes:
        b = beta(rec, F12, 2)
        assert value_at_prime(rec, b.num, F12, 2) - rec.e * b.p_power == 1
    assert all(v > 0 for v in corrections(r).values())


def test_corrections_from_later_primes():
    r = factor_prime(LATE_CORRECTIONS, 2)
    assert corrections(r) == {(0, 1): 1, (0, 2): 1, (2, 1): 1, (4, 3): 1}
    assert valuation_grid(r, compute_generators(r)) == identity_grid(5)


def test_one_contact_per_modulus(monkeypatch):
    # value_at_prime and ensure_H1 share the contact of a record's complete
    # branch, so the generators and the discriminant together read the
    # contact of each modulus once.
    calls = Counter()
    contact = types.contact

    def counted_contact(tipo, f):
        calls[tipo.phi] += 1
        return contact(tipo, f)

    monkeypatch.setattr(types, "contact", counted_contact)
    monkeypatch.setattr(idealgen, "contact", counted_contact)
    for f, p in ((F12, 2), (LATE_CORRECTIONS, 2), (tower_phi(5), 2), (parse_poly("x^30-14"), 3)):
        calls.clear()
        r = factor_prime(f, p)
        compute_generators(r)
        disc_valuation(r)
        assert len(calls) >= len(r.primes) and set(calls.values()) == {1}


def test_dedekind_criterion_runs_only_at_initialization(monkeypatch):
    # The generators and the discriminant read a prime that the criterion
    # finished off its complete branch, and do not run the criterion again.
    calls = []
    maximal_at = driver.maximal_at

    def counted_maximal_at(f, phi, p):
        calls.append(phi)
        return maximal_at(f, phi, p)

    monkeypatch.setattr(driver, "maximal_at", counted_maximal_at)
    monkeypatch.setattr(idealgen, "maximal_at", counted_maximal_at, raising=False)
    for text, p in (("x^3-3", 3), ("x^30-14", 3), ("x^2-3*x+25", 5), ("x^4-10", 5)):
        calls.clear()
        r = factor_prime(parse_poly(text), p)
        at_initialization = len(calls)
        assert all(rec.kind == "dedekind" for rec in r.primes)
        compute_generators(r)
        disc_valuation(r)
        assert len(calls) == at_initialization


def test_no_expansion_along_a_dedekind_modulus(monkeypatch):
    # A prime that the criterion finished with e > 1 gets its polygon along
    # its modulus from the criterion's digit and f mod p, so neither the
    # generators nor the discriminant expand f along that modulus over Z.
    expanded = []
    newton_data = Type.newton_data

    def recorded_newton_data(self, P, *bound):
        expanded.append((self.order, self.phi))
        return newton_data(self, P, *bound)

    monkeypatch.setattr(Type, "newton_data", recorded_newton_data)
    for text, p in (("x^30-14", 3), ("x^4-10", 5)):
        r = factor_prime(parse_poly(text), p)
        moduli = {rec.dede_phi for rec in r.primes if rec.kind == "dedekind" and rec.e > 1}
        assert moduli
        expanded.clear()
        compute_generators(r)
        disc_valuation(r)
        assert expanded
        assert [phi for order, phi in expanded if order == 0 and phi in moduli] == []


def test_generators_do_not_depend_on_what_ran_before():
    # Both read and fill the same caches on the records.
    for f in (F12, LATE_CORRECTIONS, tower_phi(4)):
        first = factor_prime(f, 2)
        gens = compute_generators(first)
        then = factor_prime(f, 2)
        disc = disc_valuation(then)
        assert compute_generators(then) == gens
        assert disc_valuation(first) == disc


def test_positive_off_diagonal_value_is_an_invariant_violation(monkeypatch):
    r = factor_prime(X * lin(2), 2)
    monkeypatch.setattr(idealgen, "value_at_prime", lambda q, G, f, p: 10**6)
    with pytest.raises(InvariantViolation):
        compute_generators(r)


def test_cyclic_corrections_are_an_invariant_violation(monkeypatch):
    r = factor_prime(X * lin(2), 2)
    monkeypatch.setattr(idealgen, "value_at_prime", lambda q, G, f, p: -1)
    with pytest.raises(InvariantViolation):
        compute_generators(r)


def test_trimmed_output_form():
    # Numerators are folded into the symmetric range mod p^(k+2) and keep a
    # denominator that is a pure prime power, coprime to the content.
    r = factor_prime(F12, 2)
    for a in compute_generators(r):
        G, k = a.num, a.p_power
        assert k >= 0
        bound = 2 ** (k + 2)
        assert all(2 * abs(c) <= bound for c in G.coeffs)
        if k >= 1:
            assert math.gcd(*G.coeffs) % 2 == 1


def test_split_pair_generators():
    # x(x+2) at 2: one exact factor, one completed side.  Pinned output.
    r = factor_prime(X * lin(2), 2)
    alphas = compute_generators(r)
    assert valuation_grid(r, alphas) == identity_grid(2)
    gens = sorted((tuple(a.num.coeffs), a.p_power) for a in alphas)
    assert gens == [((-4, 1), 1), ((2, 3), 1)]


def test_three_branch_grid():
    r = factor_prime(X * lin(2) * lin(4), 2)
    assert valuation_grid(r, compute_generators(r)) == identity_grid(3)


def test_dedekind_ramified_generator():
    # Eisenstein x^2+2: the shortcut prime takes phi itself.
    r = factor_prime(IntPolynomial([2, 0, 1]), 2)
    assert r.primes[0].kind == "dedekind"
    (alpha,) = compute_generators(r)
    assert valuation_grid(r, [alpha]) == identity_grid(1)
    assert (tuple(alpha.num.coeffs), alpha.p_power) == ((0, 1), 0)


def test_dedekind_unramified_pair_needs_twist():
    # x^2+x+4 splits mod 2 into x and x+1, but both remainders of f are
    # divisible by 4, so each generator is phi + p (folded symmetrically).
    r = factor_prime(IntPolynomial([4, 1, 1]), 2)
    assert all(rec.kind == "dedekind" for rec in r.primes)
    assert valuation_grid(r, compute_generators(r)) == identity_grid(2)


def test_tower_level_two_single_prime():
    phi1 = IntPolynomial([16, 4, 1])
    phi2 = phi1 * phi1 + IntPolynomial([0, 16]) * phi1 + IntPolynomial([4096])
    r = factor_prime(phi2, 2)
    assert [(rec.e, rec.f) for rec in r.primes] == [(1, 4)]
    assert valuation_grid(r, compute_generators(r)) == identity_grid(1)


def test_value_route_basics():
    r = factor_prime(X * lin(2), 2)
    f = X * lin(2)
    for rec in r.primes:
        assert value_at_prime(rec, IntPolynomial([2]), f, 2) == rec.e
        with pytest.raises(ZeroAtTheta):
            value_at_prime(rec, f, f, 2)
        with pytest.raises(ZeroAtTheta):
            value_at_prime(rec, IntPolynomial([]), f, 2)
    # The factor x vanishes on exactly one of the two components.
    zeros = 0
    for rec in r.primes:
        try:
            assert value_at_prime(rec, X, f, 2) >= 1
        except ZeroAtTheta:
            zeros += 1
    assert zeros == 1


def test_random_grids():
    rng = random.Random(20250818)
    done = 0
    while done < 12:
        deg = rng.randint(2, 5)
        cs = [rng.randint(-30, 30) for _ in range(deg)] + [1]
        f = IntPolynomial(cs)
        if not is_squarefree(f):
            continue
        p = rng.choice([2, 3, 5])
        r = factor_prime(f, p)
        alphas = compute_generators(r)
        assert valuation_grid(r, alphas) == identity_grid(len(r.primes))
        # v_p(N(alpha_P)) = f_P, read off a resultant the program never forms
        for rec, a in zip(r.primes, alphas):
            G, k = a.num, a.p_power
            assert pval(sylvester_resultant(f.coeffs, G.coeffs), p) == k * f.degree + rec.f
        done += 1


def test_tower_level_four_generator():
    # Degree 32, one prime (2,16): a deep quotient whose inverse needs a few
    # precision doublings.
    f = tower_phi(4)
    r = factor_prime(f, 2)
    assert [(rec.e, rec.f) for rec in r.primes] == [(2, 16)]
    (alpha,) = compute_generators(r)
    assert valuation_grid(r, [alpha]) == identity_grid(1)
    G, k = alpha.num, alpha.p_power
    assert pval(sylvester_resultant(f.coeffs, G.coeffs), 2) == k * f.degree + r.primes[0].f


@pytest.mark.parametrize("text, p", [("(x^2+8)*(x^2+72)", 2), ("(x^3+9)*(x^3+36)", 3)])
def test_factor_uniformizer_past_an_unliftable_target(text, p, monkeypatch):
    # The first factor's modulus divides f, and the first target of its
    # uniformizer search cannot be lifted, so the search moves on.
    f = parse_poly(text)
    misses = []
    real = types.Type.lift_simple

    def counted_lift(t, u, R):
        try:
            return real(t, u, R)
        except UnliftableTarget:
            misses.append(u)
            raise

    monkeypatch.setattr(types.Type, "lift_simple", counted_lift)
    r = factor_prime(f, p)
    alphas = compute_generators(r)
    assert r.primes[0].kind == "factor" and misses
    assert valuation_grid(r, alphas) == identity_grid(len(r.primes))
    for rec, a in zip(r.primes, alphas):
        G, k = a.num, a.p_power
        assert pval(sylvester_resultant(f.coeffs, G.coeffs), p) == k * f.degree + rec.f


small_monic = st.lists(st.integers(-9, 9), min_size=1, max_size=3).map(
    lambda c: IntPolynomial(c + [1])
)
small_poly = st.lists(st.integers(-9, 9), max_size=6).map(IntPolynomial)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 13]), small_monic, small_monic, small_poly, small_poly,
    st.integers(1, 3), st.integers(1, 3), st.sampled_from([2, 3, 5]),
)
def test_p_adic_inverse_matches_the_full_euclid(p, g, h, r, s, j, k, A):
    # f = g*h + p^j*r and a = g + p*s share the factor g mod p, but not over Q.
    f = g * h + r * p**j
    a = g + s * p
    assume(f.is_monic and f.degree == g.degree + h.degree and is_squarefree(f))
    assume(not a.is_zero and sylvester_resultant(f.coeffs, a.coeffs) != 0)
    y, w, N = p_adic_inverse(a, k, f, p, A)
    # the Euclid with every cofactor in full certifies N and agrees on w
    q = p**N
    ak = [c % q for c in (a**k).divmod_monic(f)[1].coeffs]
    y0, w0 = full_cofactor_euclid(ak, [c % q for c in f.coeffs], p, N)
    err = (IntPolynomial(y0) * a**k - IntPolynomial([p**w])).divmod_monic(f)[1]
    assert w0 == w and N >= 2 * w + 2
    assert all(c % q == 0 for c in err.coeffs)
    # y is its answer to the A digits past w that the caller reads
    qa = p ** (w + A)
    assert all((c - c0) % qa == 0 for c, c0 in zip_longest(y, y0, fillvalue=0))
    err = (IntPolynomial(y) * a**k - IntPolynomial([p**w])).divmod_monic(f)[1]
    assert all(c % qa == 0 for c in err.coeffs)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from((2, 3, 13)),
    st.integers(1, 40),
    st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=5),
    st.lists(st.integers(-10**9, 10**9), min_size=0, max_size=9),
    st.integers(0, 20),
)
def test_powmod_matches_repeated_multiplication(p, N, m, a, k):
    # m is monic of degree >= 1, as every modulus of the generators is; a
    # need not be reduced: _powmod reduces it mod (m, p^N) once
    q = p**N
    m = [c % q for c in m] + [1]
    direct = [1]
    for _ in range(k):
        direct = idealgen._mulmod(direct, a, m, q)
    assert idealgen._powmod(a, k, m, q) == direct


def test_generator_cofactors_stay_short(monkeypatch):
    # multi-branch:1 at 13.  Every quotient-times-cofactor product of the
    # Euclid stays below 13^((N-2)//2 + 2), the precision beta reads at the
    # largest w that N certifies, and not at the 13^N of the remainders.
    euclid, mul = idealgen._euclid, idealgen._zp_mul
    runs, active = [], []

    def traced_euclid(a, m, p, N, *rest):
        runs.append((N, []))
        active.append(runs[-1][1])
        try:
            return euclid(a, m, p, N, *rest)
        finally:
            active.pop()

    def traced_mul(a, b):
        if active:
            active[-1].append(max(abs(x).bit_length() for x in (*a, *b)))
        return mul(a, b)

    monkeypatch.setattr(idealgen, "_euclid", traced_euclid)
    monkeypatch.setattr(idealgen, "_zp_mul", traced_mul)
    compute_generators(factor_prime(multi_branch(1), 13))
    assert runs[-1][1]
    for N, bits in runs:
        assert max(bits, default=0) <= (13 ** ((N - 2) // 2 + 2)).bit_length()
