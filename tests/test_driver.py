import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from montes.corpus import tower_phi
from montes.driver import _initialize, disc_valuation, factor_prime
from montes.errors import InputError
from montes.zpoly import IntPolynomial, X, is_squarefree, pval

from .oracles import (
    NotApplicable,
    dedekind_oracle,
    dedekind_verdicts,
    refinement_equivalence_check,
    refinement_instance,
    sylvester_discriminant,
    tame_disc_check,
)
from .test_zpoly import F12


def ef(result):
    return sorted((r.e, r.f) for r in result.primes)


def test_linear_shift_pair():
    # x(x+2) at 2: the factor x is exact, the other branch completes on a
    # slope -1 side.  One lattice point in the index region.
    r = factor_prime(X * (X + IntPolynomial([2])), 2)
    assert r.index == 1
    assert ef(r) == [(1, 1), (1, 1)]
    assert sorted(p.kind for p in r.primes) == ["factor", "side"]


def test_linear_shift_pair_steeper():
    r = factor_prime(X * (X + IntPolynomial([4])), 2)
    assert r.index == 2
    assert ef(r) == [(1, 1), (1, 1)]


def test_three_branches_one_pop():
    r = factor_prime(X * (X + IntPolynomial([2])) * (X + IntPolynomial([4])), 2)
    assert r.index == 4
    assert ef(r) == [(1, 1), (1, 1), (1, 1)]


def test_eisenstein_completes_at_initialization():
    r = factor_prime(IntPolynomial([2, 0, 1]), 2)
    assert r.index == 0
    assert ef(r) == [(2, 1)]
    assert r.primes[0].kind == "dedekind"


def test_split_squarefree_mod_p():
    r = factor_prime(IntPolynomial([1, 0, 1]), 5)
    assert r.index == 0
    assert ef(r) == [(1, 1), (1, 1)]
    assert all(p.kind == "dedekind" for p in r.primes)


def test_degree_one():
    r = factor_prime(X + IntPolynomial([3]), 7)
    assert r.index == 0
    assert ef(r) == [(1, 1)]


def test_twelve_dimensional_benchmark():
    r = factor_prime(F12, 2)
    assert r.index == 33
    assert ef(r) == [(2, 1)] * 6
    assert disc_valuation(r) - 2 * r.index == 18


def test_tower_level_one():
    phi1 = IntPolynomial([16, 4, 1])
    r = factor_prime(phi1, 2)
    assert r.index == 2
    assert ef(r) == [(1, 2)]


def test_tower_level_two():
    phi1 = IntPolynomial([16, 4, 1])
    phi2 = phi1 * phi1 + IntPolynomial([0, 16]) * phi1 + IntPolynomial([2 ** 12])
    r = factor_prime(phi2, 2)
    assert r.index == 16
    assert ef(r) == [(1, 4)]


def test_validation():
    with pytest.raises(InputError, match="4 is not prime"):
        factor_prime(X, 4)
    with pytest.raises(InputError, match="polynomial must be monic"):
        factor_prime(IntPolynomial([1, 2]), 3)
    with pytest.raises(InputError, match="polynomial must be squarefree"):
        factor_prime(X * X, 3)
    with pytest.raises(InputError, match="polynomial must have degree at least 1"):
        factor_prime(IntPolynomial([1]), 3)


def random_squarefree(rng):
    while True:
        deg = rng.randint(1, 6)
        cs = [rng.randint(-50, 50) for _ in range(deg)] + [1]
        f = IntPolynomial(cs)
        if is_squarefree(f):
            return f


def test_random_batch_invariants():
    # Degree is always filled; the tame discriminant identity holds whenever
    # it applies; the Dedekind oracle agrees about index zero.
    rng = random.Random(20240817)
    for _ in range(120):
        f = random_squarefree(rng)
        p = rng.choice([2, 3, 5, 13])
        r = factor_prime(f, p)
        assert sum(e * k for e, k in ef(r)) == f.degree
        assert r.index >= 0
        pairs = [(pr.e, pr.f) for pr in r.primes]
        try:
            disc_v = pval(sylvester_discriminant(f.coeffs), p)
            lhs, rhs = tame_disc_check(disc_v, p, r.index, pairs)
            assert lhs == rhs
        except NotApplicable:
            pass
        zero, primes = dedekind_oracle(f, p)
        assert zero == (r.index == 0)
        if zero:
            assert sorted(primes) == ef(r)


@st.composite
def repeated_factor_case(draw):
    """(f, p) with f = g^k h + p^j r squarefree of degree at most 8, so that
    f mod p has a repeated factor that p^j r may or may not make regular."""
    p = draw(st.sampled_from([2, 3, 5, 7]))

    def monic(lo, hi):
        deg = draw(st.integers(lo, hi))
        return IntPolynomial(draw(st.lists(st.integers(-9, 9), min_size=deg, max_size=deg)) + [1])

    base = monic(1, 2) ** draw(st.integers(2, 3)) * monic(0, 2)
    tail = draw(st.lists(st.integers(-20, 20), min_size=base.degree, max_size=base.degree))
    f = base + IntPolynomial(tail) * p ** draw(st.integers(1, 3))
    assume(is_squarefree(f))
    return f, p


@settings(max_examples=150, deadline=None)
@given(repeated_factor_case())
@example((IntPolynomial([4, 0, 1]), 2))  # M = 2 vanishes mod 2: a branch
def test_initialize_classifies_factors_as_the_textbook_criterion(case):
    # The driver reads the criterion off one remainder mod p^2; the oracle
    # multiplies the factorization out over Z and divides M mod p.
    f, p = case
    records, branches = _initialize(f, p, random.Random(0))
    got = sorted(
        [(r.dede_phi.coeffs, r.e, True) for r in records]
        + [(t.phi.coeffs, t.mult, False) for t in branches]
    )
    assert got == sorted(dedekind_verdicts(f, p))


def test_initialize_multiplies_nothing_over_z(monkeypatch):
    # g^2 + 2x at 2 is a Dedekind prime with e = 2, and x^3 + 8 a branch; the
    # criterion needs no product of the factorization over Z.
    g = IntPolynomial([1, 1, 1])
    f = (g**2 + IntPolynomial([0, 2])) * (X**3 + IntPolynomial([8]))
    products = []
    real_mul, real_pow = IntPolynomial.__mul__, IntPolynomial.__pow__

    def counted_mul(a, b):
        products.append("*")
        return real_mul(a, b)

    def counted_pow(a, n):
        products.append("**")
        return real_pow(a, n)

    monkeypatch.setattr(IntPolynomial, "__mul__", counted_mul)
    monkeypatch.setattr(IntPolynomial, "__pow__", counted_pow)
    records, branches = _initialize(f, 2, random.Random(0))
    assert [(r.e, r.f) for r in records] == [(2, 2)] and len(branches) == 1
    assert products == []


def test_refinement_matches_basic_mode():
    cases = [
        (F12, 2),
        (IntPolynomial([1, 1, 1]) ** 2 - IntPolynomial([7 ** 3]), 7),
        (X * (X + IntPolynomial([8])) * (X + IntPolynomial([2])), 2),
    ]
    for f, p in cases:
        a = factor_prime(f, p, refine=True)
        b = factor_prime(f, p, refine=False)
        assert a.index == b.index
        assert ef(a) == ef(b)


def test_seed_stability():
    f = X * (X + IntPolynomial([2])) * (X + IntPolynomial([4]))
    base = factor_prime(f, 2, seed=0)
    for seed in (1, 17):
        r = factor_prime(f, 2, seed=seed)
        assert [(p.e, p.f, p.kind) for p in r.primes] == [
            (p.e, p.f, p.kind) for p in base.primes
        ]
        assert r.index == base.index


@st.composite
def squarefree_with_prime(draw):
    """(f, p): f monic squarefree of degree at most 14, often a product of
    two factors, whose lower coefficients may all carry a factor p^k."""
    p = draw(st.sampled_from([2, 3, 5, 13]))

    def factor(max_deg):
        deg = draw(st.integers(1, max_deg))
        scale = p ** draw(st.integers(0, 5))
        tail = draw(st.lists(st.integers(-40, 40), min_size=deg, max_size=deg))
        return IntPolynomial([c * scale for c in tail] + [1])

    f = factor(14)
    if f.degree < 14 and draw(st.booleans()):
        f = f * factor(14 - f.degree)
    assume(is_squarefree(f))
    return f, p


@settings(max_examples=200, deadline=None)
@given(squarefree_with_prime())
def test_disc_valuation_matches_sylvester(case):
    f, p = case
    assert disc_valuation(factor_prime(f, p)) == pval(sylvester_discriminant(f.coeffs), p)


def test_disc_valuation_pinned():
    # the values perfbench/reference.json holds from the Sylvester determinant
    g = IntPolynomial([5, 1, 0, 1])
    a2 = g**50 + IntPolynomial([2**89]) * g**25 + IntPolynomial([2**178])
    for f, want in [(a2, 26166), (tower_phi(4), 3120), (tower_phi(5), 28848)]:
        assert disc_valuation(factor_prime(f, 2)) == want


def test_refinement_equivalence_on_forced_double_roots():
    # The family (x-2)^2 + 2^(2k) keeps its whole polygon on one slope with
    # residual (z+1)^2, so the in-place path refines x-2 without ever
    # climbing an order, while the other path interleaves unit levels.
    for k in range(1, 7):
        f = (X - IntPolynomial([2])) ** 2 + IntPolynomial([2 ** (2 * k)])
        assert refinement_equivalence_check(f, 2)
        r = factor_prime(f, 2, refine=True)
        assert all(rec.tipo.order == 1 for rec in r.primes if rec.tipo is not None)


def test_refinement_equivalence_random_instances():
    rng = random.Random(20250819)
    for _ in range(40):
        coeffs, p = refinement_instance(rng)
        f = IntPolynomial(coeffs)
        assert is_squarefree(f)
        assert refinement_equivalence_check(f, p)
