import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from montes.errors import InvariantViolation
from montes.ffield import Field, pgcd, ptrim
from montes.zpoly import (
    IntPolynomial,
    is_prime,
    is_squarefree,
    phi_expand,
    pval,
    vpoly,
)

from .oracles import sylvester_discriminant

# Degree-12 sample input used across the suite; its discriminant is known in
# fully factored form, which pins the exact arithmetic end to end.
F12 = IntPolynomial([
    59914669248, 10978063488, -641009376, -1583408736, 486721116,
    24745392, -12522636, -172872, 130095, 476, -588, 0, 1,
])
F12_DISC = (2 ** 84) * (3 ** 64) * (7 ** 52) * (79 ** 4) \
    * (14159 ** 2) * (644173 ** 2) * (3352073 ** 2)

small_polys = st.lists(st.integers(-30, 30), min_size=0, max_size=7).map(IntPolynomial)


def test_representation_is_canonical():
    assert IntPolynomial([1, 2, 0, 0]).coeffs == (1, 2)
    assert IntPolynomial([0, 0]).is_zero
    assert IntPolynomial([5]).degree == 0
    assert IntPolynomial().degree == -1
    assert hash(IntPolynomial([1, 2])) == hash(IntPolynomial((1, 2, 0)))


@given(small_polys, small_polys, small_polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert a - a == IntPolynomial()


def evaluate(f, v):
    """f(v) by Horner's rule."""
    acc = 0
    for c in reversed(f.coeffs):
        acc = acc * v + c
    return acc


@given(small_polys, st.integers(-9, 9))
def test_evaluation_is_ring_hom(a, v):
    b = IntPolynomial([3, -1, 2])
    assert evaluate(a * b, v) == evaluate(a, v) * evaluate(b, v)
    assert evaluate(a + b, v) == evaluate(a, v) + evaluate(b, v)


@given(small_polys, st.integers(-5, 5))
def test_shift_matches_evaluation(a, c):
    s = a.shift(c)
    for v in (-2, 0, 1, 3):
        assert evaluate(s, v) == evaluate(a, v + c)


@given(small_polys, st.lists(st.integers(-9, 9), min_size=0, max_size=4))
def test_divmod_monic(a, tail):
    phi = IntPolynomial(tail + [1])
    q, r = a.divmod_monic(phi)
    assert q * phi + r == a
    assert r.degree < phi.degree


@given(small_polys, st.integers(0, 40))
def test_power_matches_repeated_multiplication(a, n):
    direct = IntPolynomial([1])
    for _ in range(n):
        direct = direct * a
    assert a**n == direct


def test_negative_power_is_an_invariant_violation():
    # a package error, so that the CLI maps it to exit code 3
    with pytest.raises(InvariantViolation, match="negative power"):
        IntPolynomial([1, 1]) ** -1


def test_divmod_requires_monic():
    with pytest.raises(InvariantViolation, match="divisor must be monic"):
        IntPolynomial([1, 1]).divmod_monic(IntPolynomial([1, 2]))


@given(small_polys, st.lists(st.integers(-9, 9), min_size=1, max_size=3))
def test_phi_expand_roundtrip(a, tail):
    phi = IntPolynomial(tail + [1])
    parts = phi_expand(a, phi)
    acc = IntPolynomial()
    for i, part in enumerate(parts):
        assert part.degree < phi.degree
        acc = acc + part * phi ** i
    assert acc == a


def test_phi_expand_pinned_example():
    # (x^2+4x+16)-adic digits of phi^2 + 2^4*x*phi + 2^12.
    phi = IntPolynomial([16, 4, 1])
    p2 = phi * phi + IntPolynomial([0, 16]) * phi + IntPolynomial([4096])
    parts = phi_expand(p2, phi)
    assert parts == [IntPolynomial([4096]), IntPolynomial([0, 16]), IntPolynomial([1])]


def test_pval_and_vpoly():
    assert pval(48, 2) == 4
    assert pval(-9, 3) == 2
    assert pval(7, 2) == 0
    assert vpoly(IntPolynomial([12, 8, 3]), 2) == 0
    assert vpoly(IntPolynomial([12, 8]), 2) == 2
    with pytest.raises(InvariantViolation, match="v_1 of the zero polynomial"):
        vpoly(IntPolynomial(), 5)


def _pval_naive(n, p):
    v, n = 0, abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


@pytest.mark.parametrize("p", [2, 3, 13, 1009, 2**61 - 1])
def test_pval_matches_naive_loop(p):
    rng = random.Random(p)
    vals = list(range(40)) + [rng.randint(40, 999) for _ in range(20)] + [511, 512, 1000]
    for v in vals:
        unit = rng.randint(1, 10**30)
        if unit % p == 0:
            unit += 1
        for n in (unit * p**v, -unit * p**v):
            assert pval(n, p) == v == _pval_naive(n, p)
    for _ in range(50):
        n = rng.randint(-10**40, 10**40) or 1
        assert pval(n, p) == _pval_naive(n, p)
    with pytest.raises(InvariantViolation, match="p-adic valuation of 0"):
        pval(0, p)


def test_discriminant_quadratic_cubic():
    assert sylvester_discriminant([5, 3, 1]) == 9 - 20
    # depressed cubic x^3 + px + q
    for p_, q_ in [(1, 1), (-2, 5), (0, -7), (11, -3)]:
        d = sylvester_discriminant([q_, p_, 0, 1])
        assert d == -4 * p_ ** 3 - 27 * q_ ** 2


def test_discriminant_pinned_degree12():
    assert sylvester_discriminant(F12.coeffs) == F12_DISC
    assert pval(F12_DISC, 2) == 84


def test_is_squarefree():
    assert is_squarefree(F12)
    assert is_squarefree(IntPolynomial([1, 0, 1]))
    sq = IntPolynomial([1, 1]) * IntPolynomial([1, 1]) * IntPolynomial([-3, 1])
    assert not is_squarefree(sq)
    # squarefree even though every small prime divides the discriminant gap
    assert is_squarefree(IntPolynomial([0, 1]) * IntPolynomial([2, 1]))
    # mod 2 (resp. 3) these lose their repeated factor with the leading term
    assert not is_squarefree(IntPolynomial([1, 2]) ** 2)
    assert not is_squarefree(IntPolynomial([0, 1, 6, 9]))  # x (3x+1)^2
    assert not is_squarefree(IntPolynomial([1, 6]) ** 2 * IntPolynomial([1, 0, 1]))
    assert is_squarefree(IntPolynomial([1, 0, 2]))
    assert is_squarefree(IntPolynomial([1, 0, 1]))  # f' vanishes mod 2
    assert is_squarefree(IntPolynomial([1, 2]) * IntPolynomial([1, 6]))


def _gcd_nontrivial_below_150(f):
    """Whether gcd(f mod q, f' mod q) is nonconstant at every prime q < 150
    not dividing lc(f): no small prime certifies that f is squarefree."""
    df = f.derivative()
    for q in filter(is_prime, range(150)):
        if f.lc % q:
            K = Field(q)
            g = pgcd(K, [c % q for c in f.coeffs], ptrim(K, [c % q for c in df.coeffs]))
            if len(g) == 1:
                return False
    return True


def test_is_squarefree_past_the_small_primes():
    # squarefree, but every prime below 150 divides its discriminant
    f = IntPolynomial([1])
    for i in range(150):
        f = f * IntPolynomial([-i, 1])
    assert _gcd_nontrivial_below_150(f)
    assert is_squarefree(f)
    # a dense non-monic g^2 h of degree 90: refused once the lift of the gcd
    # by Chinese remaindering divides F and F'
    rng = random.Random(15)
    g, h = (IntPolynomial([rng.randint(-99, 99) for _ in range(30)] + [lead]) for lead in (7, -3))
    f = g * g * h
    assert f.degree == 90 and _gcd_nontrivial_below_150(f)
    assert not is_squarefree(f)


leading_coeffs = st.sampled_from([1, 1, -1, 2, 3, -6])
low_coeffs = st.lists(st.integers(-20, 20), max_size=9)


@settings(max_examples=300, deadline=None)
@given(
    low_coeffs, low_coeffs, leading_coeffs, leading_coeffs,
    st.sampled_from(["plain", "product", "square"]),
)
def test_is_squarefree_matches_the_discriminant(gc, hc, lg, lh, shape):
    g, h = IntPolynomial(gc[:3] + [lg]), IntPolynomial(hc[:4] + [lh])
    if shape == "plain":
        f = IntPolynomial(gc + [lg])
    else:
        f = g * h * (g if shape == "square" else 1)
    if f.degree >= 1:
        assert is_squarefree(f) == (sylvester_discriminant(f.coeffs) != 0)


def test_is_prime():
    assert is_prime(2) and is_prime(3) and is_prime(1009)
    assert is_prime(2 ** 61 - 1)
    assert not is_prime(1) and not is_prime(561) and not is_prime(1007)
    assert not is_prime(2 ** 62 + 1)
