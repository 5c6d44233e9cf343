import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from montes import ffield, zpoly
from montes.errors import InvariantViolation
from montes.zpoly import IntPolynomial
from montes.ffield import (
    Field,
    equal_degree_factors,
    factor,
    pdivmod,
    pgcd,
    pkey,
    pmul,
    ppowmod,
    psub,
    pth_root,
    squarefree_parts,
)

from .oracles import TowerField, is_irreducible, naive_poly_mul, powmod_mod_p

F2 = Field(2)
F13 = Field(13)
F8 = F2.extend([1, 1, 0, 1])  # y^3 + y + 1
F64 = F8.extend([F8.one, F8.one, F8.one])  # y^2 + y + 1 over F_8


def poly(K, ints):
    return [c % K.p for c in ints]


def elements(K):
    """Every element of a small field: all coordinate vectors over the
    subfield."""
    if K.level == 0:
        return list(range(K.p))
    return [K.embed(cs) for cs in itertools.product(elements(K.subfield), repeat=K.deg)]


def test_prime_field_arithmetic():
    assert F13.add(9, 7) == 3
    assert F13.sub(2, 5) == 10
    assert F13.mul(6, 6) == 10
    assert F13.pow(2, 12) == 1
    for a in range(1, 13):
        assert F13.mul(a, F13.inv(a)) == 1
    assert F13.pow(3, -1) == F13.inv(3)
    with pytest.raises(InvariantViolation, match="inverse of zero"):
        F13.inv(0)


def test_extension_basics():
    assert F8.q == 8 and F8.deg == 3 and F8.level == 1
    z = F8.y
    # y^3 + y + 1 is primitive, so z generates the 7 nonzero elements
    seen = set()
    w = F8.one
    for _ in range(7):
        w = F8.mul(w, z)
        seen.add(w)
    assert len(seen) == 7 and F8.one in seen
    assert F8.pow(z, 7) == F8.one
    assert F8.pow(z, 3) == F8.add(z, F8.one)


def test_extension_field_axioms_exhaustive():
    elems = elements(F8)
    assert len(elems) == 8
    for a in elems:
        assert F8.add(a, F8.neg(a)) == F8.zero
        if a:
            assert F8.mul(a, F8.inv(a)) == F8.one
        for b in elems:
            assert F8.mul(a, b) == F8.mul(b, a)
            for c in elems:
                lhs = F8.mul(a, F8.add(b, c))
                rhs = F8.add(F8.mul(a, b), F8.mul(a, c))
                assert lhs == rhs


def test_degree_one_extension_wraps():
    # modulus y + 1 over F_13: the wrapper field is F_13 again, gen = -1
    W = F13.extend([1, 1])
    assert W.q == 13
    assert W.y == 12
    assert W.mul(3, 5) == 2
    assert W.inv(2) == 7
    assert W.embed([5]) == 5 and W.coords(5) == [5]


def test_second_extension_level():
    # y^2 + y + 1 has no root in F_8, so this is F_64
    assert is_irreducible(F8, poly(F8, [1, 1, 1]))
    assert F64.q == 64
    z = F64.y
    assert F64.add(F64.add(F64.mul(z, z), z), F64.one) == F64.zero
    rng = random.Random(7)
    for _ in range(40):
        a = F64.rand(rng)
        if a:
            assert F64.mul(a, F64.inv(a)) == F64.one
        assert F64.pow(a, 64) == a


def test_extend_falls_back_past_the_multiples_of_z(monkeypatch):
    # theta = y + c*z can have a degree below [L : F_p] for every c in F_p;
    # force that, so that extend goes on to theta = y + z*z
    psi = poly(F8, [1, 1, 1])
    want = F8.extend(psi)
    real, calls = ffield._inverse, []

    def singular_twice(rows, p):
        calls.append(rows)
        return None if len(calls) <= 2 else real(rows, p)

    monkeypatch.setattr(ffield, "_inverse", singular_twice)
    got = F8.extend(psi)
    assert len(calls) == 3 and got.q == want.q == 64
    assert got.coords(got.y) == want.coords(want.y) == [F8.zero, F8.one]
    rng = random.Random(2)
    for _ in range(20):
        cs, ds = [F8.rand(rng) for _ in range(2)], [F8.rand(rng) for _ in range(2)]
        prod = got.mul(got.embed(cs), got.embed(ds))
        assert got.coords(prod) == want.coords(want.mul(want.embed(cs), want.embed(ds)))
        if any(cs):
            assert got.coords(got.inv(got.embed(cs))) == want.coords(want.inv(want.embed(cs)))


def test_reducible_modulus_rejected():
    # extend trusts its caller on irreducibility, so the check is the caller's
    assert is_irreducible(F2, [1, 1, 1])
    F4 = F2.extend([1, 1, 1])
    assert not is_irreducible(F4, poly(F4, [1, 1, 1]))
    with pytest.raises(InvariantViolation, match="extension modulus must be monic"):
        F13.extend([1, 1, 2])


def test_embed_and_from_int():
    assert F8.embed([F2.zero]) == F8.zero
    c = F8.y
    F64 = F8.extend(poly(F8, [1, 1, 1]))
    assert F64.mul(F64.embed([c]), F64.embed([F8.inv(c)])) == F64.one
    assert F64.embed([F8.zero, F8.one]) == F64.y
    for a in elements(F64):
        assert F64.embed(F64.coords(a)) == a


def test_pdivmod_roundtrip():
    rng = random.Random(3)
    for _ in range(60):
        a = [F13.rand(rng) for _ in range(rng.randint(0, 7))]
        b = [F13.rand(rng) for _ in range(rng.randint(1, 4))]
        while not b or not b[-1]:
            b = [F13.rand(rng) for _ in range(rng.randint(1, 4))]
        q, r = pdivmod(F13, a, b)
        assert psub(F13, a, pmul(F13, q, b) + []) == r or (
            psub(F13, psub(F13, a, pmul(F13, q, b)), r) == []
        )
        assert len(r) < len(b)


def test_factor_strips_mod2_content():
    # x^12 + x^8 over F_2 is y^8 (y+1)^4
    f = poly(F2, [0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1])
    got = factor(F2, f, random.Random(1299709))
    assert got == [([0, 1], 8), ([1, 1], 4)]


def test_factor_pth_power():
    # y^4 + y^2 + 1 = (y^2 + y + 1)^2 over F_2
    assert factor(F2, poly(F2, [1, 0, 1, 0, 1]), random.Random(1299709)) == [([1, 1, 1], 2)]


def test_squarefree_parts_char_p():
    F3 = Field(3)
    # (y+1)^3 (y+2): exponent 3 survives a p-th root round
    f = pmul(F3, poly(F3, [1, 3, 3, 1]), poly(F3, [2, 1]))
    parts = squarefree_parts(F3, f)
    assert parts == [([2, 1], 1), ([1, 1], 3)]


def test_pth_root_inverts_frobenius():
    g = poly(F8, [3, 1, 0, 1])  # squarefree over F_8
    sq = pmul(F8, g, g)
    assert squarefree_parts(F8, sq) == [([c for c in g], 2)]
    frob = [F8.pow(c, 2) for c in g]
    composed = []
    for c in frob:
        composed.extend([c, F8.zero])
    assert pth_root(F8, composed[:-1]) == g


def test_factor_splits_cubics_char2():
    a, b = poly(F2, [1, 1, 0, 1]), poly(F2, [1, 0, 1, 1])
    got = factor(F2, pmul(F2, a, b), random.Random(1299709))
    assert got == sorted([(a, 1), (b, 1)], key=lambda fm: pkey(F2, fm[0]))


def test_factor_splits_quadratics_odd_char():
    a, b = poly(F13, [11, 0, 1]), poly(F13, [7, 0, 1])  # y^2-2, y^2-6
    assert not is_irreducible(F13, pmul(F13, a, b))
    got = factor(F13, pmul(F13, a, b), random.Random(1299709))
    assert got == [(b, 1), (a, 1)]  # keys compare ascending coefficient tuples


def test_factor_nonmonic_input_normalized():
    f = poly(F13, [2, 0, 2])  # 2(y^2 + 1), and -1 is square mod 13
    got = factor(F13, f, random.Random(1299709))
    assert [m for _, m in got] == [1, 1]
    assert all(len(g) == 2 for g, _ in got)


def test_factor_over_extension_field():
    # y^2 + y + 1 splits over F_4 into the two conjugate linears
    F4 = F2.extend([1, 1, 1])
    z = F4.y
    got = factor(F4, [F4.one, F4.one, F4.one], random.Random(1299709))
    roots = sorted([z, F4.mul(z, z)], key=F4.key)
    assert got == [([F4.neg(r), F4.one], 1) for r in roots]


def test_factor_deterministic_across_rngs():
    f = poly(F13, [5, 11, 0, 3, 1, 2, 1])
    runs = [factor(F13, f, random.Random(seed)) for seed in (1, 2, 31337)]
    assert runs[0] == runs[1] == runs[2]
    total = [F13.one]
    for g, m in runs[0]:
        for _ in range(m):
            total = pmul(F13, total, g)
        assert is_irreducible(F13, g)
    assert total == poly(F13, [5, 11, 0, 3, 1, 2, 1])


def test_equal_degree_factors_direct():
    rng = random.Random(5)
    irr = [g for g, _ in factor(F13, poly(F13, [11, 0, 1]), random.Random(1299709))]
    assert irr == [poly(F13, [11, 0, 1])]
    prod = pmul(F13, poly(F13, [11, 0, 1]), poly(F13, [7, 0, 1]))
    got = equal_degree_factors(F13, prod, 2, rng)
    assert sorted(got, key=lambda g: pkey(F13, g)) == [
        poly(F13, [7, 0, 1]),
        poly(F13, [11, 0, 1]),
    ]


def test_is_irreducible():
    assert is_irreducible(F2, poly(F2, [1, 1, 0, 0, 1]))
    assert not is_irreducible(F2, poly(F2, [1, 0, 0, 0, 1]))
    assert is_irreducible(F13, poly(F13, [2, 1]))
    assert not is_irreducible(F13, [F13.one])
    assert is_irreducible(F8, poly(F8, [1, 1, 1]))


def test_powmod_matches_pow():
    m = poly(F13, [1, 0, 1])
    t = poly(F13, [3, 1])
    direct = [F13.one]
    for _ in range(11):
        direct = pmul(F13, direct, t)
    assert ppowmod(F13, t, 11, m) == pdivmod(F13, direct, m)[1]
    # 1 mod a constant modulus is 0, as every other power is
    assert ppowmod(F13, [2, 3], 0, [5]) == ppowmod(F13, [2, 3], 1, [5]) == []
    assert ppowmod(F8, poly(F8, [1, 1]), 0, [F8.y]) == []


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((F13, F8, F64)), st.integers(0, 2**32), st.integers(-20, 40))
def test_field_pow_matches_repeated_multiplication(K, seed, n):
    # zero too: 0^0 = 1, and a negative power of 0 has no value
    for a in (K.zero, K.rand(random.Random(seed))):
        if not a and n < 0:
            with pytest.raises(InvariantViolation, match="inverse of zero"):
                K.pow(a, n)
            continue
        base = K.inv(a) if n < 0 else a
        direct = K.one
        for _ in range(abs(n)):
            direct = K.mul(direct, base)
        assert K.pow(a, n) == direct


def test_powers_make_no_wasted_product(monkeypatch):
    # Left to right from the top bit, x^n takes bit_length(n) - 1 squarings
    # and popcount(n) - 1 products by x: no product by 1, and no squaring
    # past the top bit, which would be the largest product of the power.
    zp_mul, mul, products = zpoly._zp_mul, Field.mul, []

    def counted_zp_mul(a, b):
        products.append(len(a) + len(b) - 1)
        return zp_mul(a, b)

    def counted_mul(K, a, b):
        products.append(0)
        return mul(K, a, b)

    monkeypatch.setattr(zpoly, "_zp_mul", counted_zp_mul)
    monkeypatch.setattr(Field, "mul", counted_mul)
    f, a = IntPolynomial([3, -1, 2]), F64.y
    for n in range(1, 41):
        work = n.bit_length() - 1 + bin(n).count("1") - 1
        products.clear()
        g = f**n
        assert len(products) == work, n
        assert max(products, default=0) <= len(g.coeffs), n
        products.clear()
        F64.pow(a, n)
        assert len(products) == work, n


def test_powmod_rejects_negative_exponent():
    # a negative exponent used to loop forever (-1 >> 1 == -1)
    for K in (F13, F8):
        with pytest.raises(InvariantViolation, match="ppowmod needs an exponent >= 0"):
            ppowmod(K, poly(K, [1, 1]), -1, poly(K, [1, 0, 1]))


def test_gcd_monic_and_common_root():
    a = pmul(F13, poly(F13, [1, 1]), poly(F13, [2, 1]))
    b = pmul(F13, poly(F13, [1, 1]), poly(F13, [5, 1]))
    assert pgcd(F13, a, b) == poly(F13, [1, 1])


# --- the flat fields against the recursive tower they replace ---


def _flat(F, a):
    """The element of the flat field F that the oracle element a stands for."""
    if F.level == 0:
        return a
    return F.embed([_flat(F.subfield, c) for c in a])


def _nested(F, x):
    """The oracle element that the element x of F stands for."""
    if F.level == 0:
        return x
    cs = [_nested(F.subfield, c) for c in F.coords(x)]
    while cs and cs[-1] in (0, ()):
        cs.pop()
    return tuple(cs)


def _random_towers(p, degs, rng):
    """One random tower with these relative degrees, as the oracle and as
    the package builds it; each modulus is certified by the oracle."""
    T, F = TowerField(p), Field(p)
    for d in degs:
        while True:
            psi = [T.rand(rng) for _ in range(d)] + [T.one]
            parts = T.factor(psi, random.Random(0))
            if len(parts) == 1 and parts[0][1] == 1 and len(parts[0][0]) == d + 1:
                break
        T, F = T.extend(psi), F.extend([_flat(F, c) for c in psi])
    return T, F


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from((2, 3, 13)),
    st.lists(st.integers(1, 3), min_size=1, max_size=4),
    st.integers(0, 2**32),
)
def test_flat_field_matches_tower_oracle(p, degs, seed):
    assume(math.prod(degs) <= 12)
    rng = random.Random(seed)
    T, F = _random_towers(p, degs, rng)
    assert (F.level, F.D, F.q) == (len(degs), math.prod(degs), T.q)
    assert F.y == _flat(F, T.gen())
    for _ in range(6):
        a, b = T.rand(rng), T.rand(rng)
        x, y = _flat(F, a), _flat(F, b)
        assert _nested(F, x) == a and F.key(x) == T.key(a)
        assert F.mul(x, y) == _flat(F, T.mul(a, b))
        assert F.add(x, y) == _flat(F, T.add(a, b))
        assert F.neg(x) == _flat(F, T.neg(a))
        if a != T.zero:
            n = rng.randint(-30, 30)
            assert F.inv(x) == _flat(F, T.inv(a))
            assert F.pow(x, n) == _flat(F, T.pow(a, n))
    # the same draws, in the same order, from equal rngs
    r1, r2 = random.Random(seed), random.Random(seed)
    drawn = [T.rand(r1) for _ in range(5)]
    assert [F.rand(r2) for _ in range(5)] == [_flat(F, a) for a in drawn]
    assert r1.getstate() == r2.getstate()
    # a repeated factor, and a split that needs the rng
    g = [T.rand(rng) for _ in range(rng.randint(1, 2))] + [T.one]
    h = [T.rand(rng) for _ in range(rng.randint(0, 2))] + [T.one]
    f = T.pmul(T.pmul(g, g), h)
    want = T.factor(f, r1)
    got = factor(F, [_flat(F, c) for c in f], r2)
    assert got == [([_flat(F, c) for c in irr], m) for irr, m in want]
    assert r1.getstate() == r2.getstate()


# --- the prime-field kernel against IntPolynomial arithmetic over Z ---

KERNEL_PRIMES = (2, 3, 13, 1009, 2**61 - 1)


def _reduced(coeffs, p):
    out = [c % p for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


def _raw_operand(rng, p, length):
    # unreduced and negative ints, as the kernel must accept them
    return [rng.randint(-3 * p, 3 * p) for _ in range(length)]


def _divisor(rng, p, length):
    # nonzero leading coefficient mod p, not necessarily 1
    b = _raw_operand(rng, p, length)
    while b[-1] % p == 0:
        b[-1] = rng.randint(-3 * p, 3 * p)
    return b


def _ref_divmod(a, b, p):
    # scale b to a monic integer lift, divide exactly over Z, reduce mod p
    inv = pow(b[-1], -1, p)
    monic = IntPolynomial([c * inv % p for c in b[:-1]] + [1])
    q, r = IntPolynomial(a).divmod_monic(monic)
    return _reduced([c * inv for c in q.coeffs], p), _reduced(r.coeffs, p)


def _ref_gcd(a, b, p):
    a, b = _reduced(a, p), _reduced(b, p)
    while b:
        a, b = b, _ref_divmod(a, b, p)[1]
    if not a:
        return []
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_kernel_pmul_matches_integer_product(p):
    K = Field(p)
    rng = random.Random(p)
    for _ in range(40):
        a = _raw_operand(rng, p, rng.randint(0, 9))
        b = _raw_operand(rng, p, rng.randint(0, 9))
        want = _reduced((IntPolynomial(a) * IntPolynomial(b)).coeffs, p)
        assert pmul(K, a, b) == want
        assert pmul(K, a, a) == _reduced((IntPolynomial(a) * IntPolynomial(a)).coeffs, p)


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_kernel_pdivmod_matches_integer_division(p):
    K = Field(p)
    rng = random.Random(p + 1)
    for _ in range(60):
        a = _raw_operand(rng, p, rng.randint(0, 10))
        b = _divisor(rng, p, rng.randint(1, 7))  # often longer than a
        q, r = pdivmod(K, a, b)
        assert (q, r) == _ref_divmod(a, b, p)
        assert len(r) < len(_reduced(b, p))
        # q*b + r = a over F_p
        back = IntPolynomial(q) * IntPolynomial(b) + IntPolynomial(r) - IntPolynomial(a)
        assert _reduced(back.coeffs, p) == []
    with pytest.raises(InvariantViolation, match="polynomial division by zero"):
        pdivmod(K, [1, 2], [p, 2 * p])  # zero mod p


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_kernel_ppowmod_matches_integer_power(p):
    K = Field(p)
    rng = random.Random(p + 2)
    for _ in range(25):
        a = _raw_operand(rng, p, rng.randint(0, 6))
        m = _divisor(rng, p, rng.randint(1, 6))
        n = rng.randint(0, 12)
        # n = 0 included: 1 mod a constant m is 0
        want = _ref_divmod((IntPolynomial(a) ** n).coeffs, m, p)[1]
        assert ppowmod(K, a, n, m) == want


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_kernel_pgcd_matches_reference(p):
    K = Field(p)
    rng = random.Random(p + 3)
    for _ in range(40):
        # pgcd takes polynomials over the field: reduced and trimmed
        c = _divisor(rng, p, rng.randint(1, 4))
        a = _reduced((IntPolynomial(c) * IntPolynomial(_raw_operand(rng, p, rng.randint(0, 5)))).coeffs, p)
        b = _reduced((IntPolynomial(c) * IntPolynomial(_divisor(rng, p, rng.randint(1, 5)))).coeffs, p)
        g = pgcd(K, a, b)
        assert g == _ref_gcd(a, b, p)
        if g:
            assert g[-1] == 1
            assert _ref_divmod(g, c, p)[1] == []  # the planted factor divides g
    assert pgcd(K, [], []) == []


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_factor_multiplies_back_to_monic_input(p):
    K = Field(p)
    rng = random.Random(p + 4)
    for _ in range(8 if p < 2**20 else 3):
        f = _reduced(_divisor(rng, p, rng.randint(2, 9 if p < 2**20 else 6)), p)
        got = factor(K, f, random.Random(1))
        total = [K.one]
        for g, m in got:
            assert g[-1] == 1 and is_irreducible(K, g)
            for _ in range(m):
                total = pmul(K, total, g)
        inv = pow(f[-1], -1, p)
        assert total == [c * inv % p for c in f]


# --- the Kronecker product and Barrett powering against schoolbook loops ---

FP_PRIMES = (2, 3, 13, 97, 65521, 2**31 - 1, 2**61 - 1)
KRONECKER, BARRETT = ffield._KRONECKER, ffield._BARRETT


def _fp_coeffs(p, n):
    # zero, unreduced, negative and top residues among any others
    special = st.sampled_from((0, 1, -1, p - 1, p, 2 * p + 1, -p - 1))
    return st.lists(st.one_of(special, st.integers(-3 * p, 3 * p)), min_size=n, max_size=n)


@st.composite
def _fp_factors(draw):
    p = draw(st.sampled_from(FP_PRIMES))
    length = st.one_of(st.sampled_from((0, 1, KRONECKER - 1, KRONECKER)), st.integers(0, 3 * KRONECKER))
    return p, draw(_fp_coeffs(p, draw(length))), draw(_fp_coeffs(p, draw(length)))


@settings(max_examples=300, deadline=None)
@given(_fp_factors())
def test_fp_mul_matches_naive_product(case):
    p, a, b = case
    for x, y in ((a, b), (a, a)):
        got = ffield._fp_mul(x, y, p)
        assert len(got) == (len(x) + len(y) - 1 if x and y else 0)
        assert _reduced(got, p) == _reduced(naive_poly_mul(x, y), p)


@pytest.mark.parametrize(
    "p, n",
    [(2, 255), (2, 256), (3, 63), (3, 64), (13, 455), (13, 456), (4099, 255), (4099, 256),
     (65521, 100), (2**31 - 1, 8)],
)
def test_fp_mul_full_slots(p, n):
    # every coefficient p - 1: the middle slot holds the largest sum there
    # is, n (p - 1)^2, at the last length of one slot width and the first
    # of the next (8 to 16, 16 to 32 and 32 to 64 bits, then the loop)
    for a in ([p - 1] * n, [-1] * n):
        want = _reduced(naive_poly_mul(a, a), p)
        assert _reduced(ffield._fp_mul(a, a, p), p) == _reduced(ffield._fp_mul(a, list(a), p), p) == want


@st.composite
def _powmod_cases(draw):
    p = draw(st.sampled_from(FP_PRIMES[:5] + FP_PRIMES[-1:]))
    degree = st.one_of(st.sampled_from((0, 1, BARRETT - 1, BARRETT, BARRETT + 1)), st.integers(0, 2 * BARRETT))
    dm = draw(degree)
    lead = draw(st.integers(1, p - 1)) + p * draw(st.integers(-2, 2))  # monic or not
    m = draw(_fp_coeffs(p, dm)) + [lead]
    a = draw(_fp_coeffs(p, draw(st.integers(0, 2 * dm + 3))))  # deg a >= deg m too
    return p, a, draw(st.integers(0, 24)), m


@settings(max_examples=150, deadline=None)
@given(_powmod_cases())
def test_ppowmod_matches_powering_by_division(case):
    p, a, n, m = case
    assert ppowmod(Field(p), a, n, m) == powmod_mod_p(a, n, m, p)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(((2, 4), (3, 3), (13, 2), (97, 1))), st.integers(0, 2**32))
def test_ppowmod_frobenius(pk, seed):
    # a^(p^k) = a(x^(p^k)) over F_p: long exponents, checked by one division
    (p, k), rng = pk, random.Random(seed)
    m = [rng.randrange(p) for _ in range(rng.randint(BARRETT - 1, 3 * BARRETT))] + [rng.randrange(1, p)]
    a = [rng.randrange(p) for _ in range(rng.randint(0, len(m) + 2))]
    spread = [0] * (p**k * max(len(a) - 1, 0) + 1)
    for i, c in enumerate(a):
        spread[i * p**k] = c
    assert ppowmod(Field(p), a, p**k, m) == powmod_mod_p(spread, 1, m, p)


@settings(max_examples=40, deadline=None)
@given(st.integers(BARRETT - 2, 3 * BARRETT), st.integers(1, 4), st.integers(0, 2**32))
def test_char2_trace_matches_division_loop(deg, d, seed):
    # the tower oracle's split squares by pmul and long division; the same
    # draws from equal rngs must give the same factor
    rng = random.Random(seed)
    g = [rng.randrange(2) for _ in range(deg)] + [1]
    r1, r2 = random.Random(seed), random.Random(seed)
    assert ffield._random_split(F2, g, d, r1) == TowerField(2)._random_split(g, d, r2)
    assert r1.getstate() == r2.getstate()
