"""Stress-corpus constructors: hard inputs with known answers.

Three families.  The tower chain drives a single prime through ever higher
orders; the quartic-refine family forces about 2k refinement steps on a
degree-4 input; the multi-branch family carries many translated copies of one
deep factor, each contributing its own complete branch.  A randomized tower
with prescribed (h, e, f) per level is available for fuzzing.

Constants bound the build work before anything is built: the number of
multi-branch translates, and a random tower's prime size and residue degree
f0 * prod(f_i), which set the cost of its irreducible searches (the README
gives timings), its number of levels, and the work of multiplying out its
representative.
"""

from __future__ import annotations

import random
from math import gcd, prod
from typing import List, Sequence, Tuple

from .errors import InputError
from .ffield import Field, factor
from .types import Type
from .zpoly import IntPolynomial, X, is_prime


_MAX_BRANCHES = 8
_MAX_TOWER_RESIDUE_DEGREE = 32
_MAX_TOWER_PRIME_BITS = 16
_MAX_TOWER_LEVELS = 32
_MAX_TOWER_WORK = 1 << 29


def _c(n: int) -> IntPolynomial:
    return IntPolynomial([n])


def tower_phi(level: int) -> IntPolynomial:
    """Member of the order-raising chain at p = 2; level 1 through 8.

    Each member is built one level deeper than the previous one.  Levels 1-4
    have a single prime above 2, (1,2), (1,4), (2,8) and (2,16).  Level 5
    splits into (2,8) and (10,8) by both the refining and the order-climbing
    routes, and level 6 measures four primes; no independent check settles
    levels 5-8 yet.
    """
    if not 1 <= level <= 8:
        raise InputError("tower level must be between 1 and 8")
    x = X

    def w(e: int) -> IntPolynomial:
        return _c(2**e)

    p1 = x**2 + w(2) * x + w(4)
    if level == 1:
        return p1
    p2 = p1**2 + w(4) * x * p1 + w(12)
    if level == 2:
        return p2
    p3 = p2**4 + w(23) * (x + w(2)) * p2**2 + w(42) * x * p1
    if level == 3:
        return p3
    p4 = p3**2 + w(12) * x * p2**3 * p3 + w(72) * p1 * p2**2 + w(101) * x
    if level == 4:
        return p4
    p5 = (
        p4**3
        + w(34) * p1 * p2 * p3 * p4**2
        + w(215)
        * (
            (x * (p1 + w(6)) * (p2**3 + w(25) * p2) + w(27) * p2) * p3
            + w(64) * (x * p1 * p2**2 + w(33))
        )
    )
    if level == 5:
        return p5
    p6 = (
        p5**6
        + w(883) * x * p3 * p5**3
        + w(1736) * ((x + w(2)) * p1 + w(8)) * p2**2 * p4
    )
    if level == 6:
        return p6
    p7 = (
        p6**2
        + w(2351)
        * (
            (p1 * p2**3 + w(23) * x * (p1 + w(6)) * p2) * p4
            + w(102) * (x * p1 * p2**3 + w(25) * ((x + w(2)) * p1 + w(6) * x) * p2)
        )
        * p5**4
        + w(3234)
        * (
            (
                (x * p1 * p2**3 + w(25) * (x + w(2)) * (p1 + w(6)) * p2) * p3
                + w(70) * (x * p2**2 + w(27))
            )
            * p4
            + w(168) * ((x + w(2)) * p1 + w(6) * x) * p2**2
        )
        * p5
    )
    if level == 7:
        return p7
    a = (
        (((x + w(2)) * p1 + w(6) * x) * p2**2 + w(31) * x) * p3
        + w(39) * x * p1 * p2**3
        + w(70) * x * p2
    ) * p4**2 + w(104) * (
        ((x * p1 + w(8)) * p2**2 + w(25) * (x * p1 + w(6) * (x + w(4)))) * p3
        + w(38) * ((x + w(2)) * (p1 + w(6)) * p2**3 + w(27) * p1 * p2)
    ) * p4 + w(208) * (
        ((x * p1 + w(8)) * p2**2 + w(25) * x * p1 + w(31) * (x + w(2))) * p3
        + w(41) * p1 * p2**3
        + w(64) * (x * p1 + w(8)) * p2
    )
    b = (
        (
            ((x + w(2)) * p1 + w(6) * x) * p2**3
            + w(25) * ((x + w(2)) * p1 + w(8)) * p2
        )
        * p3
        + w(134) * ((p1 + w(4) * (x + w(2))) * p2**2 + w(25) * (p1 + w(4) * x))
    ) * p4**2 + w(104) * (
        ((x + w(2)) * p1 * p2**3 + w(25) * x * (p1 + w(6)) * p2) * p3
        + w(64) * ((x + w(2)) * (p1 + w(6)) * p2**2 + w(27) * p1)
    ) * p4 + w(210) * (
        ((p1 + w(4) * x) * p2**3 + w(23) * (x + w(2)) * (p1 + w(6)) * p2) * p3
        + w(64) * (p1 * p2**2 + w(25) * p1)
    )
    c = (
        (x * p1 * p2**3 + w(31) * (x + w(6)) * p2) * p3
        + w(66) * (p1 * p2**2 + w(25) * (p1 + w(6)))
    ) * p4**2 + w(104) * (
        ((x + w(2)) * p1 * p2**3 + w(25) * x * p1 * p2) * p3
        + w(70) * ((x + w(2)) * p2**2 + w(21) * p1)
    ) * p4 + w(208) * (
        (
            ((x + w(2)) * p1 + w(6) * x) * p2**3
            + w(25) * ((x + w(2)) * p1 + w(8)) * p2
        )
        * p3
        + w(70) * (x * p2**2 + w(19) * (x * p1 + w(8)))
    )
    d = (
        (x * (p1 + w(6) * (x + w(2))) * p2**2 + w(25) * (x + w(2)) * p1) * p3
        + w(39) * ((x * p1 + w(8)) * p2**3 + w(25) * (x + w(2)) * p1 * p2)
    ) * p4**2 + w(104) * (
        (((x + w(2)) * p1 + w(6) * x) * p2**2 + w(33)) * p3 + w(64) * x * p1 * p2
    ) * p4 + (
        w(208) * (x + w(2)) * (p1 + w(6)) * p2**2 * p3
        + w(249) * (p1 + w(4) * x) * p2**3
    )
    p5_2, p5_5, p7_3 = p5**2, p5**5, p7**3
    return (
        p7_3**2
        + w(7515) * (a * p5_5 + w(924) * b * p5_2) * p6 * p7_3
        + w(20618) * c * p5_5
        + w(21567) * d * p5_2
    )


def quartic_refine(p: int, k: int) -> IntPolynomial:
    """(x^2+x+1)^2 - p^(2k+1): two wildly ramified primes, index 2k."""
    if not is_prime(p):
        raise InputError("p must be prime")
    if k < 1:
        raise InputError("k must be positive")
    return IntPolynomial([1, 1, 1]) ** 2 - _c(p ** (2 * k + 1))


def branch_phi() -> IntPolynomial:
    """The degree-120 seed of the multi-branch family at p = 13."""
    x = X

    def w(e: int) -> IntPolynomial:
        return _c(13**e)

    p1 = x**2 + w(2) * x + _c(3 * 13**4)
    p2 = p1**3 + _c(2 * 13**18)
    p3 = p2**10 + w(89) * (x + w(2)) * p2**5 + w(176) * p1
    return (
        p3**2
        + w(248) * (_c(12) * (x + w(2)) * p1 + w(8)) * p2**6
        + _c(12 * 13**335) * p1**2 * p2
    )


def multi_branch(j: int) -> IntPolynomial:
    """Product of j translates of the deep seed, plus 13^5000.

    Each translate contributes one complete branch: j primes, each with
    ramification 5 and residual degree 24 at p = 13.
    """
    if not 1 <= j <= _MAX_BRANCHES:
        raise InputError(f"j must be between 1 and {_MAX_BRANCHES}")
    phi = branch_phi()
    out = IntPolynomial([1])
    for k in range(j):
        out = out * (phi if k == 0 else phi.shift(k))
    return out + _c(13**5000)


def _random_irreducible(
    fld: Field, deg: int, rng: random.Random, nonzero_constant: bool
) -> List:
    while True:
        psi = [fld.rand(rng) for _ in range(deg)] + [fld.one]
        if nonzero_constant and not psi[0]:
            continue
        parts = factor(fld, psi, rng)
        if len(parts) == 1 and parts[0][1] == 1 and len(parts[0][0]) == deg + 1:
            return psi


def random_tower(
    p: int, f0: int, chain: Sequence[Tuple[int, int, int]], seed: int = 0
) -> IntPolynomial:
    """Representative of a random type with prescribed (h, e, f) per level.

    The returned polynomial is monic of degree f0 * prod(e_i * f_i) and has a
    single prime above p with ramification prod e_i and residual degree
    f0 * prod f_i.
    """
    if p.bit_length() > _MAX_TOWER_PRIME_BITS:
        raise InputError(f"a random tower's prime has at most {_MAX_TOWER_PRIME_BITS} bits")
    if not is_prime(p):
        raise InputError("p must be prime")
    if f0 < 1:
        raise InputError("f0 must be positive")
    if len(chain) > _MAX_TOWER_LEVELS:
        raise InputError(f"a random tower has at most {_MAX_TOWER_LEVELS} levels")
    for h, e, fdeg in chain:
        if h < 1 or e < 1 or fdeg < 1 or gcd(h, e) != 1:
            raise InputError("each level needs h,e,f >= 1 with gcd(h,e) = 1")
    if f0 * prod(fdeg for _, _, fdeg in chain) > _MAX_TOWER_RESIDUE_DEGREE:
        raise InputError(
            f"a random tower's residue degree is at most {_MAX_TOWER_RESIDUE_DEGREE}"
        )
    # Multiplying out the representative costs about n^2 products of its
    # coefficients, of degree n, whose size in digits of p is about n from
    # the powers of the base and V/E from the lifts at the last level's value V.
    n, V, E = f0, 0, 1
    for h, e, fdeg in chain:
        n, V, E = n * e * fdeg, e * fdeg * (e * V + h), E * e
    if n * n * (n + V // E) * p.bit_length() > _MAX_TOWER_WORK:
        raise InputError(
            "a random tower's build work, degree^2 times coefficient bits, "
            f"passes {_MAX_TOWER_WORK}"
        )
    rng = random.Random(seed)
    base = Field(p)
    psi0 = _random_irreducible(base, f0, rng, nonzero_constant=False)
    t = Type.order_zero(p, tuple(int(c) for c in psi0), 1)
    for h, e, fdeg in chain:
        fld = t.order_data(t.order + 1)[0]
        psi = _random_irreducible(fld, fdeg, rng, nonzero_constant=True)
        t = t.extended(h, e, psi, 1)
    return t.phi
