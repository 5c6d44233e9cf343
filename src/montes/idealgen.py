"""Two-element generators (p, alpha) for the primes above p.

Each completed branch yields a fraction beta with valuation 1 at its own
prime: the pending modulus, tweaked so that its polygon of f is one-sided of
slope -1, divided by the previous modulus raised to e*f.  At every other
prime beta has value 0, except at the primes that split off a steeper side
of the same polygon, where the value is negative.  Those values are read
with value_at_prime, the same route the discriminant and the checks use, and
multiplying by the generators of those primes, raised to the opposite
exponent, clears them; a prime is assembled once every prime it needs is.
The last step keeps only the p-part of the denominator, which repairs
integrality away from p without moving any valuation above p.

A squarefree but reducible f needs two escapes the irreducible case never
meets.  A modulus that divides f exactly is a zero divisor, so the quotient
is assembled on the complementary factor and glued back with the constant 1
on the dropped component.  And a branch whose own modulus divides f takes a
canonical-lift uniformizer on its component instead of a quotient, because
no denominator of smaller degree separates it from its siblings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple

from .errors import (
    InvariantViolation,
    NotInvertible,
    UnliftableTarget,
    ZeroAtTheta,
)
from .polygon import principal_sides
from .types import Type
from .zpoly import (
    IntPolynomial,
    ONE,
    content,
    pval,
    rat_divmod,
    rat_from_int,
    rat_mul,
    rat_trim,
    vpoly,
    xgcd_rat,
)


@dataclass(frozen=True)
class FieldElement:
    """num(theta)/den in Q[x]/(f): deg num < deg f, den > 0, content-reduced."""

    num: IntPolynomial
    den: int


def _make_elem(num: IntPolynomial, den: int) -> FieldElement:
    if den <= 0:
        raise InvariantViolation("element denominator must be positive")
    g = gcd(content(num), den)
    if g > 1:
        num = IntPolynomial(tuple(c // g for c in num.coeffs))
        den //= g
    return FieldElement(num, den)


def _rat_add(a: Sequence[Fraction], b: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    out = list(a) + [Fraction(0)] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] += c
    return rat_trim(out)


def _rat_powmod(base, k: int, modulus) -> Tuple[Fraction, ...]:
    out = (Fraction(1),)
    b = rat_divmod(base, modulus)[1]
    while k:
        if k & 1:
            out = rat_divmod(rat_mul(out, b), modulus)[1]
        k >>= 1
        if k:
            b = rat_divmod(rat_mul(b, b), modulus)[1]
    return out


def elem_from_rat(coeffs: Sequence[Fraction], f: IntPolynomial) -> FieldElement:
    """Reduce a rational polynomial modulo f and clear denominators."""
    _, rem = rat_divmod(rat_trim(coeffs), rat_from_int(f))
    if not rem:
        return FieldElement(IntPolynomial(), 1)
    den = 1
    for c in rem:
        den = lcm(den, c.denominator)
    num = IntPolynomial(tuple(int(c * den) for c in rem))
    return _make_elem(num, den)


def elem_mul(a: FieldElement, b: FieldElement, f: IntPolynomial) -> FieldElement:
    num = (a.num * b.num).divmod_monic(f)[1]
    return _make_elem(num, a.den * b.den)


def elem_pow(a: FieldElement, k: int, f: IntPolynomial) -> FieldElement:
    out = FieldElement(ONE, 1)
    b = a
    while k:
        if k & 1:
            out = elem_mul(out, b, f)
        k >>= 1
        if k:
            b = elem_mul(b, b, f)
    return out


def _invert_mod(d: IntPolynomial, m: IntPolynomial) -> Tuple[Fraction, ...]:
    """s with s*d = 1 mod m, or NotInvertible when d and m share a factor."""
    g, s, _ = xgcd_rat(rat_from_int(d), rat_from_int(m))
    if len(g) != 1:
        raise NotInvertible("denominator shares a factor with the modulus")
    return rat_divmod(s, rat_from_int(m))[1]


def _contact(tipo: Type, f: IntPolynomial) -> Optional[int]:
    """H >= 1 with v(phi(theta)) = V + H, or None when phi divides f.

    The polygon of f with respect to the pending modulus of a complete
    branch is one-sided of width one and integer slope -H.
    """
    tipo.ensure_rep()
    _, cloud = tipo.newton_data(f)
    if 0 not in cloud:
        return None
    sides = principal_sides(sorted(cloud.items()))
    if len(sides) != 1 or sides[0].width != 1 or sides[0].e != 1:
        raise InvariantViolation("complete branch with a non-unit polygon of f")
    return sides[0].h


def ensure_H1(tipo: Type, f: IntPolynomial) -> IntPolynomial:
    """A representative of the branch whose polygon of f has slope -1.

    The pending modulus is returned unchanged when it already has contact 1;
    otherwise adding a canonical lift at value V+1 caps the contact from
    below, including the case where the modulus divides f exactly.
    """
    tipo.ensure_rep()
    W = tipo.order + 1
    if _contact(tipo, f) == 1:
        return tipo.phi
    _, _, V = tipo.order_data(W)
    phi_hat = tipo.phi + tipo.lift_simple(V + 1, W)
    probe = Type(tipo.p, tipo.F1, tipo.psi0, tipo.levels, phi_hat, 0, tipo.mult)
    if _contact(probe, f) != 1:
        raise InvariantViolation("tweaked representative missed contact 1")
    return phi_hat


def _glue_on_complement(
    core: Sequence[Fraction], d: IntPolynomial, g: IntPolynomial, f: IntPolynomial
) -> FieldElement:
    # element congruent to core mod g and to 1 mod d, built from s*d + t*g = 1
    one, s, t = xgcd_rat(rat_from_int(d), rat_from_int(g))
    if len(one) != 1:
        raise InvariantViolation("exact divisor of a squarefree input repeats")
    part_g = rat_mul(core, rat_mul(s, rat_from_int(d)))
    part_d = rat_mul(t, rat_from_int(g))
    return elem_from_rat(_rat_add(part_g, part_d), f)


def beta(record, f: IntPolynomial, p: int) -> FieldElement:
    """An element of valuation 1 at the record's prime and 0 at every other
    prime, except a prime that branches off a steeper side of the same
    polygon, where it is negative."""
    if record.kind == "dedekind":
        phi = record.dede_phi
        if record.dede_mult == 1:
            rem = f.divmod_monic(phi)[1]
            if not rem.is_zero and vpoly(rem, p) == 1:
                return _make_elem(phi, 1)
            return _make_elem(phi + IntPolynomial((p,)), 1)
        # v(phi(theta)) = 1 exactly on the slope -1/e side, 0 elsewhere
        return _make_elem(phi, 1)

    tipo = record.tipo
    tipo.ensure_rep()
    W = tipo.order + 1

    if record.kind == "factor":
        # the modulus is a global factor of f; uniformize its component
        # directly and glue the constant 1 on the complement
        E = tipo.e_prod
        _, _, V = tipo.order_data(W)
        pi = None
        for w in range(V + f.degree + 16):
            try:
                pi = tipo.lift_simple(1 + w * E, W)
                break
            except UnliftableTarget:
                continue
        if pi is None:
            raise InvariantViolation("no liftable uniformizer target")
        pi_rat = tuple(Fraction(c, p**w) for c in pi.coeffs)
        d = tipo.phi
        if d == f:
            return elem_from_rat(pi_rat, f)
        quo, rem = f.divmod_monic(d)
        if not rem.is_zero:
            raise InvariantViolation("factor record whose modulus does not divide f")
        # the uniformizer lives on the component of d itself
        return _glue_on_complement(pi_rat, quo, d, f)

    lvl = tipo.levels[-1]
    phi_hat = ensure_H1(tipo, f)
    k = lvl.e * lvl.f
    d = lvl.phi
    quo, rem = f.divmod_monic(d)
    if rem.is_zero:
        # zero divisor: invert on the complementary factor and glue 1 back
        s = _invert_mod(d, quo)
        core = rat_divmod(
            rat_mul(rat_from_int(phi_hat), _rat_powmod(s, k, rat_from_int(quo))),
            rat_from_int(quo),
        )[1]
        return _glue_on_complement(core, d, quo, f)
    s = _invert_mod(d, f)
    return elem_from_rat(
        rat_mul(rat_from_int(phi_hat), _rat_powmod(s, k, rat_from_int(f))), f
    )


def _trim_to_p_part(elem: FieldElement, p: int) -> Tuple[FieldElement, int]:
    """alpha = G(theta)/p^k from a reduced fraction, with small G.

    Dropping the prime-to-p unit of the denominator moves no valuation above
    p, and neither does changing G by p^(k+2) times anything integral: such a
    change has value at least 2 at every prime over p, strictly above both 0
    and 1.  Coefficients are therefore folded into the symmetric range.
    """
    k = pval(elem.den, p)
    m = p ** (k + 2)
    G = IntPolynomial(tuple(((c + m // 2) % m) - m // 2 for c in elem.num.coeffs))
    return FieldElement(G, p**k), k


def compute_generators(result) -> List[FieldElement]:
    """Fill generator = (G, k) with alpha = G(theta)/p^k on every record.

    v_Q(beta_P) is read off the trimmed beta_P for every other prime Q;
    trimming moves no value below 2*e_Q, and every such value must be at
    most 0.  alpha_P is beta_P times alpha_Q^(-v) over the Q with v < 0, so
    it is assembled once all those alpha_Q are.  The value of beta_P at P
    itself is left to the caller's grid check: it is the costly one.  The
    returned list holds the trimmed elements, whose valuations above p form
    the identity grid.
    """
    f, p = result.poly, result.p
    primes = result.primes
    betas = []
    needs = []
    for i, rec in enumerate(primes):
        b = beta(rec, f, p)
        trimmed, k = _trim_to_p_part(b, p)
        need = {}
        for j, q in enumerate(primes):
            if j == i:
                continue
            try:
                v = value_at_prime(q, trimmed.num, f, p) - k * q.e
            except ZeroAtTheta:
                v = None
            if v is None or v > 0:
                raise InvariantViolation("quotient with a positive value at another prime")
            if v:
                need[j] = -v
        betas.append(b)
        needs.append(need)
    alphas: List[Optional[FieldElement]] = [None] * len(primes)
    pending = list(range(len(primes)))
    while pending:
        ready = [i for i in pending if all(alphas[j] is not None for j in needs[i])]
        if not ready:
            raise InvariantViolation("generator corrections depend on each other")
        for i in ready:
            elem = betas[i]
            for j, m in needs[i].items():
                elem = elem_mul(elem, elem_pow(alphas[j], m, f), f)
            alphas[i], k = _trim_to_p_part(elem, p)
            primes[i].generator = (alphas[i].num, k)
        pending = [i for i in pending if alphas[i] is None]
    return alphas


def _complete_type(record, f: IntPolynomial, p: int) -> Type:
    if record.kind != "dedekind":
        return record.tipo
    psi0 = tuple(c % p for c in record.dede_phi.coeffs)
    t0 = Type.order_zero(p, psi0, record.dede_mult)
    if record.dede_mult == 1:
        return t0
    coeffs, cloud = t0.newton_data(f)
    sides = principal_sides(sorted(cloud.items()))
    if len(sides) != 1 or sides[0].h != 1 or sides[0].e != record.dede_mult:
        raise InvariantViolation("shortcut record with an unexpected polygon")
    res = t0.residual_on_side(sides[0], coeffs, cloud)
    fld = t0.order_data(1)[0]
    return t0.extended(1, record.dede_mult, [fld.div(res[0], res[1]), fld.one], 1)


def value_at_prime(record, P: IntPolynomial, f: IntPolynomial, p: int) -> int:
    """Exact valuation of P(theta) at the record's prime, with v(p) = e.

    Expand P along the record's modulus; every expansion term has a known
    exact value, so the minimum is the answer whenever it is attained once.
    A tie could hide cancellation, so the modulus is refined along the
    one-step polygon of f, raising its own value by at least one per round,
    until the minimum separates.  No beta arithmetic is involved.
    """
    if P.is_zero:
        raise ZeroAtTheta("the zero polynomial has no valuation")
    if record.value_type is None:
        T = _complete_type(record, f, p)
        H = _contact(T, f)
    else:
        T, H = record.value_type
    prev_h = 0
    rounds = 0
    while True:
        W = T.order + 1
        _, cloud = T.newton_data(P)
        if H is None:
            # the modulus is the exact component factor; only j = 0 survives
            record.value_type = T, H
            if 0 not in cloud:
                raise ZeroAtTheta("vanishes identically on the prime's component")
            return cloud[0]
        vals = [u + j * H for j, u in cloud.items()]
        best = min(vals)
        if vals.count(best) == 1:
            record.value_type = T, H
            return best
        if H <= prev_h:
            raise InvariantViolation("refinement failed to raise the contact")
        prev_h = H
        fcoeffs, fcloud = T.newton_data(f)
        side = principal_sides(sorted(fcloud.items()))[0]
        res = T.residual_on_side(side, fcoeffs, fcloud)
        fld = T.order_data(W)[0]
        T = T.refined(H, [fld.div(res[0], res[1]), fld.one], 1)
        H = _contact(T, f)
        rounds += 1
        if rounds > 8 * (best + f.degree + 16):
            raise InvariantViolation("valuation separation did not terminate")
