"""Two-element generators (p, alpha) for the primes above p.

Each completed branch yields a quotient beta with valuation 1 at its own
prime: the pending modulus, tweaked so that its polygon of f is one-sided of
slope -1, divided by the previous modulus raised to e*f.  At every other
prime beta has value 0, except at the primes that split off a steeper side
of the same polygon, where the value is negative.  Those values are read
with types.value_at_prime, the route --disc and the checks use too, and
multiplying by the generators of those primes, raised to the opposite
exponent, clears them; a prime is assembled once every prime it needs is.

Nothing is computed over Q.  An element is G(theta)/p^k with G integral,
and only G mod p^(k+2) is kept: changing G by p^(k+2) times anything
integral changes the element by a value of at least 2 at every prime over
p, strictly above both 0 and 1, so it moves none of the values that matter.
The one division, by a power of the previous modulus, is an extended Euclid
over Z_p (p_adic_inverse).  Its remainders run at a precision p^N that they
certify themselves, and its cofactors only at the digits the caller reads:
an inverse y/p^w is read mod p^(w+A), and no w that N certifies passes
(N-2)/2, so the cofactors are kept mod p^((N-2)//2 + A), about half of N.

A squarefree but reducible f needs two escapes the irreducible case never
meets.  A modulus that divides f exactly is a zero divisor, so the quotient
is assembled on the complementary factor and glued back with the constant 1
on the dropped component.  And a branch whose own modulus divides f takes a
canonical-lift uniformizer on its component instead of a quotient, because
no denominator of smaller degree separates it from its siblings.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import List, Optional, Sequence, Tuple

from .errors import InvariantViolation, UnliftableTarget, ZeroAtTheta
from .ffield import _power, _zp_divisor, _zp_divmod, _zp_mul, _zp_reduce
from .types import Type, complete_branch, contact, value_at_prime
from .zpoly import IntPolynomial, pval


@dataclass(frozen=True)
class FieldElement:
    """num(theta)/p^p_power, with num of p-content one when p_power >= 1."""

    num: IntPolynomial
    p_power: int


def _element(num: Sequence[int], K: int, p: int, A: int = 2) -> FieldElement:
    """num(theta)/p^K with the p-content cancelled and num folded into the
    symmetric range mod p^(k+A); num need only be right mod p^(K+A)."""
    g = gcd(*num)
    c = min(pval(g, p), K) if g else K
    k, pc = K - c, p**c
    m = p ** (k + A)
    G = IntPolynomial(tuple(((x // pc + m // 2) % m) - m // 2 for x in num))
    return FieldElement(G, k)


def _mul(x: FieldElement, y: FieldElement, f: IntPolynomial, p: int, A: int) -> FieldElement:
    """x*y up to p^A times an integral element, for y integral and known as
    closely: the content cancelled at each product keeps the denominator at
    the size the element needs, however many factors went into it."""
    K = x.p_power + y.p_power
    q = p ** (K + A)
    num = _mulmod(x.num.coeffs, y.num.coeffs, _zp_divisor(f.coeffs, q), q)
    return _element(num, K, p, A)


def _mulmod(a: Sequence[int], b: Sequence[int], m: Sequence[int], q: int) -> List[int]:
    return _zp_divmod(_zp_mul(a, b), m, q)[1]


def _powmod(a: Sequence[int], k: int, m: Sequence[int], q: int) -> List[int]:
    if k == 0:
        return [1]
    return _power(_zp_divmod(a, m, q)[1], k, lambda x, y: _mulmod(x, y, m, q))


def _euclid(
    a: List[int], m: List[int], p: int, N: int, A: int
) -> Optional[Tuple[Optional[List[int]], int]]:
    """y, w with y*a = p^w (mod m, p^(w+A)); (None, w) when N < 2w + 2,
    too coarse to certify w; None when p^N is too coarse to find a w.

    a and m are reduced mod p^N and m is monic.  Every row keeps
    s*a = p^e*r (mod m), r of p-content one and known only mod p^(N-e), so
    a coefficient that vanishes there is dropped.  A remainder is divided by
    the unit part of the divisor's leading coefficient, and scaled by p
    wherever its own leading coefficient is less divisible; the scaling lands
    on the older row, whose e is smaller.  The remainders alone fix the
    quotients and w.  A cofactor is a sum of older cofactors times quotients
    and powers of p, so it is kept mod p^M, M = (N-2)//2 + A, and is right
    mod p^(w+A) for every w that N certifies.  Once e passes (N-2)//2, which
    w >= e then does too, the cofactors are dropped.
    """
    q = p**N
    cut = (N - 2) // 2
    qs = p ** (cut + A)
    r0, s0, e0 = m, [], 0
    r1, s1, e1 = _zp_divmod(a, m, q)[1], [1], 0
    while True:
        r1 = _zp_reduce(r1, p ** (N - e1))
        if not r1:
            return None
        c = pval(gcd(*r1), p)
        r1, e1 = [x // p**c for x in r1], e1 + c
        if e1 > cut:
            s1 = None
        if len(r1) == 1:
            if s1 is None:
                return None, e1
            u = pow(r1[0], -1, qs)
            return _zp_divmod([x * u for x in s1], _zp_reduce(m, qs), qs)[1], e1
        db, v = len(r1) - 1, pval(r1[-1], p)
        pv = p**v
        u = pow(r1[-1] // pv, -1, q)
        rem, quo, shift = list(r0), [0] * (len(r0) - db), 0
        for i in range(len(rem) - 1, db - 1, -1):
            lead = rem[i] % q
            if not lead:
                continue
            t = pval(lead, p)
            if t < v:
                scale = p ** (v - t)
                rem = [x * scale % q for x in rem[: i + 1]]
                quo = [x * scale % q for x in quo]
                shift += v - t
                lead = rem[i]
            quo[i - db] = qi = lead // pv * u % q
            for j in range(db):
                rem[i - db + j] -= qi * r1[j]
        s2 = None
        if s1 is not None:
            # p^shift*r0 - quo*r1 = rem, so this row has e = e1 before its content
            scale = p ** (e1 - e0 + shift)
            s2 = [x * scale for x in s0]
            s2 += [0] * (len(s1) + len(quo) - 1 - len(s2))
            for i, x in enumerate(_zp_mul([x % qs for x in quo], s1)):
                s2[i] -= x
            s2 = _zp_reduce(s2, qs)
        r0, s0, e0 = r1, s1, e1
        r1, s1 = rem[:db], s2


def p_adic_inverse(
    a: IntPolynomial, k: int, m: IntPolynomial, p: int, A: int
) -> Tuple[List[int], int, int]:
    """y, w and N with y*a^k = p^w (mod m, p^(w+A)) and N >= 2w + 2.

    m is monic and a^k has no common factor with it over Q.  N starts small
    and doubles until the Euclid finds a w, then grows to 2w + 2 until the
    w found certifies it: the Euclid's own cofactor y0 at this N has
    y0*a^k = p^w (mod m, p^N), so y0/p^w differs from 1/a^k by an element of
    value at least (N - 2w)*e >= 2e at every prime over p, since a^k has
    value at most w*e there.  The caller reads the inverse mod p^(w+A), A
    digits past w, and y is y0 to that precision only.  Since N >= 2w + 2,
    w + A <= (N-2)//2 + A: the remainders need p^N, the cofactors only that.
    """
    N = 16
    while True:
        q = p**N
        mq = _zp_divisor(m.coeffs, q)
        found = _euclid(_powmod(a.coeffs, k, mq, q), mq, p, N, A)
        if found is None:
            N *= 2
        elif found[0] is None:
            N = 2 * found[1] + 2
        else:
            return found[0], found[1], N


def ensure_H1(record, f: IntPolynomial, p: int) -> IntPolynomial:
    """A representative of the record's branch whose polygon of f has slope -1.

    The pending modulus is returned unchanged when it already has contact 1;
    otherwise adding a canonical lift at value V+1 caps the contact from
    below, including the case where the modulus divides f exactly.
    """
    tipo, touch = complete_branch(record, f, p)
    if touch is not None and touch[0] == 1:
        return tipo.phi
    W = tipo.order + 1
    _, _, V = tipo.order_data(W)
    phi_hat = tipo.phi + tipo.lift_simple(V + 1, W)
    touch = contact(Type(tipo.p, tipo.F1, tipo.levels, phi_hat, 0, tipo.mult), f)
    if touch is None or touch[0] != 1:
        raise InvariantViolation("tweaked representative missed contact 1")
    return phi_hat


def _glue(
    num: IntPolynomial, w0: int, d: IntPolynomial, j: int, g: IntPolynomial, p: int
) -> FieldElement:
    """num/(p^w0 * d^(j-1)) on the components of g, and 1 on those of d.

    With y*d^j = p^w (mod g, p^N) this is
    1 + d*((num - p^w0*d^(j-1))*y mod g)/p^(w0+w), exact where d vanishes.
    On the components of g it is t + (t - 1)*eps for the target t, with
    v(eps) >= (N - w)*e, so the error is at least 2e: t is a uniformizer,
    or has value at least -w*e, as num/d^(j-1) has.  Only the numerator mod
    p^(w0+w+2) is kept, so y is asked for w0 + 2 digits past w.
    """
    y, w, _ = p_adic_inverse(d, j, g, p, w0 + 2)
    W = w0 + w
    q = p ** (W + 2)
    gq = _zp_divisor(g.coeffs, q)
    top = IntPolynomial(_powmod(d.coeffs, j - 1, gq, q)) * p**w0
    core = IntPolynomial(_mulmod((num - top).coeffs, y, gq, q))
    return _element((d * core + IntPolynomial((p**W,))).coeffs, W, p)


def beta(record, f: IntPolynomial, p: int) -> FieldElement:
    """An element of valuation 1 at the record's prime and 0 at every other
    prime, except a prime that branches off a steeper side of the same
    polygon, where it is negative."""
    if record.kind == "dedekind":
        # phi(theta) is a unit at every other prime; at its own, Dedekind's
        # criterion gives it value 1 if e > 1; else ensure_H1 adds p as needed
        phi = record.dede_phi if record.e > 1 else ensure_H1(record, f, p)
        return _element(phi.coeffs, 0, p)

    tipo = record.tipo
    W = tipo.order + 1

    if record.kind == "factor":
        # the modulus is a global factor of f; uniformize its component
        # directly and glue the constant 1 on the complement
        E = tipo.e_prod
        _, _, V = tipo.order_data(W)
        for w in range(V + f.degree + 16):
            try:
                pi = tipo.lift_simple(1 + w * E, W)
                break
            except UnliftableTarget:
                continue
        else:
            raise InvariantViolation("no liftable uniformizer target")
        d = tipo.phi
        quo, rem = f.divmod_monic(d)
        if not rem.is_zero:
            raise InvariantViolation("factor record whose modulus does not divide f")
        # the uniformizer pi/p^w lives on the component of d itself
        return _glue(pi, w, quo, 1, d, p)

    lvl = tipo.levels[-1]
    phi_hat = ensure_H1(record, f, p)
    k = lvl.e * lvl.f
    d = lvl.phi
    quo, rem = f.divmod_monic(d)
    if rem.is_zero:
        # zero divisor: the quotient lives on the complementary factor
        return _glue(phi_hat, 0, d, k + 1, quo, p)
    y, w, _ = p_adic_inverse(d, k, f, p, 2)
    q = p ** (w + 2)
    return _element(_mulmod(phi_hat.coeffs, y, _zp_divisor(f.coeffs, q), q), w, p)


def compute_generators(result) -> List[FieldElement]:
    """alpha = G(theta)/p^k for every prime of a finished run, in its order.

    v_Q(beta_P) is read off beta_P for every other prime Q, and every such
    value must be at most 0.  alpha_P is beta_P times alpha_Q^(-v) over the
    Q with v < 0, so it is assembled once all those alpha_Q are.  The value
    of beta_P at P itself is left to the caller's grid check: it is the
    costly one.  The returned elements' valuations above p form the identity
    grid.
    """
    f, p = result.poly, result.p
    primes = result.primes
    betas = []
    needs = []
    for i, rec in enumerate(primes):
        b = beta(rec, f, p)
        need = {}
        for j, q in enumerate(primes):
            if j == i:
                continue
            try:
                v = value_at_prime(q, b.num, f, p) - b.p_power * q.e
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
            # beta_i has value at least -w*e, so its factors need p^(w+2)
            elem, A = betas[i], betas[i].p_power + 2
            for j, m in needs[i].items():
                power = _power(alphas[j], m, lambda x, y: _mul(x, y, f, p, A))
                elem = _mul(elem, power, f, p, A)
            alphas[i] = _element(elem.num.coeffs, elem.p_power, p)
        pending = [i for i in pending if alphas[i] is None]
    return alphas
