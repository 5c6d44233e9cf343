"""Independent cross-checks.

Each function here re-derives a quantity the main pipeline also computes,
using a different method (brute-force enumeration, textbook criteria), so the
two can be compared in tests and in the hidden `montes verify` command.  None
of this code is on the main computation path.
"""

from .errors import NotApplicable, OracleTooLarge
from .zpoly import IntPolynomial

_ORACLE_CAP = 64


def lattice_index_oracle(vertices, hcut=0):
    """Brute-force count of lattice points below or on the polygon with the
    given vertices, strictly above the line of slope -hcut through its last
    vertex, in columns 1..x_last.

    Refuses polygons wider than 64 columns.
    """
    if not vertices:
        return 0
    if vertices[-1][0] > _ORACLE_CAP:
        raise OracleTooLarge("polygon wider than the oracle cap")
    x0 = vertices[0][0]
    xt, yt = vertices[-1]
    count = 0
    for x in range(max(1, x0), xt + 1):
        # hull value at x: interpolate on the segment covering x
        for (xa, ya), (xb, yb) in zip(vertices, vertices[1:]):
            if xa <= x <= xb:
                top = (ya * (xb - xa) + (x - xa) * (yb - ya)) // (xb - xa)
                break
        else:
            if x == x0 == xt:
                top = yt
            else:
                continue
        floor_line = yt + hcut * (xt - x)
        if top > floor_line:
            count += top - floor_line
    return count


def dedekind_oracle(f, p):
    """Indexwise test at p by Dedekind's criterion, written from scratch.

    Returns (index_is_zero, primes) where primes is the list of (e, f) pairs
    when the criterion certifies the index is zero, else None.  Uses its own
    brute-force factorization mod p, so it shares nothing with the driver.
    """
    fb = tuple(c % p for c in f.coeffs)
    factors = _factor_mod_p_bruteforce(fb, p)
    lifts = [IntPolynomial(fac) for fac, _ in factors]
    prod = IntPolynomial([1])
    for lift, (_, mult) in zip(lifts, factors):
        prod = prod * lift ** mult
    diff = f - prod
    m_coeffs = []
    for c in diff.coeffs:
        if c % p:
            raise NotApplicable("reduction mismatch")  # unreachable
        m_coeffs.append(c // p)
    mbar = tuple(c % p for c in m_coeffs)
    index_zero = True
    primes = []
    for lift, (fac, mult) in zip(lifts, factors):
        if mult > 1 and _divides_mod_p(fac, mbar, p):
            index_zero = False
        primes.append((mult, len(fac) - 1))
    return index_zero, (primes if index_zero else None)


def _poly_mod_mod_p(a, m, p):
    a = list(a)
    dm = len(m) - 1
    inv = pow(m[-1], -1, p)
    while len(a) - 1 >= dm:
        c = a[-1] * inv % p
        if c:
            off = len(a) - 1 - dm
            for j in range(len(m)):
                a[off + j] = (a[off + j] - c * m[j]) % p
        a.pop()
        while a and a[-1] == 0:
            a.pop()
    return tuple(a)


def _divides_mod_p(d, a, p):
    if not a:
        return True
    return not _poly_mod_mod_p(a, d, p)


def _monic_polys(p, deg):
    if deg == 0:
        yield (1,)
        return
    span = p ** deg
    for code in range(span):
        coeffs = []
        c = code
        for _ in range(deg):
            coeffs.append(c % p)
            c //= p
        yield tuple(coeffs) + (1,)


def _factor_mod_p_bruteforce(fb, p):
    """Factor a coefficient tuple mod p by trial division over all monic
    polynomials of ascending degree.  Exponential, so callers keep inputs
    small."""
    fb = tuple(c % p for c in fb)
    while fb and fb[-1] == 0:
        fb = fb[:-1]
    lead_inv = pow(fb[-1], -1, p)
    fb = tuple(c * lead_inv % p for c in fb)
    if len(fb) - 1 > 12:
        raise OracleTooLarge("brute-force factorization cap exceeded")
    factors = []
    deg = 1
    while len(fb) - 1 >= 2 * deg:
        for cand in _monic_polys(p, deg):
            mult = 0
            while _divides_mod_p(cand, fb, p):
                fb = _exact_div_mod_p(fb, cand, p)
                mult += 1
            if mult:
                factors.append((cand, mult))
            if len(fb) - 1 < 2 * deg:
                break
        deg += 1
    if len(fb) - 1 >= 1:
        factors.append((fb, 1))
    # merge duplicates that can arise when the tail equals an earlier factor
    merged = {}
    order = []
    for fac, mult in factors:
        if fac in merged:
            merged[fac] += mult
        else:
            merged[fac] = mult
            order.append(fac)
    return [(fac, merged[fac]) for fac in sorted(order, key=lambda t: (len(t), t))]


def _exact_div_mod_p(a, d, p):
    a = list(a)
    out = [0] * (len(a) - len(d) + 1)
    for i in range(len(a) - 1, len(d) - 2, -1):
        c = a[i] % p
        out[i - len(d) + 1] = c
        if c:
            for j in range(len(d)):
                a[i - len(d) + 1 + j] = (a[i - len(d) + 1 + j] - c * d[j]) % p
    return tuple(out[: len(out)])


def tame_disc_check(disc_v, p, index, primes):
    """In the tame case (p divides no ramification index) the discriminant
    valuation disc_v = v_p(disc f) must equal 2*index + sum (e-1)*f.

    Returns the pair (lhs, rhs); raises NotApplicable in the wild case.
    """
    if any(e % p == 0 for e, _ in primes):
        raise NotApplicable("wild ramification")
    rhs = 2 * index + sum((e - 1) * fd for e, fd in primes)
    return disc_v, rhs


def refinement_equivalence_check(f, p):
    """Branch data must not depend on how unit sides are absorbed.

    Runs the splitting twice, once refining in place and once raising the
    order at every step, and compares everything intrinsic: the index, the
    per-prime (e, f), and the committed levels with e*f > 1.  The order-raised
    path interleaves unit levels between these but can never change them.
    """
    from .driver import factor_prime

    a = factor_prime(f, p, refine=True)
    b = factor_prime(f, p, refine=False)
    if a.index != b.index or len(a.primes) != len(b.primes):
        return False

    def shape(run):
        out = []
        for rec in run.primes:
            levels = ()
            if rec.tipo is not None:
                levels = tuple(
                    (lv.e, lv.f) for lv in rec.tipo.levels if lv.e * lv.f > 1
                )
            out.append((rec.e, rec.f, levels))
        return sorted(out)

    return shape(a) == shape(b)
