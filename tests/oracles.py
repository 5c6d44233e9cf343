"""Reference implementations and cross-checks used only by the test suite.

Most of these are written head-on from the defining property (determinants,
brute-force lattice counts, Dedekind's criterion over a brute-force
factorization mod p, the tame discriminant identity), without reusing the
package's algorithms, so a bug would have to appear twice, in two very
different shapes, to go unseen.  Four are weaker:

- is_irreducible is Rabin's test.  It shares the package's F_q polynomial
  arithmetic but none of the factorization, so it checks what factor()
  returns.
- refinement_equivalence_check is not an independent oracle.  It compares
  two routes of the program itself, refining in place against climbing an
  order, through factor_prime(refine=False).
- full_cofactor_euclid is the program's own earlier p-adic Euclid, which
  kept every cofactor row at the full precision.  It checks that cutting
  the cofactors short changes no digit the caller reads.  It tracks the
  precision of each remainder as the program does, so it shares that
  rule: it is no check on which leading coefficients the Euclid drops.
- full_v, full_contact and full_value_at_prime are the program's own
  earlier readings of a polynomial and of a finished prime, off every
  phi-adic digit of f and of P.
  They check that reading only the digits that can reach the polygon
  changes nothing, and full_contact keeps the check that the polygon of f
  along a complete branch is exactly one side, of width one.

TowerField is the reference for the residue fields of montes.ffield: each
level a tuple of coordinates over the level below, every operation recursing
down to F_p, and polynomials over it multiplied, divided and factored
coefficient by coefficient, without the package's int-list kernel.
"""

from math import gcd

from montes.driver import factor_prime
from montes.ffield import _zp_divmod, _zp_mul, _zp_reduce, pgcd, pmod, pmonic, ppowmod, psub, ptrim
from montes.polygon import principal_sides
from montes.zpoly import IntPolynomial, phi_expand, pval, vpoly


class NotApplicable(Exception):
    """A check or oracle does not apply to the given input."""


class OracleTooLarge(Exception):
    """A brute-force oracle refused an input above its size cap."""


def sylvester_resultant(fc, gc):
    """Resultant from the Sylvester matrix via fraction-free (Bareiss)
    elimination.  fc, gc are ascending coefficient lists over Z."""
    fc = list(fc)
    gc = list(gc)
    while fc and fc[-1] == 0:
        fc.pop()
    while gc and gc[-1] == 0:
        gc.pop()
    if not fc or not gc:
        return 0
    n, m = len(fc) - 1, len(gc) - 1
    if n == 0:
        return fc[0] ** m
    if m == 0:
        return gc[0] ** n
    size = n + m
    rows = []
    frow = list(reversed(fc))
    grow = list(reversed(gc))
    for i in range(m):
        rows.append([0] * i + frow + [0] * (size - n - 1 - i))
    for i in range(n):
        rows.append([0] * i + grow + [0] * (size - m - 1 - i))
    sign = 1
    prev = 1
    for k in range(size - 1):
        if rows[k][k] == 0:
            for i in range(k + 1, size):
                if rows[i][k] != 0:
                    rows[k], rows[i] = rows[i], rows[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                rows[i][j] = (rows[i][j] * rows[k][k] - rows[i][k] * rows[k][j]) // prev
            rows[i][k] = 0
        prev = rows[k][k]
    return sign * rows[size - 1][size - 1]


def sylvester_discriminant(fc):
    """Discriminant from the Sylvester resultant of f and f'."""
    fc = list(fc)
    while fc and fc[-1] == 0:
        fc.pop()
    n = len(fc) - 1
    if n < 1:
        raise ValueError("degree too small")
    if n == 1:
        return 1
    dfc = [i * c for i, c in enumerate(fc)][1:]
    r = sylvester_resultant(fc, dfc)
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    assert sign * r % fc[-1] == 0
    return sign * r // fc[-1]


def naive_poly_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return out


def powmod_mod_p(a, n, m, p):
    """a^n mod m over F_p by n products, each reduced by long division: the
    reference of montes.ffield.ppowmod at level 0.  a and m are any ints,
    the leading coefficient of m nonzero mod p."""
    m = _reduced_mod_p(m, p)
    out = list(_poly_mod_mod_p([1], m, p))
    for _ in range(n):
        out = list(_poly_mod_mod_p(_reduced_mod_p(naive_poly_mul(out, a), p), m, p))
    return out


def full_cofactor_euclid(a, m, p, N):
    """y, w, K with y*a = p^w (mod m, p^K), K <= N, or None when p^N is too
    coarse: the Euclid of montes.idealgen as it was before its cofactors
    were cut to the digits the caller reads, every row kept in full mod p^N.

    a and m are reduced mod p^N and m is monic.  Every row keeps
    s*a = p^e*r (mod m, p^N), with r of p-content one and known mod p^P: P
    is N at the start, less the content split off, more by a scaling p^s
    (up to N), and after a quotient digit lead/p^v at most P - v and the
    divisor's P.  A leading coefficient that vanishes mod p^P is unknown and
    dropped, which leaves the identity exact only mod p^(e+P), and K follows
    it.  A remainder is divided by the unit part of the divisor's leading
    coefficient, and scaled by p wherever its own leading coefficient is
    less divisible; the scaling lands on the older row, whose e is smaller.
    """
    q = p**N
    r0, s0, e0, P0 = m, [], 0, N
    r1, s1, e1, P1 = _zp_divmod(a, m, q)[1], [1], 0, N
    K = N
    while True:
        r1 = _zp_reduce(r1, p ** (N - e1))
        while r1 and r1[-1] % p ** max(P1, 0) == 0:
            r1.pop()
            K = min(K, e1 + P1)
        if not r1:
            return None
        c = pval(gcd(*r1), p)
        r1, e1, P1 = [x // p**c for x in r1], e1 + c, P1 - c
        if len(r1) == 1:
            u = pow(r1[0], -1, q)
            return _zp_divmod([x * u for x in s1], m, q)[1], e1, K
        db, v = len(r1) - 1, pval(r1[-1], p)
        pv = p**v
        u = pow(r1[-1] // pv, -1, q)
        rem, quo, shift, P = list(r0), [0] * (len(r0) - db), 0, P0
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
                P = min(P + v - t, N)
                lead = rem[i]
            quo[i - db] = qi = lead // pv * u % q
            P = min(P - v, P1)
            for j in range(db):
                rem[i - db + j] -= qi * r1[j]
        # p^shift*r0 - quo*r1 = rem, so this row has e = e1 before its content
        scale = p ** (e1 - e0 + shift)
        s2 = [x * scale for x in s0]
        s2 += [0] * (len(s1) + len(quo) - 1 - len(s2))
        for i, x in enumerate(_zp_mul(quo, s1)):
            s2[i] -= x
        r0, s0, e0, P0 = r1, s1, e1, P1
        r1, s1, P1 = rem[:db], _zp_reduce(s2, q), P


def _reduced_mod_p(a, p):
    out = [c % p for c in a]
    while out and out[-1] == 0:
        out.pop()
    return out


def refinement_instance(rng, p=None):
    """Monic quadratic whose first residual polynomial has a double root.

    Writing f = (x-a)^2 + b*p^k*(x-a) + c*p^(2k), the polygon of f with
    respect to x-a is a single side of slope -k, and the side's residual
    polynomial is z^2 + b*z + c mod p.  Choosing c = (b/2)^2 mod p makes
    that a perfect square, so the side must be revisited: either x-a is
    refined in place or an order is climbed through a unit level.  Over
    p = 2 the square condition reads b = 0, c odd.  Returns (f, p).
    """
    if p is None:
        p = rng.choice([2, 3, 5, 13])
    k = rng.randint(1, 5)
    a = rng.randint(-p * p, p * p)
    if p == 2:
        b = 0
        c = rng.randrange(1, 64, 2)
    else:
        b = rng.randint(1, p - 1)
        c = b * b * pow(4, -1, p) % p + p * rng.randint(0, 8)
    while b * b == 4 * c:
        c += p  # b^2 = 4c would square the quadratic; same class mod p
    coeffs = [a * a - a * b * p**k + c * p ** (2 * k), b * p**k - 2 * a, 1]
    return coeffs, p


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


def dedekind_verdicts(f, p):
    """Dedekind's criterion at p, factor by factor, written from scratch.

    Returns [(factor, multiplicity, regular)] over the monic irreducible
    factors of f mod p, as ascending coefficient tuples in 0..p-1.  With
    f = prod lift^mult + p*M, a factor is regular unless it is repeated and
    divides M mod p.  Uses its own brute-force factorization mod p and the
    product over Z, so it shares nothing with the driver.
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
    # trimmed, so that M = 0 mod p reads as the zero polynomial
    mbar = _reduced_mod_p(m_coeffs, p)
    return [(fac, mult, not (mult > 1 and _divides_mod_p(fac, mbar, p))) for fac, mult in factors]


def dedekind_oracle(f, p):
    """Indexwise test at p by Dedekind's criterion.

    Returns (index_is_zero, primes) where primes is the list of (e, f) pairs
    when the criterion certifies the index is zero, else None.
    """
    verdicts = dedekind_verdicts(f, p)
    index_zero = all(regular for _, _, regular in verdicts)
    return index_zero, ([(mult, len(fac) - 1) for fac, mult, _ in verdicts] if index_zero else None)


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


def full_contact(tipo, f):
    """types.contact off the whole expansion of f along the pending modulus,
    which must give exactly one side, of width one, unless the modulus
    divides f."""
    readings, cloud = tipo.newton_data(f)
    if 0 not in cloud:
        return None
    sides = principal_sides(sorted(cloud.items()))
    assert len(sides) == 1 and sides[0].width == 1, "not one side of width one"
    res = tipo.residual_on_side(sides[0], readings, cloud)
    fld = tipo.order_data(tipo.order + 1)[0]
    return sides[0].height, fld.mul(res[0], fld.inv(res[1]))


def full_v(tipo, P, R):
    """Type.v off every phi-adic digit of P: the program's own earlier
    reading, which did not stop at the least term."""
    if R == 1:
        return vpoly(P, tipo.p), P.coeffs
    lvl = tipo.levels[R - 2]
    pts = []
    for j, a in enumerate(phi_expand(P, lvl.phi)):
        if not a.is_zero:
            r = full_v(tipo, a, R - 1)
            pts.append((lvl.e * (r[0] + j * lvl.V) + lvl.h * j, j, r))
    u = min(pts)[0]
    return u, [(j, r) for val, j, r in pts if val == u]


def full_value_at_prime(tipo, P, f):
    """types.value_at_prime from the complete branch tipo, off every digit of
    P along each modulus; None when P vanishes on the prime's component."""
    touch, prev_h = full_contact(tipo, f), 0
    while True:
        _, cloud = tipo.newton_data(P)
        if touch is None:
            return cloud.get(0)
        H, c = touch
        vals = [u + j * H for j, u in cloud.items()]
        best = min(vals)
        if vals.count(best) == 1:
            return best
        assert H > prev_h, "refinement failed to raise the contact"
        prev_h = H
        tipo = tipo.refined(H, [c, tipo.order_data(tipo.order + 1)[0].one], 1)
        touch = full_contact(tipo, f)


def refinement_equivalence_check(f, p):
    """Branch data must not depend on how unit sides are absorbed.

    Runs the splitting twice, once refining in place and once raising the
    order at every step, and compares everything intrinsic: the index, the
    per-prime (e, f), and the committed levels with e*f > 1.  The order-raised
    path interleaves unit levels between these but can never change them.
    """
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


def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_irreducible(K, f):
    """Rabin's test over F_q: f of degree n is irreducible iff x^(q^n) = x
    mod f and x^(q^(n/r)) - x is prime to f for every prime r dividing n."""
    f = ptrim(K, list(f))
    n = len(f) - 1
    if n < 1:
        return False
    if n == 1:
        return True
    f = pmonic(K, f)
    x = [K.zero, K.one]
    h = pmod(K, x, f)
    for _ in range(n):
        h = ppowmod(K, h, K.q, f)
    if psub(K, h, x):
        return False
    for r in _prime_divisors(n):
        h = pmod(K, x, f)
        for _ in range(n // r):
            h = ppowmod(K, h, K.q, f)
        if len(pgcd(K, psub(K, h, x), f)) > 1:
            return False
    return True


class TowerField:
    """F_p, or sub[y]/(psi) for a TowerField sub, with nested-tuple elements.

    Elements of F_p are ints in [0, p); elements of an extension are tuples
    of subfield elements, ascending in the power of y, with trailing zeros
    trimmed (the empty tuple is zero).
    """

    def __init__(self, p, subfield=None, psi=None):
        self.p = p
        self.subfield = subfield
        self.level = 0 if subfield is None else subfield.level + 1
        self.psi = None if psi is None else tuple(psi)
        self.deg = 1 if psi is None else len(psi) - 1
        self.q = p if subfield is None else subfield.q**self.deg
        self.zero = 0 if subfield is None else ()
        self.one = 1 % p if subfield is None else (subfield.one,)

    def extend(self, psi):
        return TowerField(self.p, self, self.ptrim(list(psi)))

    def is_zero(self, a):
        return a == self.zero

    def from_int(self, n):
        if self.level == 0:
            return n % self.p
        return self.embed(self.subfield.from_int(n))

    def embed(self, c):
        return () if self.subfield.is_zero(c) else (c,)

    def gen(self):
        sub = self.subfield
        if self.deg == 1:
            return self.embed(sub.neg(self.psi[0]))
        return (sub.zero, sub.one)

    def add(self, a, b):
        if self.level == 0:
            return (a + b) % self.p
        return tuple(self.subfield.padd(a, b))

    def neg(self, a):
        if self.level == 0:
            return -a % self.p
        return tuple(self.subfield.neg(c) for c in a)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.level == 0:
            return a * b % self.p
        return tuple(self._reduce(self.subfield.pmul(a, b)))

    def _reduce(self, coeffs):
        return self.subfield.pdivmod(coeffs, self.psi)[1]

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        if self.level == 0:
            return pow(a, -1, self.p)
        sub = self.subfield
        r0, s0 = list(a), [sub.one]
        r1, s1 = list(self.psi), []
        while r1:
            quo, rem = sub.pdivmod(r0, r1)
            r0, s0, r1, s1 = r1, s1, rem, sub.psub(s0, sub.pmul(quo, s1))
        if len(r0) != 1:
            raise ArithmeticError("element shares a factor with the modulus")
        return tuple(self._reduce(sub.pscale(sub.inv(r0[0]), s0)))

    def pow(self, a, n):
        if n < 0:
            return self.pow(self.inv(a), -n)
        out, base = self.one, a
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out

    def rand(self, rng):
        if self.level == 0:
            return rng.randrange(self.p)
        sub = self.subfield
        return tuple(sub.ptrim([sub.rand(rng) for _ in range(self.deg)]))

    def key(self, a):
        if self.level == 0:
            return a
        return tuple(self.subfield.key(c) for c in a)

    # --- polynomials over the field: lists of elements, ascending, trimmed ---

    def ptrim(self, a):
        while a and self.is_zero(a[-1]):
            a.pop()
        return a

    def padd(self, a, b):
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = self.add(out[i], c)
        return self.ptrim(out)

    def psub(self, a, b):
        return self.padd(a, [self.neg(c) for c in b])

    def pscale(self, c, a):
        return self.ptrim([self.mul(c, x) for x in a])

    def pmul(self, a, b):
        if not a or not b:
            return []
        out = [self.zero] * (len(a) + len(b) - 1)
        for i, c in enumerate(a):
            if not self.is_zero(c):
                for j, d in enumerate(b):
                    out[i + j] = self.add(out[i + j], self.mul(c, d))
        return self.ptrim(out)

    def pdivmod(self, a, b):
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        rem, db = list(a), len(b) - 1
        if len(rem) - 1 < db:
            return [], self.ptrim(rem)
        linv = self.inv(b[-1])
        quo = [self.zero] * (len(rem) - db)
        for i in range(len(rem) - 1, db - 1, -1):
            c = self.mul(rem[i], linv)
            if self.is_zero(c):
                continue
            quo[i - db] = c
            for j in range(db + 1):
                rem[i - db + j] = self.sub(rem[i - db + j], self.mul(c, b[j]))
        return self.ptrim(quo), self.ptrim(rem)

    def pmonic(self, a):
        if not a or a[-1] == self.one:
            return list(a)
        return self.pscale(self.inv(a[-1]), a)

    def pgcd(self, a, b):
        a, b = list(a), list(b)
        while b:
            a, b = b, self.pdivmod(a, b)[1]
        return self.pmonic(a)

    def ppowmod(self, a, n, m):
        out, base = [self.one], self.pdivmod(a, m)[1]
        while n:
            if n & 1:
                out = self.pdivmod(self.pmul(out, base), m)[1]
            n >>= 1
            if n:
                base = self.pdivmod(self.pmul(base, base), m)[1]
        return out

    def _squarefree_parts(self, f):
        parts, e = [], 1
        while len(f) > 1:
            df = self.ptrim([self.mul(self.from_int(i), f[i]) for i in range(1, len(f))])
            if not df:  # f = g(y^p): take the p-th root of every coefficient
                f = [self.pow(c, self.q // self.p) for c in f[:: self.p]]
                e *= self.p
                continue
            c = self.pgcd(f, df)
            w, i = self.pdivmod(f, c)[0], 1
            while len(w) > 1:
                y = self.pgcd(w, c)
                z = self.pdivmod(w, y)[0]
                if len(z) > 1:
                    parts.append((z, i * e))
                w, c, i = y, self.pdivmod(c, y)[0], i + 1
            f = c
        parts.sort(key=lambda gm: gm[1])
        return parts

    def _distinct_degree_parts(self, f):
        out, x, d = [], [self.zero, self.one], 0
        h = self.pdivmod(x, f)[1]
        while 2 * (d + 1) <= len(f) - 1:
            d += 1
            h = self.ppowmod(h, self.q, f)
            g = self.pgcd(self.psub(h, x), f)
            if len(g) > 1:
                out.append((g, d))
                f = self.pdivmod(f, g)[0]
                h = self.pdivmod(h, f)[1]
        if len(f) > 1:
            out.append((f, len(f) - 1))
        return out

    def _random_split(self, g, d, rng):
        t = self.ptrim([self.rand(rng) for _ in range(len(g) - 1)])
        if not t:
            return []
        c = self.pgcd(t, g)
        if 1 < len(c) < len(g):
            return c
        if self.q % 2 == 1:
            s = self.ppowmod(t, (self.q**d - 1) // 2, g)
            c = self.pgcd(self.psub(s, [self.one]), g)
        else:  # char 2: the additive trace down to F_2
            u = self.pdivmod(t, g)[1]
            s = list(u)
            for _ in range((self.q.bit_length() - 1) * d - 1):
                u = self.pdivmod(self.pmul(u, u), g)[1]
                s = self.padd(s, u)
            c = self.pgcd(s, g)
        return c if 1 < len(c) < len(g) else []

    def factor(self, f, rng):
        """Monic irreducible factors with multiplicities, sorted by
        (degree, key), drawing from rng as montes.ffield.factor does."""
        out = []
        for g, m in self._squarefree_parts(self.pmonic(self.ptrim(list(f)))):
            for h, d in self._distinct_degree_parts(g):
                done, work = [], [h]
                while work:
                    g1 = work.pop()
                    if len(g1) - 1 == d:
                        done.append(g1)
                        continue
                    c = []
                    while not c:
                        c = self._random_split(g1, d, rng)
                    work += [c, self.pdivmod(g1, c)[0]]
                out += [(irr, m) for irr in done]
        out.sort(key=lambda fm: (len(fm[0]), tuple(self.key(c) for c in fm[0])))
        return out
