"""Finite field towers and univariate polynomial factorization over them.

A field is either the prime field F_p or a simple extension sub[y]/(psi) of
another field from this module.  Elements of the prime field are plain ints in
[0, p); elements of an extension are tuples of subfield elements, ascending in
the power of y, with trailing zeros trimmed (the empty tuple is zero).  The
tuple entries are exactly the coordinates with respect to powers of the
generator, which keeps decomposition and reassembly trivial for callers.

Polynomials over a field are Python lists of elements, ascending, trimmed.
All routines are deterministic given the caller's rng; factor() sorts its
output by (degree, coefficient key) so the rng never leaks into results.

Over the prime field, pmul and pdivmod run on a private kernel that works
on the int lists directly instead of calling Field methods per coefficient;
pmod, ppowmod, pgcd and Field.inv on level-1 fields reach it through them.
Its reduction is lazy: products are accumulated as unreduced ints, and `% p`
is taken once per coefficient, when division reads the leading coefficient
to pick a quotient digit and when a result is returned.  pmul, pdivmod,
pmod and ppowmod therefore also accept unreduced or negative ints, and every
result is reduced into [0, p) and trimmed, the same values the
per-coefficient routines give.  The other routines, pgcd included, take
polynomials over the field.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from .errors import DivisionByZero, InputError, NotInvertible


class Field:
    """F_p or a simple extension of another Field, with element arithmetic."""

    __slots__ = ("p", "level", "subfield", "psi", "deg", "q", "zero", "one")

    def __init__(self, p: int):
        self.p = p
        self.level = 0
        self.subfield = None
        self.psi = None
        self.deg = 1
        self.q = p
        self.zero = 0
        self.one = 1 % p

    def extend(self, psi: Sequence) -> "Field":
        """Return self[y]/(psi) for monic psi of degree >= 1 over self.

        Irreducibility is the caller's responsibility; the main pipeline only
        extends by factors it produced itself.
        """
        psi = ptrim(self, list(psi))
        if len(psi) < 2 or psi[-1] != self.one:
            raise NotInvertible("extension modulus must be monic of degree >= 1")
        ext = object.__new__(Field)
        ext.p = self.p
        ext.level = self.level + 1
        ext.subfield = self
        ext.psi = tuple(psi)
        ext.deg = len(psi) - 1
        ext.q = self.q ** ext.deg
        ext.zero = ()
        ext.one = (self.one,)
        return ext

    def is_zero(self, a) -> bool:
        return a == self.zero

    def from_int(self, n: int):
        if self.level == 0:
            return n % self.p
        return self.embed(self.subfield.from_int(n))

    def embed(self, c):
        """Inject a subfield element as a constant."""
        return () if self.subfield.is_zero(c) else (c,)

    def gen(self):
        """The class of y, a root of psi."""
        sub = self.subfield
        if self.deg == 1:
            return self.embed(sub.neg(self.psi[0]))
        return (sub.zero, sub.one)

    def add(self, a, b):
        if self.level == 0:
            return (a + b) % self.p
        sub = self.subfield
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = sub.add(out[i], c)
        return tuple(ptrim(sub, out))

    def neg(self, a):
        if self.level == 0:
            return -a % self.p
        sub = self.subfield
        return tuple(sub.neg(c) for c in a)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.level == 0:
            return a * b % self.p
        sub = self.subfield
        if not a or not b:
            return ()
        prod = [sub.zero] * (len(a) + len(b) - 1)
        for i, c in enumerate(a):
            if sub.is_zero(c):
                continue
            for j, d in enumerate(b):
                prod[i + j] = sub.add(prod[i + j], sub.mul(c, d))
        return tuple(self._reduce(prod))

    def _reduce(self, coeffs: List) -> List:
        # modulus is monic, so reduction is subtraction of shifted multiples
        sub = self.subfield
        psi = self.psi
        for i in range(len(coeffs) - 1, self.deg - 1, -1):
            top = coeffs[i]
            if sub.is_zero(top):
                continue
            off = i - self.deg
            for j in range(self.deg):
                coeffs[off + j] = sub.sub(coeffs[off + j], sub.mul(top, psi[j]))
            coeffs[i] = sub.zero
        return ptrim(sub, coeffs[: self.deg])

    def inv(self, a):
        if self.is_zero(a):
            raise DivisionByZero("inverse of zero")
        if self.level == 0:
            return pow(a, -1, self.p)
        sub = self.subfield
        r0, s0 = list(a), [sub.one]
        r1, s1 = list(self.psi), []
        while r1:
            quo, rem = pdivmod(sub, r0, r1)
            r0, s0, r1, s1 = r1, s1, rem, psub(sub, s0, pmul(sub, quo, s1))
        if len(r0) != 1:
            raise NotInvertible("element shares a factor with the modulus")
        scale = sub.inv(r0[0])
        return tuple(self._reduce([sub.mul(scale, c) for c in s0]))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, n: int):
        if n < 0:
            return self.pow(self.inv(a), -n)
        out = self.one
        base = a
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out

    def rand(self, rng: random.Random):
        if self.level == 0:
            return rng.randrange(self.p)
        sub = self.subfield
        return tuple(ptrim(sub, [sub.rand(rng) for _ in range(self.deg)]))

    def key(self, a):
        """Total order key; nested tuples of ints, comparable within a field."""
        if self.level == 0:
            return a
        sub = self.subfield
        return tuple(sub.key(c) for c in a)

    def __repr__(self) -> str:
        return f"Field(p={self.p}, level={self.level}, q=p^{_log(self.q, self.p)})"


def _log(q: int, p: int) -> int:
    n = 0
    while q > 1:
        q //= p
        n += 1
    return n


# --- the prime-field kernel: int lists, ascending, reduced lazily ---


def _zp_reduce(a: Sequence[int], p: int) -> List[int]:
    out = [c % p for c in a]
    while out and not out[-1]:
        out.pop()
    return out


def _zp_mul(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """The product over Z, unreduced and untrimmed."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] += c * d
    return out


def _zp_divisor(b: Sequence[int], p: int) -> List[int]:
    b = _zp_reduce(b, p)
    if not b:
        raise DivisionByZero("polynomial division by zero")
    return b


def _zp_divmod(a: Sequence[int], b: Sequence[int], p: int) -> Tuple[List[int], List[int]]:
    """Quotient and remainder over F_p; b reduced and trimmed, a any ints."""
    db = len(b) - 1
    if len(a) <= db:
        return [], _zp_reduce(a, p)
    rem = list(a)
    linv = pow(b[-1], -1, p)
    quo = [0] * (len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i] * linv % p
        if c:
            quo[i - db] = c
            off = i - db
            for j in range(db):
                rem[off + j] -= c * b[j]
    while quo and not quo[-1]:
        quo.pop()
    return quo, _zp_reduce(rem[:db], p)


# --- polynomials over a Field: lists of elements, ascending, trimmed ---


def ptrim(K: Field, a: List) -> List:
    while a and K.is_zero(a[-1]):
        a.pop()
    return a


def padd(K: Field, a: Sequence, b: Sequence) -> List:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = K.add(out[i], c)
    return ptrim(K, out)


def pneg(K: Field, a: Sequence) -> List:
    return [K.neg(c) for c in a]


def psub(K: Field, a: Sequence, b: Sequence) -> List:
    return padd(K, a, pneg(K, b))


def pscale(K: Field, c, a: Sequence) -> List:
    return ptrim(K, [K.mul(c, x) for x in a])


def pmul(K: Field, a: Sequence, b: Sequence) -> List:
    if K.level == 0:
        return _zp_reduce(_zp_mul(a, b), K.p)
    if not a or not b:
        return []
    out = [K.zero] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if K.is_zero(c):
            continue
        for j, d in enumerate(b):
            out[i + j] = K.add(out[i + j], K.mul(c, d))
    return ptrim(K, out)


def pdivmod(K: Field, a: Sequence, b: Sequence) -> Tuple[List, List]:
    if K.level == 0:
        return _zp_divmod(a, _zp_divisor(b, K.p), K.p)
    if not b:
        raise DivisionByZero("polynomial division by zero")
    rem = list(a)
    db = len(b) - 1
    if len(rem) - 1 < db:
        return [], ptrim(K, rem)
    linv = K.inv(b[-1])
    quo = [K.zero] * (len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        c = K.mul(rem[i], linv)
        if K.is_zero(c):
            continue
        quo[i - db] = c
        for j in range(db + 1):
            rem[i - db + j] = K.sub(rem[i - db + j], K.mul(c, b[j]))
    return ptrim(K, quo), ptrim(K, rem)


def pmod(K: Field, a: Sequence, b: Sequence) -> List:
    return pdivmod(K, a, b)[1]


def pmonic(K: Field, a: Sequence) -> List:
    if not a:
        return []
    if a[-1] == K.one:
        return list(a)
    return pscale(K, K.inv(a[-1]), a)


def pgcd(K: Field, a: Sequence, b: Sequence) -> List:
    a, b = list(a), list(b)
    while b:
        a, b = b, pmod(K, a, b)
    return pmonic(K, a)


def ppowmod(K: Field, a: Sequence, n: int, m: Sequence) -> List:
    if n < 0:
        raise InputError(f"ppowmod needs an exponent >= 0, got {n}")
    out = [K.one]
    base = pmod(K, a, m)
    while n:
        if n & 1:
            out = pmod(K, pmul(K, out, base), m)
        n >>= 1
        if n:
            base = pmod(K, pmul(K, base, base), m)
    return out


def pderiv(K: Field, a: Sequence) -> List:
    return ptrim(K, [K.mul(K.from_int(i), a[i]) for i in range(1, len(a))])


def pkey(K: Field, a: Sequence) -> Tuple:
    return (len(a), tuple(K.key(c) for c in a))


def pth_root(K: Field, f: Sequence) -> List:
    """Inverse Frobenius on a polynomial of the form g(y^p)."""
    p = K.p
    root_exp = K.q // p
    out = []
    for i, c in enumerate(f):
        if i % p == 0:
            out.append(K.pow(c, root_exp))
        elif not K.is_zero(c):
            raise NotInvertible("not a polynomial in y^p")
    return ptrim(K, out)


def squarefree_parts(K: Field, f: Sequence) -> List[Tuple[List, int]]:
    """Split monic f into coprime squarefree parts: f = prod g^m, m distinct."""
    parts = []
    e = 1
    f = list(f)
    while len(f) > 1:
        df = pderiv(K, f)
        if not df:
            f = pth_root(K, f)
            e *= K.p
            continue
        c = pgcd(K, f, df)
        w = pdivmod(K, f, c)[0]
        i = 1
        while len(w) > 1:
            y = pgcd(K, w, c)
            z = pdivmod(K, w, y)[0]
            if len(z) > 1:
                parts.append((z, i * e))
            w = y
            c = pdivmod(K, c, y)[0]
            i += 1
        f = c
    parts.sort(key=lambda gm: gm[1])
    return parts


def distinct_degree_parts(K: Field, f: Sequence) -> List[Tuple[List, int]]:
    """Split monic squarefree f into products of irreducibles per degree."""
    out = []
    x = [K.zero, K.one]
    f = list(f)
    h = pmod(K, x, f)
    d = 0
    while 2 * (d + 1) <= len(f) - 1:
        d += 1
        h = ppowmod(K, h, K.q, f)
        g = pgcd(K, psub(K, h, x), f)
        if len(g) > 1:
            out.append((g, d))
            f = pdivmod(K, f, g)[0]
            h = pmod(K, h, f)
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _random_split(K: Field, g: Sequence, d: int, rng: random.Random) -> List:
    n = len(g) - 1
    t = ptrim(K, [K.rand(rng) for _ in range(n)])
    if not t:
        return []
    c = pgcd(K, t, g)
    if 1 < len(c) < len(g):
        return c
    if K.q % 2 == 1:
        s = ppowmod(K, t, (K.q ** d - 1) // 2, g)
        c = pgcd(K, psub(K, s, [K.one]), g)
    else:
        # char 2: additive trace down to F_2 separates the factors
        rounds = _log(K.q, 2) * d
        u = pmod(K, t, g)
        s = list(u)
        for _ in range(rounds - 1):
            u = pmod(K, pmul(K, u, u), g)
            s = padd(K, s, u)
        c = pgcd(K, s, g)
    if 1 < len(c) < len(g):
        return c
    return []


def equal_degree_factors(
    K: Field, f: Sequence, d: int, rng: random.Random
) -> List[List]:
    """Split monic f, a product of distinct irreducibles of degree d."""
    done = []
    work = [list(f)]
    while work:
        g = work.pop()
        if len(g) - 1 == d:
            done.append(g)
            continue
        c = []
        while not c:
            c = _random_split(K, g, d, rng)
        work.append(c)
        work.append(pdivmod(K, g, c)[0])
    return done


def factor(
    K: Field, f: Sequence, rng: Optional[random.Random] = None
) -> List[Tuple[List, int]]:
    """Factor nonzero f into monic irreducibles, sorted by (degree, key)."""
    if rng is None:
        rng = random.Random(1299709)
    f = pmonic(K, ptrim(K, list(f)))
    if not f:
        raise DivisionByZero("factoring the zero polynomial")
    out = []
    for g, m in squarefree_parts(K, f):
        for h, d in distinct_degree_parts(K, g):
            for irr in equal_degree_factors(K, h, d, rng):
                out.append((irr, m))
    out.sort(key=lambda fm: pkey(K, fm[0]))
    return out
