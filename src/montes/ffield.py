"""Residue fields F_q and univariate polynomial factorization over them.

Every field is one absolute field F_p[z]/(M) of degree D over F_p; the prime
field has M = z.  extend(psi) builds F[y]/(psi): with modulus psi itself when
D = 1, and otherwise with the minimal polynomial of theta = y + t*z, found by
linear algebra over F_p for the first t = 0, 1, 2, ... (the multiples c*z
come first) for which theta has full degree.  The field keeps the matrices
between the basis of powers of theta and the tower basis z^i y^j.

An element is an int: the residue itself when D = 1, so that the prime field
and the degree-1 levels share one path, and otherwise its D coordinates in
slots of bits(p) + 1 bits, lowest power lowest, so that add and sub are a few
big-int operations.  mul is one kernel product and one reduction mod M, inv
one Euclid over F_p; nothing recurses into the level below.

embed(cs) maps coordinates c_j over the subfield to sum c_j y^j, and
coords(a) is its inverse.  key(a) is the nested tuple of coordinates, level
by level, and rand draws each level's coordinates from the level below, so
the order of factor()'s output and the rng stream that random towers and the
equal-degree split consume are those of the tower basis, whatever theta is.
Polynomials are lists of elements, ascending, trimmed.

pmul and pdivmod run on a private kernel over int lists that reduces lazily:
`% p` is taken once per coefficient, when division reads a leading
coefficient and when a result is returned, so when D = 1 they, pmod and
ppowmod also accept unreduced or negative ints.  When D > 1 a polynomial is
spread into one int list with 2D - 1 slots per coefficient: one kernel
product gives every coefficient of a product, each reduced mod M once.

The kernel product _fp_mul serves pmul and Field.mul.  When the shorter
factor has _KRONECKER coefficients or more it multiplies by Kronecker
substitution: each factor, reduced mod p, goes into one int with one array
item of 8, 16, 32 or 64 bits per coefficient, wide enough for a sum of n
products (p - 1)^2 for n the shorter length, and one big-int product,
unpacked, gives every coefficient.  Below that length, or past 64 bits, a
schoolbook loop serves.  Powers modulo a fixed m over F_p of degree
_BARRETT or more (ppowmod, the Frobenius steps of the distinct-degree split
and the char-2 trace) reduce each product by Barrett: mu = x^(2d-2) div m is
built once per modulus by Newton iteration, and a reduction is then two
kernel products (von zur Gathen and Gerhard, Modern Computer Algebra,
section 9.1).  In timings of fixed operands the packed product overtook the
loop at 5 to 8 coefficients, and Barrett overtook division at degree 12 to
16 for p = 13 and 97 but only near 32 for p = 2 and 3.  Polynomials over Z
(zpoly, idealgen) keep the schoolbook _zp_mul: a Kronecker product sizes
every slot by the widest coefficient, and their coefficients vary widely in
size.

_power is the package's one powering loop: Field.pow, ppowmod, the
Frobenius steps, IntPolynomial powers and the generators' powers all pass it
their product.  It runs left to right from the top bit of the exponent, so
it never multiplies by 1 and never squares past the top bit, a squaring that
would be the largest product of the power.
"""

from __future__ import annotations

import random
import sys
from array import array
from itertools import zip_longest
from typing import List, Optional, Sequence, Tuple

from .errors import InvariantViolation

_KRONECKER = 8  # the shorter factor's length from which _fp_mul packs
_BARRETT = 16  # the modulus degree from which ppowmod reduces by Barrett
_BIG_ENDIAN = sys.byteorder == "big"


class Field:
    """F_p or a simple extension of another Field, over one absolute basis."""

    __slots__ = ("p", "level", "subfield", "deg", "D", "q", "M", "w", "W", "zero",
                 "one", "y", "_to", "_from", "_ps", "_lift", "_high")

    def __init__(self, p: int, subfield: Optional["Field"] = None, M=(0, 1), deg: int = 1):
        self.p, self.subfield, self.deg, self.M = p, subfield, deg, list(M)
        self.level = 0 if subfield is None else subfield.level + 1
        self.D, self.q = len(self.M) - 1, p ** (len(self.M) - 1)
        self.zero, self.one = 0, 1 % p
        self.w = w = p.bit_length() + 1
        self.W = (self.D * p * p).bit_length()  # a sum of D products, unreduced
        # p, 2^(w-1) - p and 2^(w-1) in every slot, for add and sub
        self._ps, self._lift, self._high = (
            _pack([c] * self.D, w) for c in (p, (1 << (w - 1)) - p, 1 << (w - 1))
        )
        self._to = self._from = None  # the identity change of basis
        self.y = 0

    def extend(self, psi: Sequence) -> "Field":
        """Return self[y]/(psi) for monic psi of degree >= 1 over self.

        Irreducibility is the caller's responsibility; the main pipeline only
        extends by factors it produced itself.
        """
        psi = ptrim(self, list(psi))
        if len(psi) < 2 or psi[-1] != self.one:
            raise InvariantViolation("extension modulus must be monic of degree >= 1")
        d = len(psi) - 1
        ext = Field(self.p, self, psi, d) if self.D == 1 else self._primitive(psi, d)
        ext.y = ext.embed([0, 1] if d > 1 else [self.neg(psi[0])])
        return ext

    def _primitive(self, psi: List, d: int) -> "Field":
        # theta = y + t*z, t running through the elements with the base-p
        # digits of c = 0, 1, 2, ... as coordinates (t = c for c < p)
        p, w, D = self.p, self.w, self.D * d
        for c in range(self.q):
            t, n, s = 0, c, 0
            while n:
                t, n, s = t | (n % p) << s, n // p, s + w
            theta = pmod(self, [self.mul(t, 1 << w), self.one], psi)
            cols, power = [], [self.one]
            for _ in range(D + 1):
                cols.append(_unpack(_pack(power, w * self.D), w, D))
                power = pmod(self, pmul(self, power, theta), psi)
            inv = _inverse([list(row) for row in zip(*cols[:D])], p)
            if inv is not None:
                break
        else:
            raise InvariantViolation("no primitive element y + t*z")
        top = [sum(a * b for a, b in zip(row, cols[D])) % p for row in inv]
        ext = Field(p, self, [-c % p for c in top] + [1], d)
        ext._to = [_pack(col, ext.W) for col in cols[:D]]
        ext._from = [_pack(col, ext.W) for col in zip(*inv)]
        return ext

    def _apply(self, cols: List[int], x: int) -> int:
        """The matrix with columns cols, packed wide, times the vector x."""
        acc = 0
        for c, col in zip(_unpack(x, self.w), cols):
            if c:
                acc += c * col
        return _pack([c % self.p for c in _unpack(acc, self.W, self.D)], self.w)

    def embed(self, cs: Sequence):
        """The element sum c_j y^j for coordinates c_j over the subfield."""
        x = _pack(cs, self.w * self.subfield.D)
        return x if self._from is None else self._apply(self._from, x)

    def coords(self, a) -> List:
        """The d coordinates of a over the subfield: embed's inverse."""
        x = a if self._to is None else self._apply(self._to, a)
        return _unpack(x, self.w * self.subfield.D, self.deg)

    def add(self, a, b):
        return self._fold(a + b)

    def neg(self, a):
        return self.sub(0, a)

    def sub(self, a, b):
        return self._fold(a + self._ps - b)

    def _fold(self, s: int) -> int:
        # every slot of s is below 2p: subtract p from the slots at p or above
        return s - (((s + self._lift) & self._high) >> (self.w - 1)) * self.p

    def _reduce(self, x: Sequence[int]) -> int:
        """The element with the coordinates x, unreduced, of any length."""
        return _pack(_zp_divmod(x, self.M, self.p)[1], self.w)

    def mul(self, a, b):
        if self.D == 1:
            return a * b % self.p
        return self._reduce(_fp_mul(_unpack(a, self.w), _unpack(b, self.w), self.p))

    def inv(self, a):
        if not a:
            raise InvariantViolation("inverse of zero")
        p = self.p
        if self.D == 1:
            return pow(a, -1, p)
        r0, s0, r1, s1 = _unpack(a, self.w), [1], self.M, []
        while r1:
            quo, rem = _zp_divmod(r0, r1, p)
            s = zip_longest(s0, _zp_mul(quo, s1), fillvalue=0)
            r0, s0, r1, s1 = r1, s1, rem, _zp_reduce([x - y for x, y in s], p)
        if len(r0) != 1:
            raise InvariantViolation("element shares a factor with the modulus")
        scale = pow(r0[0], -1, p)
        return self._reduce([c * scale for c in s0])

    def pow(self, a, n: int):
        if n < 0:
            return self.pow(self.inv(a), -n)
        if self.D == 1:
            return pow(a, n, self.p)
        return _power(a, n, self.mul) if n else self.one

    def rand(self, rng: random.Random):
        if self.level == 0:
            return rng.randrange(self.p)
        return self.embed([self.subfield.rand(rng) for _ in range(self.deg)])

    def key(self, a):
        """Total order key; nested tuples of ints, comparable within a field."""
        if self.level == 0:
            return a
        return tuple(self.subfield.key(c) for c in ptrim(self.subfield, self.coords(a)))

    def __repr__(self) -> str:
        return f"Field(p={self.p}, level={self.level}, q=p^{self.D})"


def _pack(cs: Sequence[int], w: int) -> int:
    out = 0
    for c in reversed(cs):
        out = (out << w) | c
    return out


def _unpack(a: int, w: int, n: Optional[int] = None) -> List[int]:
    """The n slots of w bits of a, lowest first; without n, up to the top one."""
    m = (1 << w) - 1
    return [(a >> s) & m for s in range(0, a.bit_length() if n is None else w * n, w)]


def _inverse(rows: List[List[int]], p: int) -> Optional[List[List[int]]]:
    """The inverse of a square matrix over F_p, or None when it is singular."""
    n = len(rows)
    aug = [row + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = pow(aug[col][col], -1, p)
        top = aug[col] = [x * inv % p for x in aug[col]]
        for r in range(n):
            c = aug[r][col]
            if r != col and c:
                aug[r] = [(x - c * y) % p for x, y in zip(aug[r], top)]
    return [row[n:] for row in aug]


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


def _fp_mul(a: Sequence[int], b: Sequence[int], p: int) -> List[int]:
    """The product over F_p as _zp_mul gives it: every coefficient
    congruent mod p, unreduced, untrimmed; a and b any ints."""
    n = min(len(a), len(b))
    code = _slot_code(p, n) if n >= _KRONECKER else None
    if code is None:
        return _zp_mul(a, b)
    x = _pack_slots(code, a, p)
    prod = x * x if a is b else x * _pack_slots(code, b, p)
    return _unpack_slots(code, prod, len(a) + len(b) - 1)


def _slot_code(p: int, n: int) -> Optional[str]:
    """The array typecode whose items hold a sum of n products of residues
    mod p, or None past 64 bits."""
    w = (n * (p - 1) ** 2).bit_length()
    return "B" if w <= 8 else "H" if w <= 16 else "I" if w <= 32 else "Q" if w <= 64 else None


def _pack_slots(code: str, a: Sequence[int], p: int) -> int:
    """The coefficients of a, reduced mod p, one array item each, as one int."""
    items = array(code, [c % p for c in a])
    if _BIG_ENDIAN:
        items.byteswap()
    return int.from_bytes(items, "little")


def _unpack_slots(code: str, x: int, n: int) -> List[int]:
    """The n lowest items of x, unreduced: _pack_slots's inverse."""
    items = array(code)
    size = items.itemsize * n
    items.frombytes((x & ((1 << 8 * size) - 1)).to_bytes(size, "little"))
    if _BIG_ENDIAN:
        items.byteswap()
    return items.tolist()


def _fp_reducer(m: List[int], p: int, code: str):
    """r -> r mod m over F_p for r of degree <= 2d - 2, by Barrett; d = deg m.

    m is reduced and trimmed, of degree d >= 2, and code's items hold a sum
    of d - 1 products.  With mu = x^(2d-2) div m, the quotient of r by m is
    (r div x^d) * mu div x^(d-2), exactly: a reduction is two products.  mu
    is the reverse of the inverse of rev(m) mod x^(d-1), which Newton
    iteration builds from 1 by doubling its precision.
    """
    d, scale = len(m) - 1, pow(m[-1], -1, p)
    low = [c * scale % p for c in m[:-1]]  # m made monic, its x^d term dropped
    rev, inv, n = [1] + low[::-1], [1], 1
    while n < d - 1:
        n = min(2 * n, d - 1)
        e = [-c for c in _fp_mul(rev[:n], inv, p)[:n]]  # 2 - rev * inv mod x^n
        e[0] += 2
        inv = _zp_reduce(_fp_mul(inv, e, p)[:n], p)
    mu = _pack_slots(code, (inv + [0] * (d - 1 - len(inv)))[::-1], p)
    low_packed, shift = _pack_slots(code, low, p), 8 * array(code).itemsize * (d - 2)

    def reduce(r: List[int]) -> List[int]:
        if len(r) <= d:
            return r
        q = _unpack_slots(code, _pack_slots(code, r[d:], p) * mu >> shift, d - 1)
        sub = _unpack_slots(code, _pack_slots(code, q, p) * low_packed, d)
        return _zp_reduce([c - s for c, s in zip(r, sub)], p)

    return reduce


def _zp_divisor(b: Sequence[int], p: int) -> List[int]:
    b = _zp_reduce(b, p)
    if not b:
        raise InvariantViolation("polynomial division by zero")
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


def _spread(K: Field, a: Sequence) -> List[int]:
    """The coordinates of a polynomial over K, 2D - 1 slots per coefficient."""
    return _unpack(_pack(a, K.w * (2 * K.D - 1)), K.w)


def _gather(K: Field, flat: List[int]) -> List:
    """The polynomial over K whose spread, unreduced, is flat."""
    S = 2 * K.D - 1
    return ptrim(K, [K._reduce(flat[i : i + S]) for i in range(0, len(flat), S)])


# --- polynomials over a Field: lists of elements, ascending, trimmed ---


def ptrim(K: Field, a: List) -> List:
    while a and not a[-1]:
        a.pop()
    return a


def padd(K: Field, a: Sequence, b: Sequence) -> List:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = K.add(out[i], c)
    return ptrim(K, out)


def psub(K: Field, a: Sequence, b: Sequence) -> List:
    return padd(K, a, [K.neg(c) for c in b])


def pmul(K: Field, a: Sequence, b: Sequence) -> List:
    if K.D == 1:
        return _zp_reduce(_fp_mul(a, b, K.p), K.p)
    return _gather(K, _fp_mul(_spread(K, a), _spread(K, b), K.p))


def pdivmod(K: Field, a: Sequence, b: Sequence) -> Tuple[List, List]:
    if K.D == 1:
        return _zp_divmod(a, _zp_divisor(b, K.p), K.p)
    b = ptrim(K, list(b))
    if not b:
        raise InvariantViolation("polynomial division by zero")
    db, S = len(b) - 1, 2 * K.D - 1
    if len(a) <= db:
        return [], ptrim(K, list(a))
    linv = K.inv(b[-1])
    rem, low = _spread(K, a), _spread(K, b[:db])
    rem += [0] * (len(a) * S - len(rem))
    quo = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = K.mul(K._reduce(rem[i * S : i * S + S]), linv)
        if c:
            quo[i - db] = c
            off = (i - db) * S
            for j, x in enumerate(_zp_mul(_unpack(c, K.w), low)):
                rem[off + j] -= x
    return ptrim(K, quo), _gather(K, rem[: db * S])


def pmod(K: Field, a: Sequence, b: Sequence) -> List:
    return pdivmod(K, a, b)[1]


def pmonic(K: Field, a: Sequence) -> List:
    if not a or a[-1] == K.one:
        return list(a)
    c = K.inv(a[-1])
    return ptrim(K, [K.mul(c, x) for x in a])


def pgcd(K: Field, a: Sequence, b: Sequence) -> List:
    a, b = list(a), list(b)
    while b:
        a, b = b, pmod(K, a, b)
    return pmonic(K, a)


def ppowmod(K: Field, a: Sequence, n: int, m: Sequence) -> List:
    if n < 0:
        raise InvariantViolation(f"ppowmod needs an exponent >= 0, got {n}")
    if n == 0:
        return pmod(K, [K.one], m)
    reduce = _reducer(K, m)
    return _power(pmod(K, a, m), n, lambda x, y: reduce(pmul(K, x, y)))


def _reducer(K: Field, m: Sequence):
    """r -> r mod m for products r of two polynomials reduced mod m."""
    if K.D == 1:
        m = _zp_divisor(m, K.p)
        code = _slot_code(K.p, len(m) - 2) if len(m) > _BARRETT else None
        if code is not None:
            return _fp_reducer(m, K.p, code)
    return lambda r: pmod(K, r, m)


def _power(base, n: int, mul):
    """base^n for n >= 1, with mul(x, y) the product: left to right from the
    top bit, so every product is a square or a product by base."""
    out = base
    for bit in bin(n)[3:]:
        out = mul(out, out)
        if bit == "1":
            out = mul(out, base)
    return out


def pkey(K: Field, a: Sequence) -> Tuple:
    return (len(a), tuple(K.key(c) for c in a))


def pth_root(K: Field, f: Sequence) -> List:
    """Inverse Frobenius on a polynomial of the form g(y^p)."""
    out = []
    for i, c in enumerate(f):
        if i % K.p == 0:
            out.append(K.pow(c, K.q // K.p))
        elif c:
            raise InvariantViolation("not a polynomial in y^p")
    return ptrim(K, out)


def squarefree_parts(K: Field, f: Sequence) -> List[Tuple[List, int]]:
    """Split monic f into coprime squarefree parts: f = prod g^m, m distinct."""
    parts, e, f = [], 1, list(f)
    while len(f) > 1:
        df = ptrim(K, [K.mul(i % K.p, f[i]) for i in range(1, len(f))])
        if not df:
            f = pth_root(K, f)
            e *= K.p
            continue
        c = pgcd(K, f, df)
        w, i = pdivmod(K, f, c)[0], 1
        while len(w) > 1:
            y = pgcd(K, w, c)
            z = pdivmod(K, w, y)[0]
            if len(z) > 1:
                parts.append((z, i * e))
            w, c, i = y, pdivmod(K, c, y)[0], i + 1
        f = c
    parts.sort(key=lambda gm: gm[1])
    return parts


def distinct_degree_parts(K: Field, f: Sequence) -> List[Tuple[List, int]]:
    """Split monic squarefree f into products of irreducibles per degree."""
    out, x, f, d = [], [K.zero, K.one], list(f), 0
    h, reduce = pmod(K, x, f), _reducer(K, f)
    while 2 * (d + 1) <= len(f) - 1:
        d += 1
        h = _power(h, K.q, lambda a, b: reduce(pmul(K, a, b)))
        g = pgcd(K, psub(K, h, x), f)
        if len(g) > 1:
            out.append((g, d))
            f = pdivmod(K, f, g)[0]
            h, reduce = pmod(K, h, f), _reducer(K, f)
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _random_split(K: Field, g: Sequence, d: int, rng: random.Random) -> List:
    t = ptrim(K, [K.rand(rng) for _ in range(len(g) - 1)])
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
        reduce = _reducer(K, g)
        s = u = pmod(K, t, g)
        for _ in range(K.D * d - 1):
            u = reduce(pmul(K, u, u))
            s = padd(K, s, u)
        c = pgcd(K, s, g)
    return c if 1 < len(c) < len(g) else []


def equal_degree_factors(K: Field, f: Sequence, d: int, rng: random.Random) -> List[List]:
    """Split monic f, a product of distinct irreducibles of degree d."""
    done, work = [], [list(f)]
    while work:
        g = work.pop()
        if len(g) - 1 == d:
            done.append(g)
            continue
        c = []
        while not c:
            c = _random_split(K, g, d, rng)
        work += [c, pdivmod(K, g, c)[0]]
    return done


def factor(K: Field, f: Sequence, rng: random.Random) -> List[Tuple[List, int]]:
    """Factor nonzero f into monic irreducibles, sorted by (degree, key)."""
    f = pmonic(K, ptrim(K, list(f)))
    if not f:
        raise InvariantViolation("factoring the zero polynomial")
    out = []
    for g, m in squarefree_parts(K, f):
        for h, d in distinct_degree_parts(K, g):
            for irr in equal_degree_factors(K, h, d, rng):
                out.append((irr, m))
    out.sort(key=lambda fm: pkey(K, fm[0]))
    return out
