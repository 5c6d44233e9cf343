"""Exact arithmetic for dense polynomials over Z.

Coefficients are arbitrary-precision Python ints, stored ascending (index i
holds the x^i coefficient) with trailing zeros trimmed, so the representation
of a polynomial is canonical and hashable.
"""

from math import gcd

from .errors import (
    DegreeTooSmall,
    DivisionByZero,
    NonMonicModulus,
    ZeroPolynomial,
)
from .ffield import Field, _power, _zp_mul, pgcd, ptrim


class IntPolynomial:
    """Immutable dense polynomial with int coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self):
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def lc(self):
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __setattr__(self, *a):
        raise AttributeError("IntPolynomial is immutable")

    def __eq__(self, other):
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __neg__(self):
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial(tuple(c * other for c in self.coeffs))
        return IntPolynomial(_zp_mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return _power(self, n, IntPolynomial.__mul__) if n else IntPolynomial((1,))

    def divmod_monic(self, phi):
        """Quotient and remainder by a monic divisor, exact over Z."""
        if not phi.is_monic:
            raise NonMonicModulus("divisor must be monic")
        d = phi.degree
        if d == 0:
            return self, IntPolynomial()
        rem = list(self.coeffs)
        if len(rem) <= d:
            return IntPolynomial(), self
        q = [0] * (len(rem) - d)
        pc = phi.coeffs
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i]
            if c:
                q[i - d] = c
                for j in range(d):
                    rem[i - d + j] -= c * pc[j]
                rem[i] = 0
        return IntPolynomial(q), IntPolynomial(rem[:d])

    def derivative(self):
        return IntPolynomial(tuple(i * c for i, c in enumerate(self.coeffs))[1:])

    def shift(self, c):
        """Return self(x + c)."""
        out = []
        for coeff in reversed(self.coeffs):
            # multiply accumulated polynomial by (x + c) and add coeff
            new = [coeff] + out
            for i in range(len(out)):
                new[i] += out[i] * c
            out = new
        return IntPolynomial(out)

    def __repr__(self):
        return f"IntPolynomial({list(self.coeffs)})"


X = IntPolynomial((0, 1))


def pval(n, p):
    """Multiplicity of the prime p in the nonzero integer n.

    Divides by p, p^2, p^4, ... while the division is exact, then descends
    through the same powers, so a valuation v costs O(log v) divisions.
    """
    if n == 0:
        raise ZeroPolynomial("p-adic valuation of 0 requested")
    if n % p:
        return 0
    n = abs(n)
    powers = [p]
    v = 0
    while True:
        q, r = divmod(n, powers[-1])
        if r:
            break
        n = q
        v += 1 << (len(powers) - 1)
        powers.append(powers[-1] * powers[-1])
    # what is left of v is below 2^(len(powers) - 1): take its binary digits
    for k in range(len(powers) - 2, -1, -1):
        q, r = divmod(n, powers[k])
        if not r:
            n = q
            v += 1 << k
    return v


def vpoly(f, p):
    """min over nonzero coefficients of their p-adic valuation (the order-one
    valuation v_1)."""
    if f.is_zero:
        raise ZeroPolynomial("v_1 of the zero polynomial requested")
    return min(pval(c, p) for c in f.coeffs if c)


def phi_expand(P, phi):
    """phi-adic expansion: the list [a_0, a_1, ...] with P = sum a_i phi^i and
    deg a_i < deg phi.  phi must be monic of degree >= 1."""
    if phi.degree < 1:
        raise DegreeTooSmall("expansion modulus must have degree >= 1")
    out = []
    cur = P
    while not cur.is_zero:
        cur, rem = cur.divmod_monic(phi)
        out.append(rem)
    if not out:
        out.append(IntPolynomial())
    return out


def content(f):
    """Positive gcd of the coefficients (0 for the zero polynomial)."""
    return gcd(*f.coeffs)


def primitive_part(f):
    c = content(f)
    if c in (0, 1):
        return f
    return IntPolynomial(tuple(v // c for v in f.coeffs))


def pseudo_divmod(A, B):
    """Pseudo division: lc(B)^(degA-degB+1) * A = Q*B + R with deg R < deg B."""
    if B.is_zero:
        raise DivisionByZero("pseudo division by zero")
    dA, dB = A.degree, B.degree
    if dA < dB:
        return IntPolynomial(), A
    b = B.lc
    rem = list(A.coeffs)
    q = [0] * (dA - dB + 1)
    for i in range(dA, dB - 1, -1):
        # scale everything below degree i so the cancellation stays integral
        c = rem[i]
        for j in range(i):
            rem[j] *= b
        for j in range(len(q)):
            q[j] *= b
        q[i - dB] = c
        for j in range(dB):
            rem[i - dB + j] -= c * B.coeffs[j]
        rem[i] = 0
    return IntPolynomial(q), IntPolynomial(rem[:dB])


def gcd_z(f, g):
    """Primitive gcd over Z via the primitive pseudo-remainder sequence.
    Adequate for small degrees; the squarefreeness screen avoids it on big
    inputs."""
    A, B = primitive_part(f), primitive_part(g)
    if A.is_zero:
        return B
    while not B.is_zero:
        _, R = pseudo_divmod(A, B)
        A, B = B, primitive_part(R)
    if A.is_zero:
        return A
    if A.lc < 0:
        A = -A
    c = gcd(content(f), content(g))
    return A * c if c > 1 else A


_SCREEN_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
)


def is_squarefree(f):
    """True iff f has no repeated roots over Q.

    A single prime q not dividing lc(f) with gcd(f mod q, f' mod q) = 1
    certifies squarefreeness: a repeated factor g of f keeps its degree mod
    q, and its reduction divides both.  A prime dividing lc(f) certifies
    nothing, because f mod q loses degree (and with it the repeated factor),
    so it is skipped.  Only when every screen prime fails do we fall back to
    an exact gcd over Z.
    """
    if f.is_zero:
        raise ZeroPolynomial("squarefreeness of the zero polynomial")
    if f.degree <= 1:
        return True
    df = f.derivative()
    for q in _SCREEN_PRIMES:
        if f.lc % q:
            K = Field(q)
            fq = [c % q for c in f.coeffs]
            dq = ptrim(K, [c % q for c in df.coeffs])
            if len(pgcd(K, fq, dq)) == 1:
                return True
    return gcd_z(f, df).degree == 0


# ---------------------------------------------------------------------------
# Primality (input validation for the CLI and driver).

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Miller-Rabin with fixed bases: deterministic below 3.3e24, and with
    error probability below 4^-12 beyond that."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
