"""Exact arithmetic for dense polynomials over Z.

Coefficients are arbitrary-precision Python ints, stored ascending (index i
holds the x^i coefficient) with trailing zeros trimmed, so the representation
of a polynomial is canonical and hashable.
"""

from .errors import InvariantViolation
from .ffield import Field, _power, _zp_divisor, _zp_divmod, _zp_mul, _zp_reduce, pgcd, ptrim


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
            raise InvariantViolation("zero polynomial has no leading coefficient")
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
            raise InvariantViolation("negative power of a polynomial")
        return _power(self, n, IntPolynomial.__mul__) if n else IntPolynomial((1,))

    def divmod_monic(self, phi):
        """Quotient and remainder by a monic divisor, exact over Z."""
        if not phi.is_monic:
            raise InvariantViolation("divisor must be monic")
        d = phi.degree
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
        raise InvariantViolation("p-adic valuation of 0 requested")
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
        raise InvariantViolation("v_1 of the zero polynomial requested")
    return min(pval(c, p) for c in f.coeffs if c)


def maximal_at(f, phi, p):
    """The digit (f mod phi)/p mod p, for monic phi whose reduction divides f
    mod p.  It is empty exactly when f mod phi vanishes mod p^2; otherwise
    Dedekind's criterion holds at phi, and v_p(f mod phi) = 1 is the first
    point of the order-1 polygon of f along phi.  Monic division commutes
    with reduction, so the remainder is taken mod p^2 throughout."""
    q = p * p
    return [r // p for r in _zp_divmod(_zp_reduce(f.coeffs, q), _zp_divisor(phi.coeffs, q), q)[1]]


def phi_expand(P, phi):
    """phi-adic expansion: the list [a_0, a_1, ...] with P = sum a_i phi^i and
    deg a_i < deg phi.  phi must be monic of degree >= 1."""
    if phi.degree < 1:
        raise InvariantViolation("expansion modulus must have degree >= 1")
    out = []
    cur = P
    while not cur.is_zero:
        cur, rem = cur.divmod_monic(phi)
        out.append(rem)
    if not out:
        out.append(IntPolynomial())
    return out


def is_squarefree(f):
    """True iff f has no repeated roots over Q.

    F = lc^(n-1) f(x/lc) is monic with the roots of f times lc, so F is
    squarefree iff f is, and the monic gcd G of F and F' lies in Z[x].  As F
    is monic, G mod q keeps its degree and divides g = gcd(F mod q, F' mod q)
    for every prime q.  Over q = 2, 3, 5, ...:
    - g = 1 certifies that F is squarefree, and on squarefree input a small
      prime nearly always gives it;
    - otherwise the g of least degree so far are joined by Chinese
      remaindering into a symmetric lift modulo their product, and once one
      more prime leaves the lift unchanged, a lift that divides both F and
      F' over Z certifies that F is not squarefree.
    This is the small-primes modular gcd of von zur Gathen and Gerhard
    (Modern Computer Algebra, chapter 6), stopped early.  Neither
    certificate needs a coefficient bound.  The loop ends because g = G mod
    q unless q divides the resultant of F/G and F'/G, a fixed nonzero
    integer; past its prime factors every lift is G modulo the product, and
    is G itself once the product passes twice the largest coefficient of G.
    So the work follows the size of G, not a bound on it.
    """
    if f.is_zero:
        raise InvariantViolation("squarefreeness of the zero polynomial")
    if f.degree <= 1:
        return True
    n, lc = f.degree, f.lc
    F = IntPolynomial([c * lc ** (n - 1 - i) for i, c in enumerate(f.coeffs[:-1])] + [1])
    dF = F.derivative()
    q, m, lift = 1, 1, None
    while True:
        q += 1
        if not is_prime(q):
            continue
        K = Field(q)
        g = pgcd(K, [c % q for c in F.coeffs], ptrim(K, [c % q for c in dF.coeffs]))
        if len(g) == 1:
            return True
        if lift is None or len(g) < len(lift):
            m, lift = 1, [0] * len(g)
        elif len(g) > len(lift):
            continue  # q divides the resultant: its g is too large
        t, mq = pow(m, -1, q), m * q
        new = [(a + m * ((b - a) * t % q)) % mq for a, b in zip(lift, g)]
        new = [c - mq if 2 * c > mq else c for c in new]
        if new == lift:
            G = IntPolynomial(lift)
            if F.divmod_monic(G)[1].is_zero and dF.divmod_monic(G)[1].is_zero:
                return False
        m, lift = mq, new


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
