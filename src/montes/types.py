"""Branch invariants: valuation levels, residual coefficients, lifts, and
the valuation of a polynomial at a finished prime.

A type of order r carries r committed levels.  Level i holds a monic
polynomial phi_i, a slope -h_i/e_i, and a monic irreducible psi_i over the
residue field F_i; it determines the next valuation v_{i+1}, the next residue
field F_{i+1} = F_i[y]/(psi_i), and the twist unit used to read residual
coefficients off Newton polygons one order up.  On top of the committed
levels sits a pending representative phi of degree m_{r+1}, the modulus for
the next polygon; refinement swaps it for a better one of the same degree,
extension commits it as level r+1.

One recursion reads a polynomial at an order: v expands it once along the
level's modulus and returns its value together with the terms that attain
it, the points on the line of slope -h/e, each with its own reading one
order down.  cval reads the residual value off those terms, and
newton_data keeps the reading of every coefficient next to the polygon, so
nothing is expanded twice.  Residual coefficients are split into an
intrinsic part and a twist: the coefficient attached to abscissa j of a
polygon at order R is w_R^j times a value depending only on the expansion
coefficient itself.  The twist exponents are integers because e_{R-1}
divides V_R.

value_at_prime reads the value of P(theta) at a finished prime with the same
v, one order up, so the index, the discriminant and the generators share
one route.

Every reader expands only the digits that can reach what it reads, so the
work of a branch follows its multiplicity, not deg f.  phi_expand yields
one digit per division, and v stops once no later digit can reach its
least term: the term of digit j is at least j*(e*V + h).  The splitting
loop reads the digits 0..mult of f: the principal part of the polygon of a
branch of multiplicity mult ends at abscissa mult (the loop checks its
width), every later point lies on or above the hull there, and so the
sides, the index region and the residuals are those of the whole
expansion.  contact reads the digits 0 and 1, where the one side of a
complete branch lies.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import InvariantViolation, UnliftableTarget, ZeroAtTheta
from .ffield import Field, _zp_divmod
from .polygon import principal_sides
from .zpoly import IntPolynomial, phi_expand, vpoly

# v_R(P) with the terms that attain it, as Type.v returns them
Reading = Tuple[int, object]


class Level:
    """Committed level: (phi, -h/e, psi) plus the derived order data.

    fld is the residue field ABOVE this level; up_V and up_w are the modulus
    value and twist unit of the polygon machinery one order up, fixed as soon
    as the level is committed.
    """

    __slots__ = ("phi", "h", "e", "ell", "psi", "f", "V", "fld", "up_V", "up_w")

    def __init__(
        self,
        phi: IntPolynomial,
        h: int,
        e: int,
        psi: Sequence,
        V: int,
        below: Field,
    ):
        self.phi = phi
        self.h = h
        self.e = e
        self.ell = pow(h, -1, e) if e > 1 else 0
        self.psi = [c for c in psi]
        self.f = len(self.psi) - 1
        self.V = V
        self.fld = below.extend(self.psi)
        self.up_V = e * self.f * (e * V + h)
        if (self.ell * self.up_V) % e != 0:
            raise InvariantViolation("twist exponent is not integral")
        self.up_w = self.fld.pow(self.fld.y, -(self.ell * self.up_V) // e)


class Type:
    """A branch of the splitting tree: committed levels plus a pending modulus.

    mult is the residual multiplicity the branch still has to resolve (1 means
    the branch pins down a single prime).  cut_h bounds the slopes of interest
    in the next polygon: only sides steeper than -cut_h carry new information.
    The pending modulus of an extension is built on its first read.
    """

    __slots__ = ("p", "F1", "levels", "_phi", "cut_h", "mult")

    def __init__(
        self,
        p: int,
        F1: Field,
        levels: Tuple[Level, ...],
        phi: Optional[IntPolynomial],
        cut_h: int,
        mult: int,
    ):
        self.p = p
        self.F1 = F1
        self.levels = levels
        self._phi = phi
        self.cut_h = cut_h
        self.mult = mult

    @classmethod
    def order_zero(cls, p: int, psi0: Sequence, mult: int) -> "Type":
        """Start a branch from an irreducible factor psi0 of f mod p."""
        F0 = Field(p)
        F1 = F0.extend(psi0)
        phi1 = IntPolynomial([int(c) for c in psi0])
        return cls(p, F1, (), phi1, 0, mult)

    @property
    def phi(self) -> IntPolynomial:
        if self._phi is None:
            lvl = self.levels[-1]
            parent = Type(self.p, self.F1, self.levels[:-1], lvl.phi, 0, self.mult)
            self._phi = parent.representative(lvl.h, lvl.e, lvl.psi)
        return self._phi

    @property
    def order(self) -> int:
        return len(self.levels)

    @property
    def e_prod(self) -> int:
        out = 1
        for lvl in self.levels:
            out *= lvl.e
        return out

    @property
    def f_prod(self) -> int:
        return self.order_data(self.order + 1)[0].D

    def order_data(self, R: int) -> Tuple[Field, object, int]:
        """(F_R, w_R, V_R) for 1 <= R <= order + 1."""
        if R == 1:
            return self.F1, self.F1.one, 0
        lvl = self.levels[R - 2]
        return lvl.fld, lvl.up_w, lvl.up_V

    # --- valuations and residual values ---

    def v(self, P: IntPolynomial, R: int) -> Reading:
        """The reading of nonzero P at order R: v_R(P) and the terms attaining it.

        At R = 1 the terms are the coefficients of P.  Above, they are the
        pairs (j, reading of a_j at R - 1) for the coefficients a_j of the
        phi-adic expansion of P on the line of slope -h/e through v_R(P).
        The term of digit j is at least j*step, step = e*V + h, so the
        expansion stops once (j + 1)*step passes the least term so far: no
        later digit can attain or tie it.
        """
        if P.is_zero:
            raise InvariantViolation("valuation of zero")
        if R == 1:
            return vpoly(P, self.p), P.coeffs
        lvl = self.levels[R - 2]
        step, pts = lvl.e * lvl.V + lvl.h, []
        for j, a in enumerate(phi_expand(P, lvl.phi)):
            if not a.is_zero:
                r = self.v(a, R - 1)
                pts.append((lvl.e * r[0] + j * step, j, r))
            if pts and (j + 1) * step > min(pts)[0]:
                break
        u = min(pts)[0]
        return u, [(j, r) for val, j, r in pts if val == u]

    def cval(self, reading: Reading, R: int):
        """Intrinsic residual value in F_R of a reading that v returned."""
        u, terms = reading
        if R == 1:
            q = self.p ** u
            return self.F1.embed([(c // q) % self.p for c in terms])
        lvl = self.levels[R - 2]
        s = terms[0][0]
        if (s - lvl.ell * u) % lvl.e != 0:
            raise InvariantViolation("component abscissa off the residue class")
        cs = [self.order_data(R - 1)[0].zero] * lvl.f
        for j, r in terms:
            cs[(j - s) // lvl.e] = self._twisted(j, r, R - 1)
        fld = lvl.fld
        return fld.mul(fld.pow(fld.y, (s - lvl.ell * u) // lvl.e), fld.embed(cs))

    def _twisted(self, j: int, reading: Reading, R: int):
        """w_R^j times the residual value: the coefficient at abscissa j."""
        fld, w, _ = self.order_data(R)
        return fld.mul(fld.pow(w, j), self.cval(reading, R))

    # --- the working polygon ---

    def newton_data(
        self, P: IntPolynomial, top: Optional[int] = None
    ) -> Tuple[Dict[int, Reading], Dict[int, int]]:
        """Readings of the coefficients a_0, ..., a_top of P along the pending
        modulus (all of them without top), by abscissa, and the polygon
        ordinates they give."""
        W = self.order + 1
        _, _, VW = self.order_data(W)
        readings: Dict[int, Reading] = {}
        cloud: Dict[int, int] = {}
        digits = None if top is None else top + 1
        for j, a in enumerate(islice(phi_expand(P, self.phi), digits)):
            if not a.is_zero:
                readings[j] = r = self.v(a, W)
                cloud[j] = r[0] + j * VW
        return readings, cloud

    def residual_on_side(self, side, readings: Dict[int, Reading], cloud: Dict[int, int]) -> List:
        """Residual polynomial of the side, a list over the working field."""
        W = self.order + 1
        fld = self.order_data(W)[0]
        out = []
        for k in range(side.steps + 1):
            j = side.x0 + k * side.e
            u = cloud.get(j)
            if u is None or side.e * (u - side.y0) != -side.h * (j - side.x0):
                out.append(fld.zero)
            else:
                out.append(self._twisted(j, readings[j], W))
        if not out[0] or not out[-1]:
            raise InvariantViolation("side residual lost a vertex coefficient")
        return out

    # --- lifting residual data back to integer polynomials ---

    def lift(self, rho, u: int, R: int) -> IntPolynomial:
        """A polynomial Q, deg Q < m_R, whose reading at R has value u and
        residual value rho."""
        if u < 0:
            raise UnliftableTarget("negative target value")
        if R == 1:
            if not rho:
                raise UnliftableTarget("zero residual target")
            return IntPolynomial(self.F1.coords(rho)) * self.p ** u
        lvl = self.levels[R - 2]
        below, w_below, _ = self.order_data(R - 1)
        fld = lvl.fld
        s = (lvl.ell * u) % lvl.e
        t = (s - lvl.ell * u) // lvl.e
        eta = fld.mul(fld.pow(fld.y, -t), rho)
        Q = IntPolynomial([])
        for j, etaj in enumerate(fld.coords(eta)):
            if not etaj:
                continue
            jj = s + j * lvl.e
            u_jj = (u - lvl.h * jj) // lvl.e
            target_v = u_jj - jj * lvl.V
            if (u - lvl.h * jj) % lvl.e != 0 or target_v < 0:
                raise UnliftableTarget("component value below zero")
            target_c = below.mul(below.pow(w_below, -jj), etaj)
            b = self.lift(target_c, target_v, R - 1)
            Q = Q + b * lvl.phi ** jj
        if Q.is_zero:
            raise UnliftableTarget("zero residual target")
        return Q

    def lift_simple(self, u: int, R: int) -> IntPolynomial:
        """Lift of the canonical unit target at value u."""
        fld, _, _ = self.order_data(R)
        if R == 1:
            return self.lift(fld.one, u, R)
        lvl = self.levels[R - 2]
        s = (lvl.ell * u) % lvl.e
        t = (s - lvl.ell * u) // lvl.e
        return self.lift(fld.pow(fld.y, t), u, R)

    # --- representatives ---

    def representative(self, h: int, e: int, psi: Sequence) -> IntPolynomial:
        """Monic modulus of degree m*e*deg(psi) whose side residual is psi.

        psi is monic over the working field with nonzero constant term.
        """
        W = self.order + 1
        fld, w, VW = self.order_data(W)
        fpsi = len(psi) - 1
        if fpsi < 1 or psi[-1] != fld.one:
            raise InvariantViolation("residual factor must be monic nonconstant")
        if not psi[0]:
            raise InvariantViolation("residual factor with root zero")
        out = self.phi ** (e * fpsi)
        for j in range(fpsi):
            bj = psi[j]
            if not bj:
                continue
            rho = fld.mul(fld.pow(w, e * (fpsi - j)), bj)
            Q = self.lift(rho, (fpsi - j) * (e * VW + h), W)
            out = out + Q * self.phi ** (j * e)
        return out

    # --- branch moves ---

    def refined(self, h: int, psi: Sequence, mult: int) -> "Type":
        """Same-order branch with a better modulus of the same degree."""
        new_phi = self.representative(h, 1, psi)
        if new_phi.degree != self.phi.degree:
            raise InvariantViolation("refinement changed the modulus degree")
        return Type(self.p, self.F1, self.levels, new_phi, h, mult)

    def extended(self, h: int, e: int, psi: Sequence, mult: int) -> "Type":
        """Commit the pending modulus as a level; the next one is built lazily."""
        below, _, VW = self.order_data(self.order + 1)
        lvl = Level(self.phi, h, e, psi, VW, below)
        return Type(self.p, self.F1, self.levels + (lvl,), None, 0, mult)


# --- the value of a polynomial at a finished prime ---


def contact(tipo: Type, f: IntPolynomial) -> Optional[Tuple[int, object]]:
    """(H, c) with H the height of the polygon of f along the pending modulus
    and y + c its residual polynomial made monic, or None when the modulus
    divides f.

    Along the pending modulus phi of a complete branch the polygon is one
    side of width one, and H is the contact: v(phi(theta)) = V + H.  That
    side ends at abscissa 1, so only the digits 0 and 1 of f are read.
    """
    readings, cloud = tipo.newton_data(f, 1)
    if 0 not in cloud:
        return None
    sides = principal_sides(sorted(cloud.items()))
    if not sides:
        raise InvariantViolation("polygon of f does not fall from abscissa 0 to 1")
    res = tipo.residual_on_side(sides[0], readings, cloud)
    fld = tipo.order_data(tipo.order + 1)[0]
    return sides[0].height, fld.mul(res[0], fld.inv(res[1]))


def complete_branch(record, f: IntPolynomial, p: int) -> Tuple[Type, Optional[Tuple[int, object]]]:
    """The record's complete branch with its contact, read once per record.

    A prime that the Dedekind shortcut finished gets its branch built from
    its modulus here.  For e > 1 the polygon along phi is one side from
    (0, 1) to (e, 0); its residual root is the criterion's digit over the
    e-th phi-adic digit of f mod p, with no twist at order one.
    """
    if record.complete is not None:
        return record.complete
    if record.kind != "dedekind":
        T = record.tipo
    else:
        e, phi = record.e, record.dede_phi.coeffs
        T = Type.order_zero(p, phi, e)
        if e > 1:
            g, F1 = [c % p for c in f.coeffs], T.F1
            for j in range(e + 1):
                g, r = _zp_divmod(g, phi, p)
                if bool(r) != (j == e):
                    raise InvariantViolation("shortcut record with an unexpected polygon")
            c = F1.mul(F1.embed(record.dede_digit), F1.inv(F1.embed(r)))
            T = T.extended(1, e, [c, F1.one], 1)
    record.complete = T, contact(T, f)
    return record.complete


def value_at_prime(record, P: IntPolynomial, f: IntPolynomial, p: int) -> int:
    """Exact valuation of P(theta) at the record's prime, with v(p) = e.

    Along a complete branch with contact (H, c), v one order up, on the side
    of slope -H with residual polynomial y + c, gives every digit of P its
    exact value, so its least term is the answer when it is attained once.
    A tie could hide cancellation, so the modulus is refined along that
    side, raising its own value by at least one per round, until the
    minimum separates; f is expanded once per modulus, by contact.

    A tie lasts for ever only if P vanishes on the prime's component:
    otherwise theta is a root of g = f/gcd(f, P), and f_P*v(P(theta)) <=
    v_p(Res(g, P)), where Hadamard's and Mignotte's bounds give
    2*log2|Res(g, P)| < deg P*(2n + bitlen|f|^2) + n*bitlen|P|^2.
    """
    if P.is_zero:
        raise ZeroAtTheta("the zero polynomial has no valuation")
    T, touch = record.value_type or complete_branch(record, f, p)
    n, prev_h = f.degree, 0
    while True:
        W = T.order + 1
        if touch is None:
            # the modulus is the exact component factor; only j = 0 survives
            record.value_type = T, touch
            a = next(phi_expand(P, T.phi))
            if a.is_zero:
                raise ZeroAtTheta("vanishes identically on the prime's component")
            return T.v(a, W)[0]
        H, c = touch
        one = T.order_data(W)[0].one
        best, terms = T.extended(H, 1, [c, one], 1).v(P, W + 1)
        if len(terms) == 1:
            record.value_type = T, touch
            return best
        f2, P2 = (sum(x * x for x in g.coeffs).bit_length() for g in (f, P))
        if 2 * record.f * best * (p.bit_length() - 1) >= P.degree * (2 * n + f2) + n * P2:
            raise ZeroAtTheta("vanishes on the prime's component")
        if H <= prev_h:
            raise InvariantViolation("refinement failed to raise the contact")
        prev_h = H
        T = T.refined(H, [c, one], 1)
        touch = contact(T, f)
