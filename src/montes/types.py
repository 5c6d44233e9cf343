"""Branch invariants: valuation levels, residual coefficients, lifts.

A type of order r carries r committed levels.  Level i holds a monic
polynomial phi_i, a slope -h_i/e_i, and a monic irreducible psi_i over the
residue field F_i; it determines the next valuation v_{i+1}, the next residue
field F_{i+1} = F_i[y]/(psi_i), and the twist unit used to read residual
coefficients off Newton polygons one order up.  On top of the committed
levels sits a pending representative phi of degree m_{r+1}, the modulus for
the next polygon; refinement swaps it for a better one of the same degree,
extension commits it as level r+1.

Residual coefficients are split into an intrinsic part and a twist: the
coefficient attached to abscissa j of a polygon at order R is w_R^j times a
value depending only on the expansion coefficient itself.  The twist
exponents are integers because e_{R-1} divides V_R.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .errors import ForbiddenResidualY, InvariantViolation, UnliftableTarget
from .ffield import Field
from .polygon import Side
from .zpoly import IntPolynomial, phi_expand, vpoly


class Level:
    """Committed level: (phi, -h/e, psi) plus the derived order data.

    fld is the residue field ABOVE this level; up_V and up_w are the modulus
    value and twist unit of the polygon machinery one order up, fixed as soon
    as the level is committed.
    """

    __slots__ = ("phi", "h", "e", "ell", "ellp", "psi", "f", "V", "fld", "up_V", "up_w")

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
        self.ellp = (self.ell * h - 1) // e
        self.psi = [c for c in psi]
        self.f = len(self.psi) - 1
        self.V = V
        self.fld = below.extend(self.psi)
        self.up_V = e * self.f * (e * V + h)
        if (self.ell * self.up_V) % e != 0:
            raise InvariantViolation("twist exponent is not integral")
        self.up_w = self.fld.pow(self.fld.gen(), -(self.ell * self.up_V) // e)


class Type:
    """A branch of the splitting tree: committed levels plus a pending modulus.

    mult is the residual multiplicity the branch still has to resolve (1 means
    the branch pins down a single prime).  cut_h bounds the slopes of interest
    in the next polygon: only sides steeper than -cut_h carry new information.
    """

    __slots__ = ("p", "F1", "psi0", "levels", "phi", "cut_h", "mult")

    def __init__(
        self,
        p: int,
        F1: Field,
        psi0: Sequence,
        levels: Tuple[Level, ...],
        phi: Optional[IntPolynomial],
        cut_h: int,
        mult: int,
    ):
        self.p = p
        self.F1 = F1
        self.psi0 = psi0
        self.levels = levels
        self.phi = phi
        self.cut_h = cut_h
        self.mult = mult

    @classmethod
    def order_zero(cls, p: int, psi0: Sequence, mult: int) -> "Type":
        """Start a branch from an irreducible factor psi0 of f mod p."""
        F0 = Field(p)
        F1 = F0.extend(psi0)
        phi1 = IntPolynomial([int(c) for c in psi0])
        return cls(p, F1, psi0, (), phi1, 0, mult)

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

    # --- valuations ---

    def v(self, P: IntPolynomial, R: int) -> int:
        """v_R(P) for nonzero P."""
        if P.is_zero:
            raise InvariantViolation("valuation of zero")
        if R == 1:
            return vpoly(P, self.p)
        lvl = self.levels[R - 2]
        best = None
        for j, a in enumerate(phi_expand(P, lvl.phi)):
            if a.is_zero:
                continue
            val = lvl.e * (self.v(a, R - 1) + j * lvl.V) + lvl.h * j
            if best is None or val < best:
                best = val
        return best

    # --- residual coefficients ---

    def cval(self, a: IntPolynomial, R: int):
        """Intrinsic residual value of nonzero a (deg a < m_R) in F_R."""
        if R == 1:
            q = self.p ** vpoly(a, self.p)
            return self.F1.embed([(c // q) % self.p for c in a.coeffs])
        lvl = self.levels[R - 2]
        below, w_below, _ = self.order_data(R - 1)
        fld = lvl.fld
        pts: List[Tuple[int, int, IntPolynomial]] = []
        for j, aj in enumerate(phi_expand(a, lvl.phi)):
            if not aj.is_zero:
                pts.append((j, self.v(aj, R - 1) + j * lvl.V, aj))
        u = min(lvl.e * uj + lvl.h * j for j, uj, _ in pts)
        on_line = [(j, aj) for j, uj, aj in pts if lvl.e * uj + lvl.h * j == u]
        s = on_line[0][0]
        if (s - lvl.ell * u) % lvl.e != 0:
            raise InvariantViolation("component abscissa off the residue class")
        cs = [below.zero] * lvl.f
        for j, aj in on_line:
            cs[(j - s) // lvl.e] = below.mul(below.pow(w_below, j), self.cval(aj, R - 1))
        t = (s - lvl.ell * u) // lvl.e
        return fld.mul(fld.pow(fld.gen(), t), fld.embed(cs))

    # --- the working polygon ---

    def newton_data(
        self, P: IntPolynomial
    ) -> Tuple[List[IntPolynomial], Dict[int, int]]:
        """Expansion of P by the pending modulus and its polygon ordinates."""
        self.ensure_rep()
        W = self.order + 1
        _, _, VW = self.order_data(W)
        coeffs = phi_expand(P, self.phi)
        cloud: Dict[int, int] = {}
        for j, a in enumerate(coeffs):
            if not a.is_zero:
                cloud[j] = self.v(a, W) + j * VW
        return coeffs, cloud

    def residual_on_side(
        self, side: Side, coeffs: List[IntPolynomial], cloud: Dict[int, int]
    ) -> List:
        """Residual polynomial of the side, a list over the working field."""
        W = self.order + 1
        fld, w, _ = self.order_data(W)
        out = []
        for k in range(side.steps + 1):
            j = side.x0 + k * side.e
            u = cloud.get(j)
            if u is None or side.e * (u - side.y0) != -side.h * (j - side.x0):
                out.append(fld.zero)
                continue
            out.append(fld.mul(fld.pow(w, j), self.cval(coeffs[j], W)))
        if fld.is_zero(out[0]) or fld.is_zero(out[-1]):
            raise InvariantViolation("side residual lost a vertex coefficient")
        return out

    # --- lifting residual data back to integer polynomials ---

    def lift(self, rho, u: int, R: int) -> IntPolynomial:
        """A polynomial Q, deg Q < m_R, with v_R(Q) = u and cval_R(Q) = rho."""
        if u < 0:
            raise UnliftableTarget("negative target value")
        if R == 1:
            if self.F1.is_zero(rho):
                raise UnliftableTarget("zero residual target")
            return IntPolynomial(self.F1.coords(rho)) * self.p ** u
        lvl = self.levels[R - 2]
        below, w_below, _ = self.order_data(R - 1)
        fld = lvl.fld
        z = fld.gen()
        s = (lvl.ell * u) % lvl.e
        t = (s - lvl.ell * u) // lvl.e
        eta = fld.mul(fld.pow(z, -t), rho)
        Q = IntPolynomial([])
        for j, etaj in enumerate(fld.coords(eta)):
            if below.is_zero(etaj):
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
        return self.lift(fld.pow(fld.gen(), t), u, R)

    # --- representatives ---

    def representative(self, h: int, e: int, psi: Sequence) -> IntPolynomial:
        """Monic modulus of degree m*e*deg(psi) whose side residual is psi.

        psi is monic over the working field with nonzero constant term.
        """
        self.ensure_rep()
        W = self.order + 1
        fld, w, VW = self.order_data(W)
        fpsi = len(psi) - 1
        if fpsi < 1 or psi[-1] != fld.one:
            raise InvariantViolation("residual factor must be monic nonconstant")
        if fld.is_zero(psi[0]):
            raise ForbiddenResidualY("residual factor with root zero")
        out = self.phi ** (e * fpsi)
        for j in range(fpsi):
            bj = psi[j]
            if fld.is_zero(bj):
                continue
            rho = fld.mul(fld.pow(w, e * (fpsi - j)), bj)
            Q = self.lift(rho, (fpsi - j) * (e * VW + h), W)
            out = out + Q * self.phi ** (j * e)
        return out

    def ensure_rep(self) -> None:
        if self.phi is None:
            lvl = self.levels[-1]
            parent = Type(
                self.p, self.F1, self.psi0, self.levels[:-1], lvl.phi, 0, self.mult
            )
            self.phi = parent.representative(lvl.h, lvl.e, lvl.psi)

    # --- branch moves ---

    def refined(self, h: int, psi: Sequence, mult: int) -> "Type":
        """Same-order branch with a better modulus of the same degree."""
        new_phi = self.representative(h, 1, psi)
        if new_phi.degree != self.phi.degree:
            raise InvariantViolation("refinement changed the modulus degree")
        return Type(self.p, self.F1, self.psi0, self.levels, new_phi, h, mult)

    def extended(self, h: int, e: int, psi: Sequence, mult: int) -> "Type":
        """Commit the pending modulus as a level; the next one is built lazily."""
        self.ensure_rep()
        W = self.order + 1
        _, _, VW = self.order_data(W)
        below = self.order_data(W)[0]
        lvl = Level(self.phi, h, e, psi, VW, below)
        return Type(self.p, self.F1, self.psi0, self.levels + (lvl,), None, 0, mult)
