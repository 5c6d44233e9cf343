"""The splitting loop: from (f, p) to the primes above p and the index.

Initialization factors f mod p and dispatches each repeated factor that fails
the Dedekind shortcut to a branch of order zero.  The loop pops a branch,
draws the Newton polygon of f with respect to its pending modulus, accumulates
the polygon's index region, and turns each residual factor of each side into
a completed prime, a refined branch (same order, better modulus), or an
extended branch (one more level).  Every structural invariant the theory
promises is asserted; a violation aborts the run rather than returning wrong
arithmetic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .errors import InputError, InvariantViolation
from .ffield import Field, factor as ffactor
from .polygon import cut_sides, principal_sides, region_index
from .types import Type, value_at_prime
from .zpoly import IntPolynomial, is_prime, is_squarefree, maximal_at


@dataclass
class PrimeRecord:
    """One prime of the p-adic splitting: ramification e, residue degree f.

    kind tells how the prime completed: "dedekind" via the shortcut at
    initialization, "side" via a multiplicity-one residual factor, "factor"
    when the pending modulus divides f exactly.  tipo holds the completed
    branch, and a shortcut prime its modulus dede_phi and, for e > 1, its
    criterion's digit dede_digit.  complete caches the branch the prime's
    values are read on with its contact, as types.contact returns it, and
    value_type caches value_at_prime's improved branch the same way.
    """

    e: int
    f: int
    kind: str
    tipo: Optional[Type] = None
    dede_phi: Optional[IntPolynomial] = None
    dede_digit: Optional[List[int]] = None
    complete: Optional[Tuple[Type, Optional[Tuple[int, object]]]] = None
    value_type: Optional[Tuple[Type, Optional[Tuple[int, object]]]] = None


@dataclass
class RunResult:
    p: int
    poly: IntPolynomial
    index: int
    primes: List[PrimeRecord]
    pop_count: int


def _initialize(
    f: IntPolynomial, p: int, rng: random.Random
) -> Tuple[List[PrimeRecord], List[Type]]:
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    if f.degree < 1:
        raise InputError("polynomial must have degree at least 1")
    if not f.is_monic:
        raise InputError("polynomial must be monic")
    if not is_squarefree(f):
        raise InputError("polynomial must be squarefree over the integers")
    factors = ffactor(Field(p), [c % p for c in f.coeffs], rng)
    dedekind: List[PrimeRecord] = []
    branches: List[Type] = []
    for psi, a in factors:
        phi = IntPolynomial(psi)
        digit = maximal_at(f, phi, p) if a > 1 else None
        if a == 1 or digit:
            dedekind.append(PrimeRecord(a, phi.degree, "dedekind", dede_phi=phi, dede_digit=digit))
        else:
            branches.append(Type.order_zero(p, psi, a))
    return dedekind, branches


def _run_branch(run: RunResult, branches: List[Type], rng: random.Random, refine: bool) -> None:
    """Pop the order-zero branches in order, each followed depth-first by the
    branches it spawns, adding the primes, the index and the pops to the run.
    The pops are bounded by 8 * index plus 4n + 16 per order-zero branch."""
    f = run.poly
    budget = len(branches) * (4 * f.degree + 16)
    stack = branches[::-1]
    while stack:
        t = stack.pop()
        run.pop_count += 1
        if run.pop_count > 8 * run.index + budget:
            raise InvariantViolation("splitting loop exceeded its progress budget")
        readings, cloud = t.newton_data(f)
        fld = t.order_data(t.order + 1)[0]
        phi_divides = 0 not in cloud
        if phi_divides:
            run.primes.append(PrimeRecord(e=t.e_prod, f=t.f_prod, kind="factor", tipo=t))
        pts = sorted(cloud.items())
        sides_all = principal_sides(pts)
        run.index += t.f_prod * region_index(sides_all, t.cut_h)
        sides = cut_sides(sides_all, t.cut_h)
        width = sum(s.width for s in sides)
        if width != t.mult - (1 if phi_divides else 0):
            raise InvariantViolation("polygon width disagrees with multiplicity")
        children: List[Type] = []
        for side in sides:
            res = t.residual_on_side(side, readings, cloud)
            fct = ffactor(fld, res, rng)
            if sum((len(g) - 1) * m for g, m in fct) != side.steps:
                raise InvariantViolation("residual factorization lost degree")
            for psi, om in fct:
                if not psi[0]:
                    raise InvariantViolation("residual factor vanishes at zero")
                if om == 1:
                    ct = t.extended(side.h, side.e, psi, 1)
                    run.primes.append(
                        PrimeRecord(e=ct.e_prod, f=ct.f_prod, kind="side", tipo=ct)
                    )
                elif refine and side.e == 1 and len(psi) == 2:
                    children.append(t.refined(side.h, psi, om))
                else:
                    children.append(t.extended(side.h, side.e, psi, om))
        stack.extend(reversed(children))


def factor_prime(f: IntPolynomial, p: int, seed: int = 0, refine: bool = True) -> RunResult:
    """Primes above p in Q[x]/(f), and the p-valuation of the index of f.

    The seed steers the random splits of the mod-p factorizations, which
    sort what they return, so it changes the running time and not the result.
    """
    rng = random.Random(seed)
    dedekind, branches = _initialize(f, p, rng)
    result = RunResult(p, f, 0, dedekind, 0)
    _run_branch(result, branches, rng, refine)
    if sum(r.e * r.f for r in result.primes) != f.degree:
        raise InvariantViolation("ramification data does not fill the degree")
    return result


def disc_valuation(result: RunResult) -> int:
    """v_p of the discriminant of f, from the primes of a finished run.

    For monic f, disc f = +-N(f'(theta)), and v_p of a norm is the sum over
    the primes P above p of f_P * v_P, with v_P normalised by v_P(p) = e_P.
    """
    f, p = result.poly, result.p
    df = f.derivative()
    return sum(rec.f * value_at_prime(rec, df, f, p) for rec in result.primes)
