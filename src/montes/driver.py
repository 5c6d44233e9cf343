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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .errors import (
    DegreeTooSmall,
    ForbiddenResidualY,
    InvariantViolation,
    NonMonic,
    NotPrime,
    NotSquarefree,
)
from .ffield import Field, factor as ffactor, pmod
from .polygon import cut_sides, principal_sides, region_index
from .types import Type
from .zpoly import IntPolynomial, is_prime, is_squarefree


@dataclass
class PrimeRecord:
    """One prime of the p-adic splitting: ramification e, residue degree f.

    kind tells how the prime completed: "dedekind" via the shortcut at
    initialization, "side" via a multiplicity-one residual factor, "factor"
    when the pending modulus divides f exactly.  tipo holds the completed
    branch for the generator machinery; lineage the (pop, side) slots it
    passed through.  dominators lists (index, slope) of the primes that
    branched off a steeper side of the polygon this prime's last level was
    committed at; tweaked_phi and generator are filled by the generator
    machinery on demand, and value_type caches its improved modulus.
    """

    e: int
    f: int
    kind: str
    tipo: Optional[Type] = None
    lineage: Tuple = ()
    dede_phi: Optional[IntPolynomial] = None
    dede_mult: int = 0
    dominators: Optional[List[Tuple[int, Fraction]]] = None
    tweaked_phi: Optional[IntPolynomial] = None
    generator: Optional[Tuple[IntPolynomial, int]] = None
    value_type: Optional[Type] = None


@dataclass
class PopRecord:
    """Cut sides seen at one pop, steepest first, for domination ordering."""

    pop_id: Tuple[int, int]
    slopes: List[Fraction] = field(default_factory=list)


@dataclass
class RunResult:
    p: int
    poly: IntPolynomial
    index: int
    primes: List[PrimeRecord]
    pops: Dict[Tuple[int, int], PopRecord]
    pop_count: int


def _initialize(
    f: IntPolynomial, p: int, rng: random.Random
) -> Tuple[List[PrimeRecord], List[Type]]:
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if f.degree < 1:
        raise DegreeTooSmall("polynomial must have degree at least 1")
    if not f.is_monic:
        raise NonMonic("polynomial must be monic")
    if not is_squarefree(f):
        raise NotSquarefree("polynomial must be squarefree over the integers")
    F0 = Field(p)
    fbar = [c % p for c in f.coeffs]
    factors = ffactor(F0, fbar, rng)
    lifts = [(psi, a, IntPolynomial(list(psi))) for psi, a in factors]
    prod = IntPolynomial([1])
    for _, a, phi in lifts:
        prod = prod * phi ** a
    diff = f - prod
    mbar = [(c // p) % p for c in diff.coeffs]
    while mbar and mbar[-1] == 0:
        mbar.pop()
    dedekind: List[PrimeRecord] = []
    branches: List[Type] = []
    for psi, a, phi in lifts:
        if a == 1 or pmod(F0, mbar, psi):
            dedekind.append(
                PrimeRecord(
                    e=a,
                    f=len(psi) - 1,
                    kind="dedekind",
                    dede_phi=phi,
                    dede_mult=a,
                )
            )
        else:
            branches.append(Type.order_zero(p, psi, a))
    return dedekind, branches


def _run_branch(
    f: IntPolynomial,
    t0: Type,
    task_id: int,
    seed: int,
    refine: bool,
) -> Tuple[List[PrimeRecord], Dict[Tuple[int, int], PopRecord], int, int]:
    rng = random.Random(f"{seed}:{task_id}")
    n = f.degree
    stack = [t0]
    records: List[PrimeRecord] = []
    pops: Dict[Tuple[int, int], PopRecord] = {}
    index = 0
    counter = 0
    while stack:
        t = stack.pop()
        counter += 1
        if counter > 4 * (2 * index + n) + 16:
            raise InvariantViolation("splitting loop exceeded its progress budget")
        pid = (task_id, counter)
        coeffs, cloud = t.newton_data(f)
        fld = t.order_data(t.order + 1)[0]
        phi_divides = coeffs[0].is_zero
        if phi_divides:
            records.append(
                PrimeRecord(
                    e=t.e_prod,
                    f=t.f_prod,
                    kind="factor",
                    tipo=t,
                    lineage=t.lineage,
                )
            )
        pts = sorted(cloud.items())
        sides_all = principal_sides(pts)
        index += t.f_prod * region_index(sides_all, t.cut_h)
        sides = cut_sides(sides_all, t.cut_h)
        width = sum(s.width for s in sides)
        if width != t.mult - (1 if phi_divides else 0):
            raise InvariantViolation("polygon width disagrees with multiplicity")
        pops[pid] = PopRecord(pid, [s.slope for s in sides])
        branches: List[Type] = []
        for si, side in enumerate(sides):
            res = t.residual_on_side(side, coeffs, cloud)
            fct = ffactor(fld, res, rng)
            if sum((len(g) - 1) * m for g, m in fct) != side.steps:
                raise InvariantViolation("residual factorization lost degree")
            for psi, om in fct:
                if fld.is_zero(psi[0]):
                    raise ForbiddenResidualY("residual factor vanishes at zero")
                lin = t.lineage + ((pid, si),)
                if om == 1:
                    ct = t.extended(side.h, side.e, psi, 1, lin)
                    records.append(
                        PrimeRecord(
                            e=ct.e_prod,
                            f=ct.f_prod,
                            kind="side",
                            tipo=ct,
                            lineage=lin,
                        )
                    )
                elif refine and side.e == 1 and len(psi) == 2:
                    branches.append(t.refined(side.h, psi, om, lin))
                else:
                    branches.append(t.extended(side.h, side.e, psi, om, lin))
        stack.extend(reversed(branches))
    return records, pops, index, counter


def _fill_dominators(records: List[PrimeRecord], pops) -> None:
    # q dominates r exactly when q's lineage passes through a steeper side
    # of the polygon r's last level was committed at.
    for rec in records:
        rec.dominators = []
        if rec.tipo is None or not rec.tipo.levels:
            continue
        hop = rec.tipo.levels[-1].hop
        if hop is None:
            continue
        pop_id, side_i = hop
        slopes = pops[pop_id].slopes
        for q_idx, q in enumerate(records):
            if q is rec:
                continue
            for entry in q.lineage:
                if entry[0] == pop_id and entry[1] < side_i:
                    rec.dominators.append((q_idx, slopes[entry[1]]))
                    break


def factor_prime(
    f: IntPolynomial,
    p: int,
    seed: int = 0,
    refine: bool = True,
    generators: bool = False,
) -> RunResult:
    """Primes above p in Q[x]/(f), and the p-valuation of the index of f."""
    rng = random.Random(f"{seed}:init")
    dedekind, branches = _initialize(f, p, rng)
    results = [_run_branch(f, t, i + 1, seed, refine) for i, t in enumerate(branches)]
    records = list(dedekind)
    pops: Dict[Tuple[int, int], PopRecord] = {}
    index = 0
    pop_count = 0
    for recs, pp, idx, cnt in results:
        records.extend(recs)
        pops.update(pp)
        index += idx
        pop_count += cnt
    if sum(r.e * r.f for r in records) != f.degree:
        raise InvariantViolation("ramification data does not fill the degree")
    _fill_dominators(records, pops)
    result = RunResult(p, f, index, records, pops, pop_count)
    if generators:
        from .idealgen import compute_generators

        compute_generators(result)
    return result


def disc_valuation(result: RunResult) -> int:
    """v_p of the discriminant of f, from the primes of a finished run.

    For monic f, disc f = +-N(f'(theta)), and v_p of a norm is the sum over
    the primes P above p of f_P * v_P, with v_P normalised by v_P(p) = e_P.
    """
    from .idealgen import value_at_prime

    f, p = result.poly, result.p
    df = f.derivative()
    return sum(rec.f * value_at_prime(rec, df, f, p) for rec in result.primes)
