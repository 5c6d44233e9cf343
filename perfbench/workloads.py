"""The benchmark's workloads: which `montes factor` calls make up one round.

A round is a fixed list of operations; a run repeats whole rounds, so every
run attempts the same operations in the same proportions whatever the seed
and the run length.  The workload seed picks the seeded inputs of
`refine-chain` and `prime-sweep`, and the program's `--seed` is derived from
it per round (see run.py).  Every
workload also holds one small operation with `--generators --disc`, so that
every layer is entered in every workload and no per-layer time reads a
vacuous zero.

A round of `deep-branch` or `ideal-data` has an odd number of operations
whose middle one by cost is a fixed input well apart from its neighbours,
so the median latency falls on one operation instead of between two.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

NAMES = ("refine-chain", "deep-branch", "ideal-data", "prime-sweep")
FULL = ("--generators", "--disc")

# Degree-12 input of acceptance criterion A1 (ascending coefficients).
A1 = (
    59914669248, 10978063488, -641009376, -1583408736, 486721116,
    24745392, -12522636, -172872, 130095, 476, -588, 0, 1,
)
# Splittings of the fixed inputs: (source, prime) -> (index, (e, f) pairs).
# The tower rows are acceptance criterion A3, A1 and A2 are A1 and A2, and
# multi-branch:j has j primes (5, 24) at 13 and index j * 21576.
KNOWN = {
    ("A1", 2): (33, [(2, 1)] * 6),
    ("A2", 2): (13011, [(25, 6)]),
    ("tower:1", 2): (2, [(1, 2)]),
    ("tower:2", 2): (16, [(1, 4)]),
    ("tower:3", 2): (360, [(2, 8)]),
    ("tower:4", 2): (1544, [(2, 16)]),
    ("multi-branch:1", 13): (21576, [(5, 24)]),
    ("multi-branch:3", 13): (3 * 21576, [(5, 24)] * 3),
}
# `tower --chain` members: (p, f0, levels h:e:f).
CHAINS = {
    "chain-p3": (3, 2, ((1, 2, 2), (1, 1, 2), (1, 3, 2))),
    "chain-p2": (2, 2, ((1, 2, 3), (1, 1, 2), (1, 3, 1), (1, 1, 2))),
}
# The chains' `tower --seed`.  It is fixed, not drawn from the workload seed:
# random_tower searches for irreducible residual polynomials, and over seeds
# 1-8 building one chain took from 0.05 to 0.92 s, and set-up time followed.
CHAIN_SEED = 1
# Operations known to fail at this commit get this wall-clock budget each.
BUDGET_S = 2.0
SWEEP_PRIME_BOUND = 100
# Many mid-size seeded inputs rather than a few large ones: the cost of a
# sweep varies from input to input, and the sum over many varies less.
SWEEP_DEGREES = (16, 20, 24, 28, 32)


@dataclass
class Op:
    """One `montes factor` call.  `source` names the input polynomial."""

    source: str
    prime: int
    flags: Tuple[str, ...] = ()
    budget_s: Optional[float] = None
    expect: Dict = field(default_factory=dict)
    climb: bool = False  # also compare with the order-climbing route

    @property
    def label(self) -> str:
        return " ".join((self.source, f"p={self.prime}") + self.flags)


@dataclass
class Workload:
    ops: List[Op]
    inputs: Dict[str, Tuple[int, ...]]  # source -> ascending coefficients
    corpus_s: float = 0.0


def fixed_input(source: str) -> Tuple[int, ...]:
    """Coefficients of a named input: A1, A2, tower:N or multi-branch:J."""
    from montes import corpus
    from montes.zpoly import IntPolynomial

    if source == "A1":
        return A1
    if source == "A2":  # the composed cube g^50 + 2^89 g^25 + 2^178
        g = IntPolynomial([5, 1, 0, 1])
        return (g**50 + IntPolynomial([2**89]) * g**25 + IntPolynomial([2**178])).coeffs
    family, _, arg = source.partition(":")
    if family == "tower":
        return corpus.tower_phi(int(arg)).coeffs
    if family == "multi-branch":
        return corpus.multi_branch(int(arg)).coeffs
    raise KeyError(source)


def _fixed_op(inputs, source: str, prime: int, **kw) -> Op:
    inputs.setdefault(source, fixed_input(source))
    return Op(source, prime, **kw)


def build(name: str, seed: int, small: bool = False) -> Workload:
    """Construct the inputs and the round of workload `name`.

    small shrinks every input for the self-check; the timed benchmark
    always runs at full size.
    """
    rng = random.Random(f"{name}:{seed}")
    t0 = time.perf_counter()
    ops, inputs = _WORKLOADS[name](rng, small)
    return Workload(ops, inputs, time.perf_counter() - t0)


def _refine_chain(rng, small):
    from montes.corpus import quartic_refine

    # These k keep one round near 2 s.  The cost grows like k^2.5, so the
    # seed picks only the k of the small full-output member.
    ks = [(7, 240), (13, 240), (1009, 220)] if not small else [(7, 12), (13, 12), (1009, 12)]
    ks.append((13, rng.randint(10, 16) if not small else 3))
    inputs, ops = {}, []
    for p, k in ks:
        source = f"quartic_refine({p},{k})"
        inputs[source] = quartic_refine(p, k).coeffs
        ops.append(Op(source, p, expect={"index": 2 * k, "ef": [(2, 1), (2, 1)]}))
    ops[-1].flags = FULL
    return ops, inputs


def _deep_branch(rng, small):
    from montes.corpus import random_tower

    inputs = {}
    sources = ["tower:1", "tower:2", "tower:3", "A2"]
    if not small:
        sources[3:3] = ["tower:4", "tower:5"]
        sources += ["multi-branch:1", "multi-branch:3"]
    ops = [_fixed_op(inputs, s, 13 if s.startswith("multi") else 2, climb=True) for s in sources]
    ops.append(_fixed_op(inputs, "tower:2", 2, flags=FULL, climb=True))
    for source, (p, f0, chain) in CHAINS.items():
        chain = chain[:2] if small else chain
        inputs[source] = random_tower(p, f0, chain, CHAIN_SEED).coeffs
        e, f = 1, f0
        for _, ei, fi in chain:
            e, f = e * ei, f * fi
        ops.append(Op(source, p, expect={"ef": [(e, f)]}, climb=True))
    return ops, inputs


def _ideal_data(rng, small):
    inputs = {}
    sources = ["A1", "tower:3"] if small else ["A1", "A2", "tower:4", "tower:5"]
    ops = [_fixed_op(inputs, s, 2, flags=(flag,)) for s in sources for flag in FULL]
    ops.append(_fixed_op(inputs, "tower:3", 2, flags=FULL))
    # Both fail at this commit (see README); each is charged its budget.
    budget = BUDGET_S if not small else 0.2
    ops += [_fixed_op(inputs, "multi-branch:1", 13, flags=(flag,), budget_s=budget) for flag in FULL]
    return ops, inputs


def _random_squarefree(rng, deg):
    from montes.zpoly import IntPolynomial, is_squarefree

    while True:
        f = IntPolynomial([rng.randint(-99, 99) for _ in range(deg)] + [1])
        if is_squarefree(f):
            return f.coeffs


def _prime_sweep(rng, small):
    from montes.zpoly import is_prime

    inputs = {"A1": A1, "tower:4": fixed_input("tower:4")}
    for deg in SWEEP_DEGREES if not small else (8,):
        inputs[f"random-{deg}"] = _random_squarefree(rng, deg)
    bound = SWEEP_PRIME_BOUND if not small else 20
    primes = [p for p in range(2, bound) if is_prime(p)]
    ops = [Op(source, p) for source in inputs for p in primes]
    ops[0].flags = FULL  # A1 at p = 2
    return ops, inputs


_WORKLOADS = {
    "refine-chain": _refine_chain,
    "deep-branch": _deep_branch,
    "ideal-data": _ideal_data,
    "prime-sweep": _prime_sweep,
}
