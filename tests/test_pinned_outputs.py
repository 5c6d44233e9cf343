"""Outputs pinned across versions of the program, not only across reruns.

Each case is reduced to a SHA-256 digest of its text: the coefficients of a
random tower, or the `montes factor --json` payload without `timings_ms`,
dumped with sorted keys.  The digests of A2 and `tower:5`, which reach
deeper orders, were computed by the program before the value of a
coefficient and its residual value came from one expansion; the others
before its residue fields changed from nested tuples to one absolute basis
per level.  The digest of x^396 + 2 at 13, a paper-scale input whose cost is
the mod-p factorization, was computed before F_p[x] products went through
Kronecker substitution and powers through Barrett reduction.  The digest of
x^7410 - 14 at 3, 93 factors mod 3 each cubed, was computed while Dedekind's
criterion still multiplied the factorization out over Z.  The digest of
multi-branch:1 at 13 with --generators --disc, whose generator needs a
p-adic inverse at 13^1452, was computed while the inverse's Euclid still
kept every cofactor mod p^N.  The digests of x^30 - 14 at 3 and
x^2 - 3x + 25 at 5 with --generators --disc, whose Dedekind primes take
both generators a Dedekind prime can get (phi, and phi + p for x + 5 at 5),
were computed while those generators still re-ran Dedekind's criterion.
The digest of x^150 - 14 at 3 with --disc, whose Dedekind primes have
residue fields of degree 2, 4 and 20, was computed while the discriminant
still read a Dedekind prime of e > 1 off an expansion of f along its
modulus over Z.
The coefficients of A2, tower:6, tower:7 and
multi-branch:3, in the degree-descending lines of `montes corpus --format
coeffs`, were pinned while IntPolynomial powers still squared once past the
top bit of the exponent.  A change that moves any of them changes what
the program answers, or the rng stream that random towers consume.  The
factor payloads are also checked to be the same for every --seed.
"""

import hashlib
import json

import pytest

from montes.cli import main, poly_to_coeff_lines
from montes.corpus import multi_branch, quartic_refine, random_tower, tower_phi
from montes.zpoly import IntPolynomial

A1 = IntPolynomial([
    59914669248, 10978063488, -641009376, -1583408736, 486721116,
    24745392, -12522636, -172872, 130095, 476, -588, 0, 1,
])
# the degree-150 composed cube g^50 + 2^89 g^25 + 2^178, g = x^3 + x + 5
G = IntPolynomial([5, 1, 0, 1])
A2 = G**50 + IntPolynomial([2**89]) * G**25 + IntPolynomial([2**178])
FULL = ("--generators", "--disc")

# name -> (input, prime, flags); chains are (p, f0, levels h:e:f), tower seed 1.
# Without a prime, the case pins the input's coefficients.
CASES = {
    "chain-p3": ((3, 2, ((1, 2, 2), (1, 1, 2), (1, 3, 2))), None, ()),
    "chain-p2": ((2, 2, ((1, 2, 3), (1, 1, 2), (1, 3, 1), (1, 1, 2))), None, ()),
    "A1": (lambda: A1, 2, FULL),
    "A2": (lambda: A2, 2, FULL),
    "tower:3": (lambda: tower_phi(3), 2, FULL),
    "tower:4": (lambda: tower_phi(4), 2, FULL),
    "tower:5": (lambda: tower_phi(5), 2, FULL),
    "quartic-refine:13:10": (lambda: quartic_refine(13, 10), 13, FULL),
    "multi-branch:1 --disc": (lambda: multi_branch(1), 13, ("--disc",)),
    "multi-branch:1": (lambda: multi_branch(1), 13, FULL),
    "x^396+2": (lambda: IntPolynomial([2] + [0] * 395 + [1]), 13, ()),
    "x^7410-14": (lambda: IntPolynomial([-14] + [0] * 7409 + [1]), 3, ()),
    "x^30-14": (lambda: IntPolynomial([-14] + [0] * 29 + [1]), 3, FULL),
    "x^150-14 --disc": (lambda: IntPolynomial([-14] + [0] * 149 + [1]), 3, ("--disc",)),
    "x^2-3*x+25": (lambda: IntPolynomial([25, -3, 1]), 5, FULL),
    # corpus members built by powers of IntPolynomial: their coefficients
    "A2 coeffs": (lambda: A2, None, ()),
    "tower:6 coeffs": (lambda: tower_phi(6), None, ()),
    "tower:7 coeffs": (lambda: tower_phi(7), None, ()),
    "multi-branch:3 coeffs": (lambda: multi_branch(3), None, ()),
}

PINNED = {
    "chain-p3": "c8ee353e8ea4caea851f336f30bd4c686855ca7ea481f889465dd031e8797011",
    "chain-p2": "240625bbdb4fcef15278c6d91f294791bfed10798dc34bc7359a1066e3834f7e",
    "A1": "3e133cf0d6bf963ef4ca6b75711ddecc70d66b339c2c5d8613a9eb9a8218160f",
    "A2": "7db09323ee5fd5a7f263ce07c6a2be18ebd15cd40c1baf0f06fad20383d66559",
    "tower:3": "148a17f0503997e970168482c2e9a1084c20ab1d9403f67539a9323679b88dcb",
    "tower:4": "7106e195e5b944da4ee70ca7fe4ae556acd5f45de81b78d15ce60aff7dc2fc9d",
    "tower:5": "b508f2c5d05b570f1de041f058decc291433a82af285135daa12a3cb4db68f74",
    "quartic-refine:13:10": "975f2259420e47c85f33443dd9428927734a16446e714b05f0e7295ac69421d1",
    "multi-branch:1 --disc": "7b07ea43d4280c83cbc43452194d2cc83b82acbcb15fa9f39590936e06a6de17",
    "multi-branch:1": "dd8424536bb405df644870e7072644bba2ca7ed3c66eb194d5490d040bdc143c",
    "x^396+2": "6d624540f5e86d905f2df9980fd2fc02e4aac66c3478a8859c620015b79f5426",
    "x^7410-14": "7ad50c509a767310d0bcfef029586fdb098f6f29c23bf6a722724baed96852b1",
    "x^30-14": "ba66979e2f94389052ec40473368a2938c3cd3096bc09fc6ca20d79f9da4f0a5",
    "x^150-14 --disc": "c9948efa79e9cfda557895251fef2042fe66be7ff391961ee06298cd1fa06743",
    "x^2-3*x+25": "60c3918c5e4134e04dc3edb0f287c257e76c6510385cebaa33d5b6978f95fbc9",
    "A2 coeffs": "400a52b374eecd5f30d46b306dcc1e1a68c421f692c5a7ecc077df9d373909d8",
    "tower:6 coeffs": "238ff14661015b798555d95f98a1e4f07bfb8d4d5269e2a76f1c4f8cb610f5a3",
    "tower:7 coeffs": "533c9dc52ab7f3a65a4422f61c2c07c94749843aa2f50549dcdb08a34db3bac1",
    "multi-branch:3 coeffs": "6e0cfc0f1ecc8b71371f9fc1667b866ceeeb473ce9f0fb0a344d9da54f4ba91a",
}


def pinned_text(name, tmp_path, capsys):
    source, prime, flags = CASES[name]
    if prime is not None:
        return factor_text(source(), prime, flags, 0, tmp_path, capsys)
    if callable(source):
        return poly_to_coeff_lines(source())
    p, f0, chain = source
    return "\n".join(str(c) for c in random_tower(p, f0, chain, 1).coeffs)


def factor_text(f, prime, flags, seed, tmp_path, capsys):
    path = tmp_path / "input.coeffs"
    path.write_text(poly_to_coeff_lines(f) + "\n")
    argv = ["factor", "--prime", str(prime), "--poly-file", str(path),
            "--format", "coeffs", "--json", "--seed", str(seed), *flags]
    capsys.readouterr()
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    del payload["timings_ms"]
    return json.dumps(payload, sort_keys=True)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_pinned_digest(name, tmp_path, capsys):
    text = pinned_text(name, tmp_path, capsys)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED[name]


@pytest.mark.parametrize(
    "name, prime",
    [("A1", 2), ("A1", 5), ("A2", 2), ("tower:4", 2), ("tower:5", 2), ("chain-p2", 2), ("chain-p3", 3)],
)
def test_output_does_not_depend_on_the_seed(name, prime, tmp_path, capsys):
    # The seed only steers the random splits of the mod-p factorizations,
    # whose results come out sorted; one run shares one rng on this.  At 5,
    # A1 has primes of equal degree, which the splits find in seed order.
    source = CASES[name][0]
    f = source() if callable(source) else random_tower(*source, 1)
    texts = {factor_text(f, prime, FULL, seed, tmp_path, capsys) for seed in (0, 1, 2**31)}
    assert len(texts) == 1
