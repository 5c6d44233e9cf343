"""Checks of the program's answers, made outside the timed region.

The arithmetic here (the Sylvester resultant, the discriminant, p-adic
valuations) is written apart from `montes.zpoly`, so a fault in the program's
own resultant cannot hide behind itself.  The remaining checks are properties
the method must have: the degree identity sum(e*f) = deg f, the
discriminant/index bound, the identity valuation grid of the generators and
their norms.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple


def vp(n: int, p: int) -> int:
    """Multiplicity of p in the nonzero integer n."""
    if n == 0:
        raise ValueError("valuation of zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def sylvester_resultant(a: Sequence[int], b: Sequence[int]) -> int:
    """Res(a, b) as the determinant of the Sylvester matrix.

    a and b are ascending coefficient lists over Z.  The determinant comes
    from fraction-free Gaussian elimination (Bareiss), so every division is
    exact.
    """
    a = list(a)
    b = list(b)
    while a and a[-1] == 0:
        a.pop()
    while b and b[-1] == 0:
        b.pop()
    if not a or not b:
        return 0
    n, m = len(a) - 1, len(b) - 1
    if n == 0:
        return a[0] ** m
    if m == 0:
        return b[0] ** n
    size = n + m
    rows = [[0] * i + a[::-1] + [0] * (m - 1 - i) for i in range(m)]
    rows += [[0] * i + b[::-1] + [0] * (n - 1 - i) for i in range(n)]
    sign, prev = 1, 1
    for k in range(size - 1):
        if rows[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if rows[i][k]), None)
            if swap is None:
                return 0
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        pivot = rows[k][k]
        for i in range(k + 1, size):
            ri, lead = rows[i], rows[i][k]
            for j in range(k + 1, size):
                ri[j] = (ri[j] * pivot - lead * rows[k][j]) // prev
            ri[k] = 0
        prev = pivot
    return sign * rows[-1][-1]


def discriminant(coeffs: Sequence[int]) -> int:
    """disc(f) = (-1)^(n(n-1)/2) Res(f, f') / lc(f), f ascending over Z."""
    n = len(coeffs) - 1
    if n < 1:
        raise ValueError("discriminant needs degree >= 1")
    if n == 1:
        return 1
    deriv = [i * c for i, c in enumerate(coeffs)][1:]
    r = sylvester_resultant(coeffs, deriv)
    q, rem = divmod(r, coeffs[-1])
    if rem:
        raise ArithmeticError("Res(f, f') not divisible by lc(f)")
    return -q if (n * (n - 1) // 2) % 2 else q


def disc_bound(p: int, index: int, primes: Sequence[Tuple[int, int]]) -> Tuple[int, int, bool]:
    """(lo, hi, tame) with lo <= v_p(disc f) <= hi.

    lo = 2*index + sum f(e-1) and hi = 2*index + sum f(e-1+e*v_p(e)); when p
    divides no e the different is tame and v_p(disc f) = lo exactly.
    """
    lo = 2 * index + sum(f * (e - 1) for e, f in primes)
    wild = sum(f * e * vp(e, p) for e, f in primes)
    return lo, lo + wild, wild == 0


def ef_pairs(payload: dict) -> List[Tuple[int, int]]:
    return sorted((q["e"], q["f"]) for q in payload["primes"])


def check_payload(
    payload: dict,
    coeffs: Sequence[int],
    p: int,
    expect: Dict,
    disc_v: Optional[int],
) -> List[str]:
    """Problems found in one `montes factor --json` answer; empty when sound.

    expect may pin "index" and "ef" (sorted (e, f) pairs); disc_v is v_p of
    the discriminant from a route apart from the program, or None when no
    such value is at hand.
    """
    errs = []
    deg = len(coeffs) - 1
    pairs = ef_pairs(payload)
    index = payload["index"]
    if payload["degree"] != deg or int(payload["prime"]) != p:
        errs.append("degree or prime echoed wrongly")
    if sum(e * f for e, f in pairs) != deg:
        errs.append(f"sum e*f = {sum(e * f for e, f in pairs)} != deg {deg}")
    if "index" in expect and index != expect["index"]:
        errs.append(f"index {index} != {expect['index']}")
    if "ef" in expect and pairs != sorted(expect["ef"]):
        errs.append(f"(e,f) {pairs} != {sorted(expect['ef'])}")
    prog_disc = payload["disc_valuation"]
    if prog_disc is not None:
        if disc_v is not None and prog_disc != disc_v:
            errs.append(f"v_p(disc) {prog_disc} != independent {disc_v}")
        if payload["field_disc_valuation"] != prog_disc - 2 * index:
            errs.append("field discriminant valuation != disc - 2*index")
    v = disc_v if disc_v is not None else prog_disc
    if v is not None:
        lo, hi, tame = disc_bound(p, index, pairs)
        # with v = 0 this forces index 0 and every e = 1
        if not lo <= v <= hi or (tame and v != lo):
            errs.append(f"v_p(disc) {v} outside [{lo}, {hi}] (tame: {tame})")
    gens = [q["generator"] for q in payload["primes"]]
    if any(g is not None for g in gens):
        if any(g is None or g["p_power"] < 0 for g in gens):
            errs.append("missing generator or negative p-power")
        elif deg <= 32:
            for q, g in zip(payload["primes"], gens):
                num = [int(c) for c in g["num"]]
                want = g["p_power"] * deg + q["f"]
                got = vp(sylvester_resultant(coeffs, num), p)
                if got != want:
                    errs.append(f"v_p(Res(f, G)) = {got} != k*deg + f = {want}")
    return errs


def generator_grid_errors(payload: dict, records: Sequence, f, p: int) -> List[str]:
    """Identity check v_Q(G_P(theta)/p^k) = [P == Q] through value_at_prime.

    records come from a separate factorization of the same input, in the
    program's prime order; value_at_prime uses no generator arithmetic.
    """
    from montes.idealgen import value_at_prime
    from montes.zpoly import IntPolynomial

    rows = payload["primes"]
    if [(r.e, r.f) for r in records] != [(q["e"], q["f"]) for q in rows]:
        return ["prime order differs between runs"]
    errs = []
    for i, q in enumerate(rows):
        G = IntPolynomial([int(c) for c in q["generator"]["num"]])
        k = q["generator"]["p_power"]
        row = [value_at_prime(rec, G, f, p) - k * rec.e for rec in records]
        if row != [int(i == j) for j in range(len(records))]:
            errs.append(f"valuation grid row {i} is {row}")
    return errs


def same_splitting(payload: dict, index: int, pairs: Sequence[Tuple[int, int]]) -> List[str]:
    """Agreement of the answer with a splitting found by another route."""
    got = (payload["index"], ef_pairs(payload))
    want = (index, sorted(tuple(x) for x in pairs))
    return [] if got == want else [f"{got} differs from the other route's {want}"]
