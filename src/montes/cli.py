"""Command-line front end.

Subcommands: factor (the main computation), corpus (stress-input
constructors), bench (timing table).
Exit codes: 0 success, 2 invalid input, 3 internal invariant violation.

All big numbers cross the JSON boundary as decimal strings; everything that
fits in a double-precision mantissa stays a plain int.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import List, Optional, Tuple

from .corpus import multi_branch, quartic_refine, random_tower, tower_phi
from .driver import RunResult, disc_valuation, factor_prime
from .errors import InputError, InvariantViolation, ParseError
from .zpoly import IntPolynomial


# --- polynomial expression grammar ---
#
# expr   := term (('+'|'-') term)*
# term   := factor ('*' factor)*
# factor := base ('^' nat)?
# base   := 'x' | integer | '(' expr ')'
#
# No implicit multiplication, no unary minus; whitespace is free.  Offsets
# in error messages count UTF-8 bytes from the start of the input; bytes
# that are not UTF-8 arrive as surrogate escapes and count one each.
#
# Hostile input gets a bounded amount of work: parentheses nest at most
# _MAX_DEPTH deep (the parser recurses once per level), a number may have at
# most _MAX_BITS bits, and a product or a power is refused before it is
# computed when its degree would pass _MAX_DEGREE or its coefficients,
# counted together, _MAX_BITS bits.  The bit limit is about 315,000 decimal
# digits, under the 2,000,000 that _lift_digit_limit lets an int print with,
# and it keeps every accepted number, product or power under a second.

_MAX_DEPTH = 100
_MAX_DEGREE = 100_000
_MAX_BITS = 1 << 20

# A prime past this size is refused before the Miller-Rabin test, whose cost
# grows about cubically with the size (2.3 s for one 4096-bit prime).
_MAX_PRIME_BITS = 1024


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def fail(self, message: str, pos: Optional[int] = None):
        head = self.text[: self.pos if pos is None else pos]
        try:
            offset = len(head.encode("utf-8", "surrogateescape"))
        except UnicodeEncodeError:  # a lone surrogate that no byte decodes to
            offset = len(head.encode("utf-8", "surrogatepass"))
        raise ParseError(message, offset)

    def nat(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            self.fail("expected a number")
        if _too_long(self.pos - start):
            self.fail("number too long", start)
        return int(self.text[start : self.pos])


def _too_long(digits: int) -> bool:
    return digits * math.log2(10) > _MAX_BITS


def _shape(f: IntPolynomial) -> Tuple[int, float]:
    """(number of nonzero terms, log2 of the sum of the absolute values of
    the coefficients), which bounds log2 of every coefficient."""
    norm = sum(map(abs, f.coeffs))
    return len(f.coeffs) - f.coeffs.count(0), math.log2(norm) if norm else 0.0


def _check_size(sc: _Scanner, at: int, degree: int, terms: int, bits: float) -> None:
    if degree > _MAX_DEGREE or terms * bits > _MAX_BITS:
        sc.fail("product or power too large", at)


def _parse_expr(sc: _Scanner) -> IntPolynomial:
    out = _parse_term(sc)
    while sc.peek() in ("+", "-"):
        op = sc.take()
        rhs = _parse_term(sc)
        out = out + rhs if op == "+" else out - rhs
    return out


def _parse_term(sc: _Scanner) -> IntPolynomial:
    out = _parse_factor(sc)
    while sc.peek() == "*":
        at = sc.pos
        sc.take()
        rhs = _parse_factor(sc)
        (ta, ba), (tb, bb) = _shape(out), _shape(rhs)
        degree = out.degree + rhs.degree
        _check_size(sc, at, degree, min(degree + 1, ta * tb), ba + bb)
        out = out * rhs
    return out


def _parse_factor(sc: _Scanner) -> IntPolynomial:
    base = _parse_base(sc)
    if sc.peek() != "^":
        return base
    sc.take()
    at = sc.pos
    n = sc.nat()
    terms, bits = _shape(base)
    degree = n * base.degree
    _check_size(sc, at, degree, 1 if terms == 1 else degree + 1, n * bits)
    return base ** n


def _parse_base(sc: _Scanner) -> IntPolynomial:
    ch = sc.peek()
    if ch == "x":
        sc.take()
        return IntPolynomial((0, 1))
    if ch.isdecimal():
        return IntPolynomial((sc.nat(),))
    if ch == "(":
        if sc.depth == _MAX_DEPTH:
            sc.fail(f"parentheses nested deeper than {_MAX_DEPTH}")
        sc.depth += 1
        sc.take()
        inner = _parse_expr(sc)
        if sc.peek() != ")":
            sc.fail("expected ')'")
        sc.take()
        sc.depth -= 1
        return inner
    sc.fail("expected 'x', a number, or '('")


def _lift_digit_limit() -> None:
    # Corpus members carry coefficients with thousands of digits; lift the
    # interpreter's decimal conversion guard so they print and parse.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(max(sys.get_int_max_str_digits(), 2_000_000))


def parse_poly(text: str) -> IntPolynomial:
    """Expand an expression in x with integer coefficients."""
    _lift_digit_limit()
    sc = _Scanner(text)
    out = _parse_expr(sc)
    sc.skip_ws()
    if sc.pos != len(sc.text):
        sc.fail("unexpected trailing input")
    return out


def parse_coeffs(text: str) -> IntPolynomial:
    """One decimal coefficient per line, degree-descending, within the
    expression grammar's bounds on the degree and on a number's length."""
    _lift_digit_limit()
    rows = [ln.strip() for ln in text.splitlines()]
    rows = [ln for ln in rows if ln]
    if not rows:
        raise InputError("empty coefficient list")
    if len(rows) > _MAX_DEGREE + 1:
        raise InputError(f"more than {_MAX_DEGREE + 1} coefficient lines")
    for ln in rows:
        if "_" in ln:
            raise InputError(f"bad coefficient line: '_' in {ln[:20]!r}")
        if _too_long(len(ln) - (ln[0] in "+-")):
            raise InputError("number too long")
    try:
        desc = [int(ln, 10) for ln in rows]
    except ValueError as exc:
        raise InputError(f"bad coefficient line: {exc}") from None
    return IntPolynomial(list(reversed(desc)))


def poly_to_expr(f: IntPolynomial) -> str:
    """Canonical printable form; parse_poly reads it back exactly."""
    _lift_digit_limit()
    if f.is_zero:
        return "0"
    parts: List[str] = []
    for k in range(f.degree, -1, -1):
        c = f.coeffs[k]
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            xs = "x" if k == 1 else f"x^{k}"
            body = xs if mag == 1 else f"{mag}*{xs}"
        if not parts:
            parts.append(body if c > 0 else f"0-{body}")
        else:
            parts.append(("+" if c > 0 else "-") + body)
    return "".join(parts)


def poly_to_coeff_lines(f: IntPolynomial) -> str:
    _lift_digit_limit()
    return "\n".join(str(c) for c in reversed(f.coeffs))


# --- factor subcommand ---


def _read_poly(args) -> IntPolynomial:
    if args.poly_file is not None:
        try:
            # bytes that are not UTF-8 reach the parser, which reports them
            with open(args.poly_file, encoding="utf-8", errors="surrogateescape") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read {args.poly_file}: {exc.strerror}") from exc
    else:
        text = args.poly
    if args.format == "coeffs":
        return parse_coeffs(text)
    return parse_poly(text)


def _run(
    f: IntPolynomial, p: int, seed: int, generators: bool, disc: bool
) -> Tuple[RunResult, list, Optional[int]]:
    """The run of factor_prime, with its generators and v_p(disc f) when they
    are asked for.

    idealgen is imported here, so that a run without generators never loads it.
    """
    r = factor_prime(f, p, seed=seed)
    gens = [None] * len(r.primes)
    if generators:
        from .idealgen import compute_generators

        gens = compute_generators(r)
    return r, gens, disc_valuation(r) if disc else None


def _result_payload(r, gens: list, disc_v: Optional[int], timings: dict) -> dict:
    primes = []
    for rec, alpha in zip(r.primes, gens):
        gen = None
        if alpha is not None:
            cs = list(alpha.num.coeffs) or [0]
            gen = {"num": [str(c) for c in cs], "p_power": alpha.p_power}
        primes.append({"e": rec.e, "f": rec.f, "generator": gen})
    return {
        "prime": str(r.p),
        "degree": r.poly.degree,
        "index": r.index,
        "disc_valuation": disc_v,
        "field_disc_valuation": None if disc_v is None else disc_v - 2 * r.index,
        "primes": primes,
        "timings_ms": timings,
    }


def _print_text(payload: dict, out) -> None:
    print(f"prime: {payload['prime']}", file=out)
    print(f"degree: {payload['degree']}", file=out)
    print(f"index: {payload['index']}", file=out)
    if payload["disc_valuation"] is not None:
        print(f"disc valuation: {payload['disc_valuation']}", file=out)
        print(f"field disc valuation: {payload['field_disc_valuation']}", file=out)
    print("primes:", file=out)
    for rec in payload["primes"]:
        line = f"  e={rec['e']} f={rec['f']}"
        if rec["generator"] is not None:
            asc = [int(c) for c in rec["generator"]["num"]]
            gpoly = poly_to_expr(IntPolynomial(asc))
            k = rec["generator"]["p_power"]
            gen = gpoly if k == 0 else f"({gpoly})/{payload['prime']}^{k}"
            line += f" generator={gen}"
        print(line, file=out)


def cmd_factor(args) -> int:
    t0 = time.perf_counter()
    f = _read_poly(args)
    t1 = time.perf_counter()
    _check_prime_size(args.prime)
    r, gens, disc_v = _run(f, args.prime, args.seed, args.generators, args.disc)
    t2 = time.perf_counter()
    timings = {
        "parse": round((t1 - t0) * 1000.0, 3),
        "factor": round((t2 - t1) * 1000.0, 3),
        "total": round((t2 - t0) * 1000.0, 3),
    }
    payload = _result_payload(r, gens, disc_v, timings)
    if args.json:
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        _print_text(payload, sys.stdout)
    return 0


def _check_prime_size(p: int) -> None:
    if p.bit_length() > _MAX_PRIME_BITS:
        raise InputError(f"the prime has more than {_MAX_PRIME_BITS} bits")


def _check_member_size(degree: int, bits: float = 0.0) -> None:
    """Refuse a corpus member the parser would refuse, before building it."""
    if degree > _MAX_DEGREE or bits > _MAX_BITS:
        raise InputError(f"the member passes degree {_MAX_DEGREE} or {_MAX_BITS} coefficient bits")


# --- corpus subcommand ---


def _parse_chain(text: str) -> List[Tuple[int, int, int]]:
    # "h:e:f,h:e:f,..." one triple per level.
    out = []
    for part in text.split(","):
        bits = part.split(":")
        if len(bits) != 3:
            raise InputError("chain levels look like h:e:f separated by commas")
        try:
            out.append((int(bits[0]), int(bits[1]), int(bits[2])))
        except ValueError:
            raise InputError("chain entries must be integers") from None
    return out


def cmd_corpus(args) -> int:
    if args.prime is not None:
        _check_prime_size(args.prime)
    if args.family == "tower":
        if args.chain is not None:
            chain = _parse_chain(args.chain)
            _check_member_size(args.f0 * math.prod(e * fdeg for _, e, fdeg in chain))
            f = random_tower(2 if args.prime is None else args.prime, args.f0, chain, args.seed)
        else:
            f = tower_phi(args.level)
    elif args.family == "quartic-refine":
        if args.prime is None:
            raise InputError("quartic-refine needs --prime")
        _check_member_size(4, (2 * args.k + 1) * math.log2(max(args.prime, 2)))
        f = quartic_refine(args.prime, args.k)
    elif args.family == "multi-branch":
        _check_member_size(120 * args.j)
        f = multi_branch(args.j)
    else:
        raise InputError(f"unknown family {args.family!r}")
    if args.format == "coeffs":
        print(poly_to_coeff_lines(f))
    else:
        print(poly_to_expr(f))
    return 0


# --- bench subcommand ---


def _bench_poly(spec: str) -> Tuple[str, IntPolynomial, int]:
    name, *bits = spec.split(":")
    try:
        nums = [int(b) for b in bits]
    except ValueError:
        raise InputError(f"bench spec {spec!r}: parameters must be integers") from None
    if name in ("tower", "multi-branch") and len(nums) > 1:
        raise InputError(f"bench spec {name}:<n>")
    if name == "tower":
        level = nums[0] if nums else 1
        return spec, tower_phi(level), 2
    if name == "quartic-refine":
        if len(nums) != 2:
            raise InputError("bench spec quartic-refine:<p>:<k>")
        _check_prime_size(nums[0])
        _check_member_size(4, (2 * nums[1] + 1) * math.log2(max(nums[0], 2)))
        return spec, quartic_refine(nums[0], nums[1]), nums[0]
    if name == "multi-branch":
        j = nums[0] if nums else 1
        _check_member_size(120 * j)
        return spec, multi_branch(j), 13
    raise InputError(f"unknown bench spec {spec!r}")


def cmd_bench(args) -> int:
    if args.repeat < 1:
        raise InputError("--repeat must be at least 1")
    runs = [_bench_poly(spec) for spec in args.specs]
    print("name,degree,prime,index,ms")
    for name, f, p in runs:
        took = []
        index = None
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            r = _run(f, p, args.seed, args.generators, False)[0]
            took.append((time.perf_counter() - t0) * 1000.0)
            index = r.index
        ms = sum(took) / len(took)
        print(f"{name},{f.degree},{p},{index},{ms:.1f}")
    return 0


# --- argument plumbing ---


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="montes",
        description="Exact factorization of a prime in Q[x]/(f) with index and generators.",
    )
    sub = ap.add_subparsers(dest="command", metavar="{factor,corpus,bench}")
    sub.required = True

    fa = sub.add_parser("factor", help="factor p in Q[x]/(f)")
    fa.add_argument("--prime", type=int, required=True, help="the prime p")
    src = fa.add_mutually_exclusive_group(required=True)
    src.add_argument("--poly", help="polynomial expression in x")
    src.add_argument("--poly-file", help="file holding the polynomial")
    fa.add_argument(
        "--format",
        choices=("expr", "coeffs"),
        default="expr",
        help="input format: expression or one coefficient per line, degree-descending",
    )
    fa.add_argument("--generators", action="store_true", help="also compute two-element generators")
    fa.add_argument("--disc", action="store_true", help="also compute v_p(disc f)")
    fa.add_argument("--json", action="store_true", help="machine-readable output")
    fa.add_argument(
        "--seed", type=int, default=0, help="seed for the random splits; the output is the same"
    )
    fa.set_defaults(run=cmd_factor)

    co = sub.add_parser("corpus", help="emit a stress-test polynomial")
    co.add_argument("--family", required=True, choices=("tower", "quartic-refine", "multi-branch"))
    co.add_argument("--level", type=int, default=1, help="tower: chain level 1..8")
    co.add_argument("--chain", help="tower: random chain, levels h:e:f joined by commas")
    co.add_argument("--f0", type=int, default=1, help="tower: residual degree of the random base")
    co.add_argument("--prime", type=int, help="quartic-refine: the prime; random tower: base prime")
    co.add_argument("--k", type=int, default=1, help="quartic-refine: exponent parameter")
    co.add_argument("--j", type=int, default=1, help="multi-branch: number of branches")
    co.add_argument("--seed", type=int, default=0, help="random tower seed")
    co.add_argument("--format", choices=("expr", "coeffs"), default="expr")
    co.set_defaults(run=cmd_corpus)

    be = sub.add_parser("bench", help="time a set of corpus runs, CSV output")
    be.add_argument("specs", nargs="*", help="runs like tower:3 quartic-refine:7:50 multi-branch:1")
    be.add_argument("--repeat", type=int, default=1, help="average over this many runs")
    be.add_argument("--generators", action="store_true")
    be.add_argument("--seed", type=int, default=0)
    be.set_defaults(run=cmd_bench)

    return ap


def main(argv: Optional[List[str]] = None) -> int:
    _lift_digit_limit()
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.run(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
