import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from montes import cli, driver, types
from montes.cli import (
    main,
    parse_coeffs,
    parse_poly,
    poly_to_coeff_lines,
    poly_to_expr,
)
from montes.corpus import multi_branch, quartic_refine, random_tower, tower_phi
from montes.errors import InputError, ParseError
from montes.types import Type
from montes.zpoly import IntPolynomial, X, pval

from .test_zpoly import F12


def test_parse_basics():
    assert parse_poly("x^2+1") == IntPolynomial([1, 0, 1])
    assert parse_poly("x") == X
    assert parse_poly("42") == IntPolynomial([42])
    assert parse_poly(" ( x + 1 ) ^ 2 ") == IntPolynomial([1, 2, 1])
    assert parse_poly("x^3+x+5") == IntPolynomial([5, 1, 0, 1])


def test_parse_precedence():
    # '*' binds tighter than '+', '^' tighter than '*'; no implicit mult.
    assert parse_poly("1+2*3") == IntPolynomial([7])
    assert parse_poly("2*x^2") == IntPolynomial([0, 0, 2])
    assert parse_poly("(1+2)*3") == IntPolynomial([9])
    with pytest.raises(ParseError):
        parse_poly("2^3^1")  # one exponent per factor, no chaining


def test_parse_subtraction_chains():
    assert parse_poly("x-1-2") == IntPolynomial([-3, 1])
    assert parse_poly("x^2-x-1") == IntPolynomial([-1, -1, 1])


def test_parse_paper_style_inputs():
    f = parse_poly("(x^3+x+5)^50+2^89*(x^3+x+5)^25+2^178")
    assert f.degree == 150
    g = parse_poly("(x^2+x+1)^2-7^21")
    assert g == quartic_refine(7, 10)


def test_parse_errors_carry_byte_offsets():
    for text, offset in [
        ("-x", 0),  # no unary minus
        ("2x", 1),  # no implicit multiplication
        ("x^", 2),
        ("(x+1", 4),
        ("x+", 2),
        ("x$", 1),
        ("", 0),
        ("x\u3000+\u3000y", 8),  # ideographic spaces: three bytes each
        ("x^\u00b2", 2),  # a superscript digit is no digit of the grammar
        ("x+\ud800", 2),  # a lone surrogate counts as its three bytes
    ]:
        with pytest.raises(ParseError) as err:
            parse_poly(text)
        assert err.value.offset == offset, text


def test_expr_round_trip():
    rng = random.Random(7)
    samples = [F12, tower_phi(3), quartic_refine(13, 4), X, IntPolynomial([5])]
    for _ in range(30):
        samples.append(
            IntPolynomial([rng.randint(-99, 99) for _ in range(rng.randint(1, 9))])
        )
    for f in samples:
        if f.is_zero:
            continue
        assert parse_poly(poly_to_expr(f)) == f


def test_coeff_lines_round_trip():
    for f in (F12, IntPolynomial([0, -3, 0, 1]), IntPolynomial([7])):
        assert parse_coeffs(poly_to_coeff_lines(f)) == f


def test_converters_lift_the_digit_limit_themselves():
    # multi-branch:1 has coefficients of about 5000 digits, past the
    # interpreter's default conversion limit; a fresh process that never
    # runs main must still print and parse them.
    code = (
        "from montes.cli import parse_coeffs, parse_poly, poly_to_coeff_lines, poly_to_expr\n"
        "from montes.corpus import multi_branch\n"
        "f = multi_branch(1)\n"
        "assert max(abs(c) for c in f.coeffs).bit_length() > 15000\n"
        "assert parse_coeffs(poly_to_coeff_lines(f)) == f\n"
        "assert parse_poly(poly_to_expr(f)) == f\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_factor_text_output(capsys):
    code, out, err = run_cli(capsys, "factor", "--prime", "2", "--poly", "x^2+1")
    assert code == 0 and err == ""
    assert "index: 0" in out
    assert "e=2 f=1" in out


def test_factor_generators_text_output(capsys):
    code, out, err = run_cli(
        capsys, "factor", "--prime", "2", "--poly", "(x^2+8)*(x^2+72)*(x+1)", "--generators"
    )
    assert code == 0 and err == ""
    assert out.splitlines()[-3:] == [
        "  e=1 f=1 generator=x-1",
        "  e=2 f=1 generator=(171*x^4+x^3-146*x^2+72*x+176)/2^7",
        "  e=2 f=1 generator=(7*x^4+x^3+50*x^2+8*x+80)/2^7",
    ]


def test_factor_json_schema(capsys):
    code, out, _ = run_cli(
        capsys, "factor", "--prime", "2", "--poly", "x^2+1", "--json", "--disc"
    )
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == [
        "prime",
        "degree",
        "index",
        "disc_valuation",
        "field_disc_valuation",
        "primes",
        "timings_ms",
    ]
    assert doc["prime"] == "2"
    assert doc["degree"] == 2
    assert doc["index"] == 0
    assert doc["disc_valuation"] == 2
    assert doc["field_disc_valuation"] == 2
    assert doc["primes"] == [{"e": 2, "f": 1, "generator": None}]


def test_factor_json_without_disc_is_null(capsys):
    _, out, _ = run_cli(capsys, "factor", "--prime", "2", "--poly", "x^2+1", "--json")
    doc = json.loads(out)
    assert doc["disc_valuation"] is None
    assert doc["field_disc_valuation"] is None


def test_factor_generators_in_json(capsys):
    _, out, _ = run_cli(
        capsys,
        "factor",
        "--prime",
        "2",
        "--poly",
        "x^2+x+4",
        "--json",
        "--generators",
    )
    doc = json.loads(out)
    gens = [rec["generator"] for rec in doc["primes"]]
    assert all(g is not None for g in gens)
    for g in gens:
        assert isinstance(g["p_power"], int)
        assert all(isinstance(c, str) for c in g["num"])


def test_factor_generators_corrected_by_later_primes(capsys):
    # The first prime's quotient is corrected by the generators of two
    # primes that come after it in branch order.
    code, out, err = run_cli(
        capsys, "factor", "--prime", "2", "--poly",
        "x^6+56*x^5-63*x^4-72*x^3+78*x^2+112*x-40", "--generators", "--json",
    )
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert [(q["e"], q["f"]) for q in doc["primes"]] == [(2, 1)] + [(1, 1)] * 4
    assert all(q["generator"] is not None for q in doc["primes"])


def test_prime_size_cap_exit_2(capsys):
    # Past 1024 bits the prime is refused before the Miller-Rabin test; at
    # 1024 bits the test runs and finds this one composite.
    big = str(2**1024 + 1)
    for argv in [
        ("factor", "--prime", big, "--poly", "x^2+1"),
        ("corpus", "--family", "quartic-refine", "--prime", big),
        ("bench", f"quartic-refine:{big}:1"),
    ]:
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and "more than 1024 bits" in err, argv
    code, _, err = run_cli(capsys, "factor", "--prime", str(2**1023 + 1), "--poly", "x^2+1")
    assert code == 2 and "is not prime" in err



@pytest.mark.parametrize(
    "argv",
    [
        # (2k+1) log2 p bits in the constant term, past the parser's 2^20
        ("corpus", "--family", "quartic-refine", "--prime", "7", "--k", "100000000"),
        ("corpus", "--family", "quartic-refine", "--prime", "7", "--k", "400000"),
        ("bench", "quartic-refine:7:999999999"),
        # degree 120 j, past the parser's 100,000
        ("corpus", "--family", "multi-branch", "--j", "1000000"),
        ("corpus", "--family", "multi-branch", "--j", "834"),
        ("bench", "multi-branch:1000000"),
        # degree f0 * prod(e f) of a random chain
        ("corpus", "--family", "tower", "--f0", "1000", "--chain", "1:101:1"),
        ("corpus", "--family", "tower", "--f0", "2", "--chain", "1:1000:10,1:1:10"),
    ],
)
def test_corpus_and_bench_sizes_capped_exit_2(capsys, argv):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and "coefficient bits" in err
    assert time.perf_counter() - t0 < 1.0

@pytest.mark.parametrize(
    "argv, message",
    [
        (("corpus", "--family", "multi-branch", "--j", "9"), "j must be between 1 and 8"),
        (("bench", "multi-branch:24"), "j must be between 1 and 8"),
        # each level's irreducible search runs over the residue field below
        (("corpus", "--family", "tower", "--f0", "33", "--chain", "1:1:1"), "residue degree"),
        (("corpus", "--family", "tower", "--f0", "2", "--chain", "1:2:4,1:1:5"), "residue degree"),
        (("corpus", "--family", "tower", "--prime", "65537", "--chain", "1:1:1"), "16 bits"),
        # multiplying out the representative: each took from 3 s to past 150 s
        (("corpus", "--family", "tower", "--chain", ",".join(["1:2:1"] * 10)), "build work"),
        (("corpus", "--family", "tower", "--f0", "2", "--chain", "1:32:2,1:16:1"), "build work"),
        (("corpus", "--family", "tower", "--chain", "3:8:1,5:8:1,7:8:1,1:4:1"), "build work"),
        (("corpus", "--family", "tower", "--prime", "65521", "--chain", ",".join(["1:2:1"] * 10)),
         "build work"),
        (("corpus", "--family", "tower", "--prime", "65521", "--chain", "15:1024:1"), "build work"),
        (("corpus", "--family", "tower", "--chain", "1:20000:1"), "build work"),
        # one recursion per level: 800 levels ran out of stack
        (("corpus", "--family", "tower", "--chain", ",".join(["1:1:1"] * 800)), "32 levels"),
    ],
)
def test_corpus_build_work_capped_exit_2(capsys, argv, message):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and message in err
    assert time.perf_counter() - t0 < 0.5


def test_random_tower_at_its_caps():
    # residue degree 2 * 4 * 4 = 32 at a prime of 16 bits
    assert random_tower(65521, 2, [(1, 2, 4), (1, 1, 4)], seed=1).degree == 64


def test_factor_poly_file_not_utf8_exit_2(tmp_path, capsys):
    path = tmp_path / "poly.txt"
    path.write_bytes(b"x^2+\xff1")
    code, _, err = run_cli(capsys, "factor", "--prime", "2", "--poly-file", str(path))
    assert code == 2 and "syntax error at byte 4" in err


def test_factor_poly_file_and_coeffs_format(tmp_path, capsys):
    path = tmp_path / "poly.txt"
    path.write_text(poly_to_coeff_lines(F12) + "\n")
    code, out, _ = run_cli(
        capsys,
        "factor",
        "--prime",
        "2",
        "--poly-file",
        str(path),
        "--format",
        "coeffs",
    )
    assert code == 0
    assert "index: 33" in out


def test_factor_invalid_inputs_exit_2(capsys):
    cases = [
        ("factor", "--prime", "4", "--poly", "x^2+1"),
        ("factor", "--prime", "2", "--poly", "2*x^2+1"),  # non-monic
        ("factor", "--prime", "2", "--poly", "x^2"),  # not squarefree
        ("factor", "--prime", "2", "--poly", "x^2+*1"),  # syntax
        # hostile: deep nesting, powers past the size limits, a huge literal
        ("factor", "--prime", "2", "--poly", "(" * 5000 + "x" + ")" * 5000),
        ("factor", "--prime", "2", "--poly", "x^999999999"),
        ("factor", "--prime", "2", "--poly", "9^999999999"),
        ("factor", "--prime", "2", "--poly", "x+" + "1" * 400_000),
    ]
    for argv in cases:
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error:"), argv


def test_factor_not_squarefree_bounded_work(capsys):
    # A dense g^2 h of degree 360 with coefficients in [-99, 99] is refused
    # after a gcd over a few small primes, not a gcd over Z; a square with a
    # 31,700-bit root needs many small primes, but no prime of that size.
    rng = random.Random(360)
    g, h = (IntPolynomial([rng.randint(-99, 99) for _ in range(120)] + [1]) for _ in range(2))
    for text in [poly_to_expr(g * g * h), "(x+3^20000)^2"]:
        t0 = time.perf_counter()
        code, _, err = run_cli(capsys, "factor", "--prime", "2", "--poly", text)
        assert code == 2 and "squarefree" in err
        assert time.perf_counter() - t0 < 5.0


def test_parse_limits():
    assert parse_poly("(" * 100 + "x" + ")" * 100) == X
    assert parse_poly("x^100000").degree == 100_000
    assert parse_poly("(x+1)^500").degree == 500
    for text, offset in [
        ("(" * 101 + "x" + ")" * 101, 100),
        ("x^100001", 2),
        ("(x+1)^2000", 6),
        ("((x+1)^40)^40", 11),
        ("(x+1)^600*(x+1)^600", 9),
    ]:
        with pytest.raises(ParseError) as err:
            parse_poly(text)
        assert err.value.offset == offset, text


@pytest.mark.parametrize(
    "text, message",
    [
        ("1\n" * 100_002, "more than 100001 coefficient lines"),
        ("1\n" + "0\n" * 200_000 + "1", "more than 100001 coefficient lines"),
        ("1" * 315_653, "number too long"),
        ("1\n-" + "9" * 400_000, "number too long"),
        ("1_000\n1", "bad coefficient line: '_' in '1_000'"),
    ],
    ids=["lines-100002", "degree-200001", "digits-315653", "digits-400000-signed", "underscore"],
)
def test_coeffs_limits_exit_2_before_converting(capsys, text, message):
    # The coefficient format is held to the expression grammar's bounds on
    # the degree and on a number's length, and reads no '_' between digits.
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "factor", "--prime", "2", "--poly", text, "--format", "coeffs")
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_coeffs_limits_edges_parse():
    assert parse_coeffs("1" * 315_652).coeffs[0].bit_length() == 1_048_571
    assert parse_coeffs("1\n" + "0\n" * 99_999 + "1").degree == 100_000


_ATOMS = st.sampled_from(["x", "0", "1", "2", "13", "99"])
_GRAMMAR = st.recursive(
    _ATOMS,
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*"), inner).map("".join),
        st.tuples(inner, st.integers(0, 99)).map(lambda t: f"({t[0]})^{t[1]}"),
    ),
    max_leaves=6,
)
_NOISE = st.text(alphabet="x0123456789+-*^() ", max_size=24)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(_GRAMMAR, _NOISE),
    st.sampled_from(["2", "3", "13", "4"]),
    st.sampled_from([(), ("--disc",), ("--json", "--disc")]),
)
def test_factor_exit_code_contract(text, prime, flags):
    # The parser is what is fuzzed: factoring a degree of a few hundred takes
    # seconds, so texts that parse to a degree above 100 are skipped.
    try:
        assume(parse_poly(text).degree <= 100)
    except ParseError:
        pass
    assert _exit_code(["factor", "--prime", prime, "--poly", text, *flags]) in (0, 2, 3)


def _exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse rejects text that looks like an option
            return exc.code


_COEFF = st.one_of(
    st.integers(-(10**30), 10**30).map(str),
    st.integers(0, 99).map(lambda n: f"+{n}"),
    st.just(""),
    # a leading 1 over a block of zeros: x^n, the degree the skip is for
    st.integers(0, 150).map(lambda n: "\n".join(["1"] + ["0"] * n)),
)
_COEFF_JUNK = st.one_of(
    st.sampled_from([" ", "_", "+", "-", "1_000", "x", "7a", "--3", "+-1"]),
    st.text(alphabet="0123456789+-_x ", max_size=8),
)
# an optional monic head, then coefficient lines with at most one junk line
_COEFF_TEXT = st.tuples(
    st.sampled_from([[], ["1"]]),
    st.lists(_COEFF, max_size=4),
    st.lists(_COEFF_JUNK, max_size=1),
    st.lists(_COEFF, max_size=4),
).map(lambda parts: "\n".join(sum(parts, [])))


@settings(max_examples=200, deadline=None)
@given(
    _COEFF_TEXT,
    st.sampled_from(["2", "3", "13", "4"]),
    st.sampled_from([(), ("--disc",), ("--json", "--disc")]),
)
def test_factor_coeffs_exit_code_contract(text, prime, flags):
    # The coefficient reader's twin of the expression fuzz above.
    try:
        assume(parse_coeffs(text).degree <= 100)
    except InputError:
        pass
    argv = ["factor", "--prime", prime, "--poly", text, "--format", "coeffs", *flags]
    assert _exit_code(argv) in (0, 2, 3)


def test_factor_disc_multi_branch(capsys):
    # 13 divides no ramification index, so the tame formula gives the answer
    code, out, _ = run_cli(
        capsys, "factor", "--prime", "13", "--poly", poly_to_expr(multi_branch(1)),
        "--disc", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    tame = 2 * doc["index"] + sum(q["f"] * (q["e"] - 1) for q in doc["primes"])
    assert doc["disc_valuation"] == 43248 == tame


def test_determinism_modulo_timings(capsys):
    argv = (
        "factor", "--prime", "2", "--poly",
        poly_to_expr(F12), "--json", "--generators", "--seed", "9",
    )
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    a, b = json.loads(out1), json.loads(out2)
    a.pop("timings_ms"), b.pop("timings_ms")
    assert json.dumps(a) == json.dumps(b)


def test_corpus_tower_matches_library(capsys):
    for level in (2, 6):
        code, out, _ = run_cli(capsys, "corpus", "--family", "tower", "--level", str(level))
        assert code == 0
        assert parse_poly(out.strip()) == tower_phi(level)


def test_corpus_quartic(capsys):
    for p, k in [(7, 3), (1009, 500)]:
        _, out, _ = run_cli(
            capsys, "corpus", "--family", "quartic-refine", "--prime", str(p), "--k", str(k)
        )
        assert parse_poly(out.strip()) == quartic_refine(p, k)


def test_corpus_multi_branch_degree(capsys):
    _, out, _ = run_cli(capsys, "corpus", "--family", "multi-branch", "--j", "1")
    assert parse_poly(out.strip()).degree == 120


def test_corpus_random_chain(capsys):
    _, out, _ = run_cli(
        capsys,
        "corpus", "--family", "tower", "--chain", "2:1:2,1:2:1",
        "--f0", "2", "--prime", "3", "--seed", "4",
    )
    f = parse_poly(out.strip())
    assert f == random_tower(3, 2, [(2, 1, 2), (1, 2, 1)], seed=4)
    assert f.degree == 8 and f.coeffs[-1] == 1


def test_corpus_coeffs_format(capsys):
    _, out, _ = run_cli(
        capsys, "corpus", "--family", "tower", "--level", "1", "--format", "coeffs"
    )
    assert out.split() == ["1", "4", "16"]


def test_bench_csv(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "tower:1", "tower:2", "quartic-refine:7:3", "--repeat", "2"
    )
    lines = out.strip().splitlines()
    assert lines[0] == "name,degree,prime,index,ms"
    assert len(lines) == 4
    assert lines[1].startswith("tower:1,2,2,2,")
    assert lines[2].startswith("tower:2,4,2,16,")
    assert lines[3].startswith("quartic-refine:7:3,4,7,6,")


def test_bench_empty_set(capsys):
    code, out, _ = run_cli(capsys, "bench")
    assert code == 0
    assert out.strip() == "name,degree,prime,index,ms"


def test_bench_repeat_below_one_exit_2(capsys):
    for repeat in ("0", "-1"):
        code, out, err = run_cli(capsys, "bench", "--repeat", repeat, "tower:1")
        assert code == 2
        assert err.startswith("error:") and out == ""


def test_bench_malformed_spec_exit_2(capsys):
    specs = (
        "tower:abc",
        "tower:",
        "multi-branch:x",
        "quartic-refine:7:k",
        # a trailing parameter is refused, not dropped
        "tower:1:7",
        "multi-branch:1:9",
        "quartic-refine:7",
        "nosuch:1",
    )
    for spec in specs:
        code, out, err = run_cli(capsys, "bench", spec)
        assert code == 2, spec
        assert err.startswith("error:") and out == "", spec


@pytest.mark.parametrize(
    "argv, message",
    [
        (("factor", "--prime", "2", "--poly", "", "--format", "coeffs"), "empty coefficient list"),
        (
            ("factor", "--prime", "2", "--poly", "1\nx", "--format", "coeffs"),
            "bad coefficient line: invalid literal for int() with base 10: 'x'",
        ),
        (("corpus", "--family", "tower", "--chain", "1:2"), "chain levels look like h:e:f separated by commas"),
        (("corpus", "--family", "tower", "--chain", "1:2:x"), "chain entries must be integers"),
        (("corpus", "--family", "quartic-refine"), "quartic-refine needs --prime"),
        (("corpus", "--family", "tower", "--level", "9"), "tower level must be between 1 and 8"),
        (("corpus", "--family", "quartic-refine", "--prime", "4"), "p must be prime"),
        (("corpus", "--family", "quartic-refine", "--prime", "3", "--k", "0"), "k must be positive"),
        (("corpus", "--family", "tower", "--chain", "1:2:1", "--prime", "4"), "p must be prime"),
        (("corpus", "--family", "tower", "--chain", "1:2:1", "--f0", "0"), "f0 must be positive"),
        (
            ("corpus", "--family", "tower", "--chain", "2:2:1"),
            "each level needs h,e,f >= 1 with gcd(h,e) = 1",
        ),
        (("bench", "tower:1:7"), "bench spec tower:<n>"),
        (("bench", "quartic-refine:7"), "bench spec quartic-refine:<p>:<k>"),
        (("bench", "nosuch:1"), "unknown bench spec 'nosuch:1'"),
        (("corpus", "--family", "tower", "--chain", "1:2:1", "--prime", "0"), "p must be prime"),
    ],
)
def test_input_refusals_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_verify_is_not_a_subcommand(capsys):
    # the oracles live in tests/oracles.py; the CLI runs no self-checks
    with pytest.raises(SystemExit) as exc:
        main(["verify"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "invalid choice: 'verify'" in err


def test_refinement_degree_fault_exit_3(capsys, monkeypatch):
    # a representative of the wrong degree can only be a program fault
    real = Type.representative
    monkeypatch.setattr(Type, "representative", lambda t, h, e, psi: real(t, h, e, psi) * X)
    code, out, err = run_cli(capsys, "factor", "--prime", "2", "--poly", "x^2+4")
    assert code == 3 and out == ""
    assert err == "internal error: refinement changed the modulus degree\n"


def test_residual_factor_y_fault_exit_3(capsys, monkeypatch):
    # residual_on_side keeps y out of every residual polynomial, so a factor
    # y from the residue-field factorization can only be a program fault
    real = driver.ffactor

    def factor_as_y(K, f, rng=None):
        if K.level == 0:  # the factorization mod p at initialization
            return real(K, f, rng)
        return [([K.zero, K.one], len(f) - 1)]

    monkeypatch.setattr(driver, "ffactor", factor_as_y)
    code, out, err = run_cli(capsys, "factor", "--prime", "2", "--poly", "x^2+4")
    assert code == 3 and out == ""
    assert err == "internal error: residual factor vanishes at zero\n"


def test_arithmetic_precondition_fault_exit_3(capsys, monkeypatch):
    # no input reaches pval with 0: a failed arithmetic precondition is a
    # program fault, not a refused input
    monkeypatch.setattr(types, "vpoly", lambda f, p: pval(0, p))
    code, out, err = run_cli(capsys, "factor", "--prime", "2", "--poly", "x^2+4")
    assert code == 3 and out == ""
    assert err == "internal error: p-adic valuation of 0 requested\n"


def test_timings_cover_disc(capsys, monkeypatch):
    real = cli.disc_valuation

    def slow_disc(r):
        time.sleep(0.2)
        return real(r)

    monkeypatch.setattr(cli, "disc_valuation", slow_disc)
    code, out, _ = run_cli(capsys, "factor", "--prime", "2", "--poly", "x^2+4", "--disc", "--json")
    timings = json.loads(out)["timings_ms"]
    assert code == 0 and timings["factor"] >= 200 and timings["total"] >= 200


def test_factor_unreadable_file_exit_2(capsys):
    code, _, err = run_cli(capsys, "factor", "--prime", "2", "--poly-file", "/nonexistent.txt")
    assert code == 2
    assert err.startswith("error:") and "cannot read" in err
