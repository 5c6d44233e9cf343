import random
import time

import pytest

from montes import driver, types
from montes.cli import parse_poly
from montes.driver import disc_valuation, factor_prime
from montes.corpus import multi_branch, random_tower, tower_phi
from montes.errors import InvariantViolation, UnliftableTarget, ZeroAtTheta
from montes.ffield import factor as ffactor
from montes.idealgen import compute_generators
from montes.polygon import cut_sides, principal_sides, region_index
from montes.types import Type, complete_branch, value_at_prime
from montes.zpoly import IntPolynomial, is_squarefree, pval

from .oracles import (
    NotApplicable,
    full_contact,
    full_v,
    full_value_at_prime,
    sylvester_resultant,
    tame_disc_check,
)
from .test_pinned_outputs import A2
from .test_zpoly import F12

X = IntPolynomial([0, 1])


def order_zero_2adic_x():
    return Type.order_zero(2, [0, 1], 8)


def f8_base_type():
    # psi0 = y^3 + y + 1 over F_2, so F_1 is F_8
    return Type.order_zero(2, [1, 1, 0, 1], 2)


def f8_level_one():
    # commit (h=1, e=1, psi=y^2+y+1) on top of phi_1 = x^3 + x + 1
    t = f8_base_type()
    F1 = t.F1
    psi = [F1.one, F1.one, F1.one]
    return t.extended(1, 1, psi, 1)


def test_order_zero_polygon_of_x2_plus_2():
    t = Type.order_zero(2, [0, 1], 2)
    f = IntPolynomial([2, 0, 1])
    readings, cloud = t.newton_data(f)
    assert cloud == {0: 1, 2: 0}
    sides = principal_sides(sorted(cloud.items()))
    assert [(s.h, s.e) for s in sides] == [(1, 2)]
    res = t.residual_on_side(sides[0], readings, cloud)
    assert res == [t.F1.one, t.F1.one]  # y + 1
    rep = t.representative(1, 2, res)
    assert rep == IntPolynomial([2, 0, 1])


def test_contact_names_a_polygon_that_does_not_fall_to_abscissa_one():
    # contact reads the digits 0 and 1 of f; along x, the polygon of x^2 + 2
    # at 2 is one side from (0, 1) to (2, 0), with no point at abscissa 1
    t = Type.order_zero(2, [0, 1], 2)
    with pytest.raises(InvariantViolation, match="does not fall from abscissa 0 to 1"):
        types.contact(t, IntPolynomial([2, 0, 1]))


def test_representative_shifts_constant():
    t = f8_base_type()
    F1 = t.F1
    rep = t.representative(2, 1, [F1.one, F1.one])
    assert rep == IntPolynomial([5, 1, 0, 1])  # x^3 + x + 5


def test_forbidden_residual_root_zero():
    t = f8_base_type()
    F1 = t.F1
    with pytest.raises(InvariantViolation, match="residual factor with root zero"):
        t.representative(1, 1, [F1.zero, F1.one])


def test_f12_order_one_polygons():
    t = order_zero_2adic_x()
    readings, cloud = t.newton_data(F12)
    sides = principal_sides(sorted(cloud.items()))
    assert [(s.h, s.e) for s in sides] == [(1, 1), (1, 2)]
    assert sum(s.width for s in sides) == 8
    res = t.residual_on_side(sides[1], readings, cloud)
    assert res == [t.F1.one, t.F1.zero, t.F1.one]  # y^2 + 1 = (y+1)^2
    assert ffactor(t.F1, res, random.Random(1299709)) == [([t.F1.one, t.F1.one], 2)]

    t1 = Type.order_zero(2, [1, 1], 4)  # branch at psi0 = y + 1
    _, cloud1 = t1.newton_data(F12)
    sides1 = principal_sides(sorted(cloud1.items()))
    assert {(s.h, s.e) for s in sides1} == {(3, 2), (1, 2)}
    assert sum(s.width for s in sides1) == 4


def test_extended_level_data():
    t2 = f8_level_one()
    lvl = t2.levels[0]
    assert (lvl.h, lvl.e, lvl.ell, lvl.f, lvl.V) == (1, 1, 0, 2, 0)
    assert lvl.up_V == 2
    assert lvl.fld.q == 64
    assert lvl.up_w == lvl.fld.one
    assert (t2.e_prod, t2.f_prod) == (1, 6)

    assert t2.phi.degree == 6
    phi1 = IntPolynomial([1, 1, 0, 1])
    assert t2.phi == phi1 * phi1 + IntPolynomial([2]) * phi1 + IntPolynomial([4])
    # value of the pending modulus matches the committed formula
    assert t2.v(t2.phi, 2)[0] == 2


def test_lift_base_order_powers_of_two():
    t = Type.order_zero(2, [0, 1], 2)
    ext = t.extended(1, 2, [t.F1.one, t.F1.one], 1)
    one2 = ext.order_data(2)[0].one
    assert ext.lift(one2, 4, 2) == IntPolynomial([4])
    assert ext.lift(one2, 3, 2) == IntPolynomial([0, 2])
    assert ext.lift(one2, 2, 2) == IntPolynomial([2])
    for u in range(2, 8):
        q = ext.lift(one2, u, 2)
        assert ext.v(q, 2)[0] == u
        assert ext.cval(ext.v(q, 2), 2) == one2


def test_lift_roundtrip_f64():
    t2 = f8_level_one()
    F64 = t2.order_data(2)[0]
    rng = random.Random(11)
    for _ in range(30):
        rho = F64.rand(rng)
        while not rho:
            rho = F64.rand(rng)
        u = rng.randint(1, 9)
        q = t2.lift(rho, u, 2)
        assert q.degree < 6
        assert t2.v(q, 2)[0] == u
        assert t2.cval(t2.v(q, 2), 2) == rho


def test_lift_infeasible_target():
    t2 = f8_level_one()
    F64 = t2.order_data(2)[0]
    z = F64.y
    with pytest.raises(UnliftableTarget):
        t2.lift(z, 0, 2)
    q = t2.lift(z, 1, 2)
    assert t2.v(q, 2)[0] == 1 and t2.cval(t2.v(q, 2), 2) == z


def test_cval_multiplicative():
    t2 = f8_level_one()
    F64 = t2.order_data(2)[0]
    rng = random.Random(23)
    for _ in range(40):
        a = IntPolynomial([rng.randint(-40, 40) for _ in range(3)])
        b = IntPolynomial([rng.randint(-40, 40) for _ in range(3)])
        if a.is_zero or b.is_zero:
            continue
        assert t2.v(a * b, 2)[0] == t2.v(a, 2)[0] + t2.v(b, 2)[0]
        got = t2.cval(t2.v(a * b, 2), 2)
        want = F64.mul(t2.cval(t2.v(a, 2), 2), t2.cval(t2.v(b, 2), 2))
        assert got == want


def test_refinement_finds_exact_square_root():
    t = f8_base_type()
    phi1 = IntPolynomial([1, 1, 0, 1])
    f = (phi1 + IntPolynomial([2])) ** 2
    readings, cloud = t.newton_data(f)
    sides = principal_sides(sorted(cloud.items()))
    assert [(s.h, s.e) for s in sides] == [(1, 1)]
    res = t.residual_on_side(sides[0], readings, cloud)
    fct = ffactor(t.F1, res, random.Random(1299709))
    assert fct == [([t.F1.one, t.F1.one], 2)]
    t2 = t.refined(1, fct[0][0], 2)
    assert t2.phi == phi1 + IntPolynomial([2])
    assert t2.cut_h == 1 and t2.mult == 2 and t2.order == 0
    # the refined modulus divides f exactly: its expansion has a zero tail
    _, cloud2 = t2.newton_data(f)
    assert 0 not in cloud2 and 1 not in cloud2


def test_pending_value_matches_formula():
    # across a chain of commits the pending modulus value equals up_V
    t = Type.order_zero(2, [0, 1], 8)
    t2 = t.extended(1, 2, [t.F1.one, t.F1.one], 2)
    assert t2.phi == IntPolynomial([2, 0, 1])
    assert t2.v(t2.phi, 2)[0] == t2.order_data(2)[2] == 2
    F2fld = t2.order_data(2)[0]
    t3 = t2.extended(5, 1, [F2fld.one, F2fld.one], 1)
    assert t3.v(t3.phi, 3)[0] == t3.order_data(3)[2] == 7
    assert t3.phi.degree == 2
    assert (t3.e_prod, t3.f_prod) == (2, 1)


def test_second_order_polygon_pinned():
    # f = phi^2 + 8 x phi + 64 over the committed (x^2+2, -1/2, y+1) level
    t = Type.order_zero(2, [0, 1], 4)
    t2 = t.extended(1, 2, [t.F1.one, t.F1.one], 2)
    phi = IntPolynomial([2, 0, 1])
    f = phi * phi + IntPolynomial([0, 8]) * phi + IntPolynomial([64])
    readings, cloud = t2.newton_data(f)
    assert cloud == {0: 12, 1: 9, 2: 4}
    sides = principal_sides(sorted(cloud.items()))
    assert [(s.h, s.e) for s in sides] == [(4, 1)]
    res = t2.residual_on_side(sides[0], readings, cloud)
    F = t2.order_data(2)[0]
    assert res == [F.one, F.zero, F.one]


def test_mult_carried():
    t = f8_base_type()
    t2 = t.extended(1, 1, [t.F1.one, t.F1.one, t.F1.one], 3)
    assert t2.mult == 3


def test_one_expansion_per_coefficient_and_modulus(monkeypatch):
    # The polygon of a coefficient is read once: the residual polynomial of
    # a side comes from the readings newton_data kept, and value_at_prime
    # expands f once per modulus it passes through, refinements included.
    expansions = []
    expand = types.phi_expand

    def counted_expand(P, phi):
        expansions.append((P, phi))
        return expand(P, phi)

    moduli = []
    newton_data = Type.newton_data

    def counted_newton_data(self, P, *bound):
        out = newton_data(self, P, *bound)
        if P == F12:
            moduli.append(self.phi)
        return out

    residual_orders = []
    residual = Type.residual_on_side

    def checked_residual(self, *args):
        before = len(expansions)
        out = residual(self, *args)
        assert len(expansions) == before
        residual_orders.append(self.order)
        return out

    monkeypatch.setattr(types, "phi_expand", counted_expand)
    monkeypatch.setattr(Type, "newton_data", counted_newton_data)
    monkeypatch.setattr(Type, "residual_on_side", checked_residual)
    r = factor_prime(F12, 2)
    gens = compute_generators(r)
    assert max(residual_orders) >= 1

    rounds = []
    for rec in r.primes:
        for alpha in gens:
            rec.value_type = rec.complete = None
            moduli.clear()
            expansions.clear()
            value_at_prime(rec, alpha.num, F12, 2)
            assert len(set(moduli)) == len(moduli)
            assert sum(P == F12 for P, _ in expansions) == len(moduli)
            rounds.append(len(moduli) - 1)
    assert max(rounds) >= 1


def _branch_data(record, f, p):
    T, touch = complete_branch(record, f, p)
    levels = [(lvl.phi, lvl.h, lvl.e, list(lvl.psi)) for lvl in T.levels]
    return levels, T.phi, touch


def powers_plus_p_multiples(count, seed):
    """Seeded squarefree f = g^e + p*h, at p in {2, 3, 5, 7}, with 2 <= e <= 5
    and deg g in {1, 2, 3}, each with a prime that Dedekind's criterion
    finishes at a factor of multiplicity e > 1, as most draws have."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p = rng.choice((2, 3, 5, 7))
        g = IntPolynomial([rng.randrange(-p, p) for _ in range(rng.randint(1, 3))] + [1])
        base = g ** rng.randint(2, 5)
        f = base + IntPolynomial([rng.randint(-p, p) for _ in range(base.degree)]) * p
        if is_squarefree(f) and any(
            r.kind == "dedekind" and r.e > 1 for r in factor_prime(f, p).primes
        ):
            out.append((f, p))
    return out


def test_shortcut_builds_the_branch_the_loop_would(monkeypatch):
    # A prime that Dedekind's criterion finished at initialization gets its
    # complete branch from its modulus alone; with the criterion switched
    # off, the splitting loop builds that branch from the same modulus.
    # Where p divides no e_P, the discriminant also meets the tame identity.
    cases = [("x^3-3", 3), ("x^4-10", 5), ("x^12+3*x+3", 3), ("x^30-14", 3)]
    cases = [(parse_poly(text), p) for text, p in cases] + powers_plus_p_multiples(40, 21)
    tame = 0
    for f, p in cases:
        df = f.derivative()
        run = factor_prime(f, p)
        shortcut = [rec for rec in run.primes if rec.kind == "dedekind" and rec.e > 1]
        assert shortcut, f
        with monkeypatch.context() as m:
            m.setattr(driver, "maximal_at", lambda f, phi, p: False)
            looped = factor_prime(f, p).primes
        for rec in shortcut:
            (twin,) = [r for r in looped if r.tipo.levels and r.tipo.levels[0].phi == rec.dede_phi]
            assert (twin.e, twin.f) == (rec.e, rec.f)
            assert _branch_data(twin, f, p) == _branch_data(rec, f, p)
            assert value_at_prime(twin, df, f, p) == value_at_prime(rec, df, f, p)
        try:
            lhs, rhs = tame_disc_check(
                disc_valuation(run), p, run.index, [(r.e, r.f) for r in run.primes]
            )
        except NotApplicable:
            continue
        assert lhs == rhs, f
        tame += 1
    assert tame >= 10


def deep_cases():
    """The factorizations of the deep-branch benchmark, and seeded inputs
    with ramified Dedekind primes."""
    chains = ((3, 2, ((1, 2, 2), (1, 1, 2), (1, 3, 2))),
              (2, 2, ((1, 2, 3), (1, 1, 2), (1, 3, 1), (1, 1, 2))))
    return (
        [(tower_phi(level), 2) for level in range(1, 6)]
        + [(A2, 2), (multi_branch(1), 13)]
        + [(random_tower(p, f0, levels, 1), p) for p, f0, levels in chains]
        + powers_plus_p_multiples(40, 21)
    )


def test_the_loop_reads_what_the_whole_expansion_gives(monkeypatch):
    # A pop reads the digits 0..mult of f.  The principal part of its
    # polygon ends at abscissa mult, so the whole expansion gives the same
    # sides up to there, the same index region and the same residuals.
    bounded = Type.newton_data
    dropped = []

    def checked(self, P, top=None):
        readings, cloud = bounded(self, P, top)
        all_readings, all_cloud = bounded(self, P)
        sides = principal_sides(sorted(cloud.items()))
        full = principal_sides(sorted(all_cloud.items()))
        assert top == self.mult
        assert sides == [s for s in full if s.x1 <= top]
        assert cut_sides(sides, self.cut_h) == cut_sides(full, self.cut_h)
        assert region_index(sides, self.cut_h) == region_index(full, self.cut_h)
        for side in cut_sides(sides, self.cut_h):
            assert self.residual_on_side(side, readings, cloud) == self.residual_on_side(
                side, all_readings, all_cloud
            )
        dropped.append(len(all_cloud) - len(cloud))
        return readings, cloud

    monkeypatch.setattr(Type, "newton_data", checked)
    for f, p in deep_cases():
        factor_prime(f, p)
    assert len(dropped) > 50 and sum(dropped) > 100


def test_a_finished_prime_reads_what_the_whole_expansion_gives():
    # contact reads the digits 0 and 1 of f, and value_at_prime stops
    # expanding P once no later digit can reach the minimum; the readings
    # off every digit agree, and the polygon along a complete branch's
    # modulus is one side of width one.
    cases = deep_cases() + [(parse_poly("x^30-14"), 3), (parse_poly("x^60-14"), 5)]
    read = 0
    for f, p in cases:
        run = factor_prime(f, p)
        polys = [f.derivative()] + [alpha.num for alpha in compute_generators(run)]
        for rec in run.primes:
            T, touch = complete_branch(rec, f, p)
            assert touch == full_contact(T, f)
            for P in polys:
                try:
                    got = value_at_prime(rec, P, f, p)
                except ZeroAtTheta:
                    got = None
                assert got == full_value_at_prime(T, P, f)
                read += 1
    assert read > 250


def test_the_loop_expands_f_no_further_than_the_multiplicity(monkeypatch):
    # multi-branch:3 has three branches of degree 120 inside a degree-360 f;
    # a pop divides f by its modulus at most mult + 1 times, for the digits
    # 0..mult, and never all deg f / deg phi times.
    f = multi_branch(3)
    divisors = []
    divmod_monic = IntPolynomial.divmod_monic

    def counted(self, phi):
        divisors.append(phi)
        return divmod_monic(self, phi)

    newton_data = Type.newton_data
    excess = []

    def measured(self, P, *bound):
        phi = self.phi
        divisors.clear()
        out = newton_data(self, P, *bound)
        if P == f:
            excess.append(divisors.count(phi) - (self.mult + 1))
        return out

    monkeypatch.setattr(IntPolynomial, "divmod_monic", counted)
    monkeypatch.setattr(Type, "newton_data", measured)
    factor_prime(f, 13)
    assert excess and max(excess) <= 0


def test_v_stops_at_its_least_term_with_the_whole_reading(monkeypatch):
    # Type.v stops once no later digit can reach its least term; its value
    # and terms are those off every digit, on every reading of the loop, of
    # the discriminant and of the generators
    v = Type.v
    seen = []

    def checked(self, P, R):
        out = v(self, P, R)
        if R > 1:
            assert out == full_v(self, P, R)
            seen.append(R)
        return out

    monkeypatch.setattr(Type, "v", checked)
    chains = ((3, 2, ((1, 2, 2), (1, 1, 2), (1, 3, 2))),
              (2, 2, ((1, 2, 3), (1, 1, 2), (1, 3, 1), (1, 1, 2))))
    cases = [(tower_phi(level), 2) for level in range(1, 6)] + [(A2, 2), (multi_branch(1), 13)]
    cases += [(random_tower(p, f0, levels, 1), p) for p, f0, levels in chains]
    for f, p in cases:
        run = factor_prime(f, p)
        disc_valuation(run)
        if f.degree <= 120:
            compute_generators(run)
    assert len(seen) > 1000 and max(seen) >= 5


def test_value_at_prime_certifies_a_zero_on_the_component():
    # P vanishes on the components of its own primes, where its modulus
    # need not divide f = P*Q: a tie there cannot separate, and the value
    # passes the resultant bound within a few rounds.  At the other primes
    # the values of P add up to v_p(Res(Q, P)).
    pairs = [("x^2+2", "x^2+3", 2), ("x^3-3", "x^3-12", 3), ("x^4-2", "x^2+7", 2),
             ("x^2+x+1", "x^2-x+7", 7)]
    for a, b, p in pairs:
        P, Q = parse_poly(a), parse_poly(b)
        f = P * Q
        sums = {}
        for rec in factor_prime(f, p).primes:
            zero = []
            for G, H in ((P, Q), (Q, P)):
                t = time.perf_counter()
                try:
                    v = value_at_prime(rec, G, f, p)
                except ZeroAtTheta:
                    zero.append(G)
                else:
                    sums[H] = sums.get(H, 0) + rec.f * v
                assert time.perf_counter() - t < 1
            assert len(zero) == 1
        for G, H in ((P, Q), (Q, P)):
            assert sums.get(G, 0) == pval(sylvester_resultant(G.coeffs, H.coeffs), p)
