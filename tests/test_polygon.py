import itertools
import random

import pytest

from montes.errors import InvariantViolation
from montes.polygon import (
    Side,
    cut_sides,
    lower_hull,
    principal_sides,
    region_index,
)

from .oracles import lattice_index_oracle


def vertices_of(sides):
    if not sides:
        return []
    vs = [(sides[0].x0, sides[0].y0)]
    vs.extend((s.x1, s.y1) for s in sides)
    return vs


def test_hull_and_principal_pinned():
    cloud = [(0, 3), (1, 1), (2, 0), (3, 0), (4, 1)]
    assert lower_hull(cloud) == cloud
    sides = principal_sides(cloud)
    assert [(s.x0, s.y0, s.x1, s.y1) for s in sides] == [(0, 3, 1, 1), (1, 1, 2, 0)]
    assert [(s.h, s.e) for s in sides] == [(2, 1), (1, 1)]
    assert region_index(sides, 0) == 1
    assert lattice_index_oracle(vertices_of(sides)) == 1


def test_hull_drops_interior_and_collinear():
    cloud = [(0, 6), (1, 5), (2, 2), (3, 1), (4, 0), (2, 4)]
    hull = lower_hull(cloud)
    assert hull == [(0, 6), (2, 2), (4, 0)]
    sides = principal_sides(cloud)
    assert [(s.h, s.e) for s in sides] == [(2, 1), (1, 1)]
    assert sides[0].steps == 2 and sides[0].h == 2 and sides[0].e == 1


def test_side_invariants():
    s = Side(1, 9, 5, 3)
    assert (s.h, s.e) == (3, 2)
    assert s.width == 4 and s.height == 6 and s.steps == 2


def test_cut_and_region_index_pinned():
    sides = principal_sides([(0, 4), (1, 1)])
    assert cut_sides(sides, 1) == sides
    assert cut_sides(sides, 3) == []
    assert region_index(sides, 1) == 0
    assert lattice_index_oracle(vertices_of(sides), 1) == 0


def test_one_sided_examples():
    # (0,4) -> (2,0): two interior columns hold 2 points
    sides = principal_sides([(0, 4), (2, 0)])
    assert region_index(sides, 0) == 2
    assert lattice_index_oracle([(0, 4), (2, 0)]) == 2
    # H = 1 side is index-free
    assert region_index(principal_sides([(0, 1), (3, 0)]), 0) == 0


def test_region_index_start_at_one():
    # cloud without abscissa 0: the column x = 1 counts fully
    sides = principal_sides([(1, 3), (2, 1), (3, 0)])
    assert region_index(sides, 0) == 1 + 3
    assert lattice_index_oracle(vertices_of(sides), 0) == 4


def _random_cloud(rng, with_zero):
    xs = sorted(rng.sample(range(0 if with_zero else 1, 9), rng.randint(2, 6)))
    xs[0] = 0 if with_zero else 1
    drop = rng.randint(1, 6)
    cloud = []
    y = rng.randint(8, 30)
    for x in xs:
        cloud.append((x, y))
        y = max(0, y - rng.randint(0, 3 * drop))
    cloud[-1] = (cloud[-1][0], 0)
    return cloud


def test_region_matches_oracle_randomized():
    rng = random.Random(20260819)
    for trial in range(400):
        cloud = _random_cloud(rng, with_zero=trial % 2 == 0)
        sides = principal_sides(cloud)
        for h in (0, 1, 2, 3):
            cut = cut_sides(sides, h)
            got = region_index(sides, h)
            want = lattice_index_oracle(vertices_of(cut), h)
            assert got == want, (cloud, h, got, want)


def test_region_matches_oracle_on_every_small_cloud():
    # One point per column, ordinates 0..5, widths 1..5, starting at
    # abscissa 0 or 1: every principal polygon in that box is the hull of
    # such a cloud, since a column off its vertices can take the ceiling of
    # the polygon's height there.
    polygons = {}
    for x0 in (0, 1):
        for width in range(1, 6):
            for ys in itertools.product(range(6), repeat=width + 1):
                sides = principal_sides(list(zip(range(x0, x0 + width + 1), ys)))
                polygons[tuple(vertices_of(sides))] = sides
    for sides in polygons.values():
        for h in (0, 1, 2, 3):
            want = lattice_index_oracle(vertices_of(cut_sides(sides, h)), h)
            assert region_index(sides, h) == want, (vertices_of(sides), h)


def test_region_index_refuses_a_start_past_one():
    with pytest.raises(InvariantViolation, match="past abscissa 1"):
        region_index(principal_sides([(2, 3), (3, 0)]), 0)


def test_empty_cloud_raises():
    with pytest.raises(InvariantViolation, match="empty point set"):
        lower_hull([])
