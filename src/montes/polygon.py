"""Newton polygon geometry.

Point clouds live in Z^2: abscissas index phi-adic digits, ordinates are
valuations (always integers in the scale of the working valuation).  A side
of slope -h/e carries h and e in lowest terms, so slopes are compared with
integers only.  A "principal" polygon keeps only the sides of strictly
negative slope, ordered by increasing slope, which is how they come off the
lower convex hull.
"""

from dataclasses import dataclass, field
from math import gcd

from .errors import InvariantViolation


@dataclass(frozen=True)
class Side:
    """The segment from (x0, y0) to (x1, y1), x0 < x1, of slope -h/e with
    e > 0 and gcd(h, e) = 1; it has steps = gcd(width, height) lattice steps
    of width e."""

    x0: int
    y0: int
    x1: int
    y1: int
    h: int = field(init=False)
    e: int = field(init=False)
    steps: int = field(init=False)

    def __post_init__(self):
        g = gcd(self.x1 - self.x0, self.y0 - self.y1)
        object.__setattr__(self, "h", (self.y0 - self.y1) // g)
        object.__setattr__(self, "e", (self.x1 - self.x0) // g)
        object.__setattr__(self, "steps", g)

    @property
    def width(self):
        return self.x1 - self.x0

    @property
    def height(self):
        return self.y0 - self.y1


def lower_hull(points):
    """Vertices of the lower convex hull, left to right.

    Collinear interior points are dropped, so consecutive vertices always
    define sides of strictly increasing slope.
    """
    pts = sorted(set(points))
    if not pts:
        raise InvariantViolation("lower hull of an empty point set")
    hull = []
    for p in pts:
        while len(hull) >= 2:
            (xa, ya), (xb, yb) = hull[-2], hull[-1]
            if (xb - xa) * (p[1] - ya) - (yb - ya) * (p[0] - xa) <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def principal_sides(points):
    """Sides of negative slope of the lower hull of the cloud."""
    hull = lower_hull(points)
    sides = []
    for (xa, ya), (xb, yb) in zip(hull, hull[1:]):
        if yb < ya:
            sides.append(Side(xa, ya, xb, yb))
    return sides


def cut_sides(sides, hcut):
    """Keep the sides of slope strictly below -hcut (hcut a non-negative
    int).  They form a prefix of the side list."""
    return [s for s in sides if s.h > hcut * s.e]


def polygon_index(sides):
    """Lattice points below or on the polygon, strictly above the horizontal
    through its last point, in columns after the first vertex.

    Computed by the closed formula sum (E_i H_i - E_i - H_i + d_i)/2 over the
    sides plus the cross terms sum_{i<j} E_i H_j.
    """
    total = 0
    for i, s in enumerate(sides):
        E, H, d = s.width, s.height, s.steps
        t = E * H - E - H + d
        if t % 2:
            raise InvariantViolation("odd lattice-point count on a side")
        total += t // 2
        for later in sides[i + 1:]:
            total += E * later.height
    return total


def region_index(sides, hcut):
    """Exact count of lattice points (x, y) with x >= 1 lying below or on the
    cut polygon and strictly above the line of slope -hcut through its last
    point.

    When the polygon starts at abscissa 0 this is the index of the cut
    polygon minus the triangle hcut*l*(l-1)/2, l the width of the cut.  When
    it starts at abscissa 1 (the expansion modulus divides the polynomial)
    the column x = 1 contributes its full height.
    """
    cut = cut_sides(sides, hcut)
    if not cut:
        return 0
    x0, y0 = cut[0].x0, cut[0].y0
    xt, yt = cut[-1].x1, cut[-1].y1
    if x0 > 1:
        raise InvariantViolation("cut polygon starts past abscissa 1")
    base = polygon_index(cut)
    col = (y0 - yt) if x0 == 1 else 0
    j = xt - max(1, x0)
    return base + col - hcut * j * (j + 1) // 2
