"""Newton polygon geometry.

Point clouds live in Z^2: abscissas index phi-adic digits, ordinates are
valuations (always integers in the scale of the working valuation).  A side
of slope -h/e carries h and e in lowest terms, so slopes are compared with
integers only.  A "principal" polygon keeps only the sides of strictly
negative slope, ordered by increasing slope, which is how they come off the
lower convex hull.  Its index is the paper's count of the lattice points
on or under it, taken column by column.
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


def region_index(sides, hcut):
    """Lattice points (x, y) with x >= 1 lying below or on the cut polygon
    and strictly above the line of slope -hcut through its last point,
    counted column by column.  The polygon starts at abscissa 1 when the
    expansion modulus divides the polynomial; column 1 then counts in full.
    """
    cut = cut_sides(sides, hcut)
    if not cut:
        return 0
    if cut[0].x0 > 1:
        raise InvariantViolation("cut polygon starts past abscissa 1")
    xt, yt = cut[-1].x1, cut[-1].y1
    total, x = 0, 1
    for s in cut:
        while x <= s.x1:
            total += s.y0 + s.h * (s.x0 - x) // s.e - yt - hcut * (xt - x)
            x += 1
    return total
