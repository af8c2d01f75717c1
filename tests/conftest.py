"""Shared builders for the test suite."""

import itertools
from fractions import Fraction

import pytest

from pqpierce.family import Family
from pqpierce.geometry import ConvexPolygon, Interval, Point, intersect_bodies, pt


def box(x0, y0, x1, y1) -> ConvexPolygon:
    return ConvexPolygon.from_points([pt(x0, y0), pt(x1, y0), pt(x1, y1), pt(x0, y1)])


def intervals(*pairs) -> Family:
    return Family.of([Interval(Fraction(a), Fraction(b)) for a, b in pairs])


def brute_pair_regions(F: Family) -> dict:
    """Every meeting pair (i, j), i < j, with its region, each clipped
    afresh: the oracle for ``Family.pair_regions``."""
    pairs = {}
    for i, j in itertools.combinations(range(len(F)), 2):
        region = intersect_bodies([F.bodies[i], F.bodies[j]])
        if region is not None:
            pairs[i, j] = region
    return pairs


def circle_point(t) -> Point:
    """Rational point on the unit circle from the tan-half-angle parameter."""
    t = Fraction(t)
    den = 1 + t * t
    return Point((1 - t * t) / den, (2 * t) / den)


# tan(theta/2) approximations for nine roughly 40-degree-spaced angles,
# ordered counter-clockwise around the circle
RING9_PARAMS = (
    Fraction(-17, 3),
    Fraction(-26, 15),
    Fraction(-21, 25),
    Fraction(-4, 11),
    Fraction(0),
    Fraction(4, 11),
    Fraction(21, 25),
    Fraction(26, 15),
    Fraction(17, 3),
)


def ring_caps(params=RING9_PARAMS, width=5) -> Family:
    """Family of 'caps': hulls of `width` consecutive ring points.

    With nine points and width five this is non-3-degenerate (no point
    lies in six caps) yet every 6-subset carries at least 12 intersecting
    triples, so it feeds the end-to-end piercing checks a family whose
    premises genuinely hold.
    """
    ring = sorted((circle_point(t) for t in params), key=_angle_key)
    n = len(ring)
    caps = [
        ConvexPolygon.from_points([ring[(i + j) % n] for j in range(width)])
        for i in range(n)
    ]
    return Family.of(caps)


def _angle_key(p: Point):
    # exact CCW ordering starting from the negative-x axis: split by the
    # sign of y, then order by cos within each half
    if p.y < 0 or (p.y == 0 and p.x < 0):
        return (0, p.x)
    return (1, -p.x)


@pytest.fixture(scope="session")
def pinwheel9() -> Family:
    return ring_caps()
