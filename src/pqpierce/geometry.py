"""Exact rational primitives: intervals, convex polygons, lines.

All coordinates are `fractions.Fraction`, so every predicate (membership,
sidedness, intersection emptiness) is decided exactly.  That matters here:
the lexicographic-extremum constructions built on top of this module are
degenerate-sensitive, and an epsilon tolerance would silently break the
tightness arguments they support.

Degenerate convex polygons are first class: a single point has one vertex,
a segment has two.  Intersections clip one halfplane at a time in a single
order-preserving walk (Sutherland and Hodgman 1974).  Everything is
immutable after construction and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Iterable, Optional, Sequence, Union

from .errors import DimensionMismatchError, PremiseViolationError

#: Exact scalar type used for every coordinate.
Rational = Fraction


def rational(value) -> Fraction:
    """Coerce an int, string ("3/4"), or Fraction to an exact Fraction."""
    return Fraction(value)


@dataclass(frozen=True, order=True)
class Point:
    """A 2D point; comparison is lexicographic (x first, then y)."""

    x: Fraction
    y: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x", Fraction(self.x))
        object.__setattr__(self, "y", Fraction(self.y))

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def scaled(self, t) -> "Point":
        t = Fraction(t)
        return Point(self.x * t, self.y * t)


def pt(x, y) -> Point:
    """Shorthand constructor accepting ints, strings, or Fractions."""
    return Point(Fraction(x), Fraction(y))


def dot(u: Point, v: Point) -> Fraction:
    return u.x * v.x + u.y * v.y


def orient(o: Point, a: Point, b: Point) -> Fraction:
    """Twice the signed area of (o, a, b); > 0 means a left turn."""
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def sqdist(u: Point, v: Point) -> Fraction:
    d = u - v
    return d.x * d.x + d.y * d.y


@dataclass(frozen=True, order=True)
class Interval:
    """A compact nonempty segment [lo, hi] on the real line."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"empty interval: lo={self.lo} > hi={self.hi}")

    @property
    def dimension(self) -> int:
        return 1

    def contains(self, x) -> bool:
        x = Fraction(x)
        return self.lo <= x <= self.hi


def convex_hull(points: Iterable[Point]) -> tuple[Point, ...]:
    """Convex hull in counter-clockwise order, lexicographically smallest
    vertex first, collinear interior points dropped.

    Collinear inputs hull to their two extreme points; coincident inputs
    to a single point.  This is also the canonical vertex form used by
    ConvexPolygon, so ``convex_hull(poly.vertices) == poly.vertices``.
    """
    pts = sorted(set(points))
    if len(pts) <= 1:
        return tuple(pts)
    lower: list[Point] = []
    for p in pts:
        while len(lower) >= 2 and orient(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and orient(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return tuple(lower[:-1] + upper[:-1])


@dataclass(frozen=True)
class ConvexPolygon:
    """A compact convex region given by its canonical vertex tuple.

    Vertices are counter-clockwise starting from the lexicographically
    smallest one, with no three collinear vertices stored.  One vertex is
    a point, two are a segment.  Construction checks in one pass that the
    argument is canonical (lexmin first, a strict left turn at every vertex,
    lexicographic order rising once and then falling once) and rejects it
    if not; use :meth:`from_points` to build from an arbitrary point set.
    """

    vertices: tuple[Point, ...]

    def __post_init__(self):
        verts = tuple(self.vertices)
        object.__setattr__(self, "vertices", verts)
        if not verts:
            raise ValueError("polygon needs at least one vertex")
        n = len(verts)
        rise = [u < w for u, w in zip(verts, verts[1:] + verts[:1])]
        if rise != sorted(rise, reverse=True) or rise[-1] or (n > 1 and not rise[0]) or (
                n > 2 and any(orient(verts[i - 2], verts[i - 1], verts[i]) <= 0 for i in range(n))):
            raise ValueError(f"vertices not in canonical convex position: {verts}")

    @classmethod
    def from_points(cls, points: Iterable[Point]) -> "ConvexPolygon":
        hull = convex_hull(points)
        if not hull:
            raise ValueError("no points given")
        return cls(hull)

    @property
    def dimension(self) -> int:
        return 2

    def halfplanes(self) -> tuple[tuple[Fraction, Fraction, Fraction], ...]:
        """Halfplanes (a, b, c), each meaning a*x + b*y <= c, whose
        intersection is exactly this region (degenerate cases included)."""
        return self._halfplanes

    @cached_property
    def _halfplanes(self) -> tuple[tuple[Fraction, Fraction, Fraction], ...]:
        v = self.vertices
        if len(v) <= 2:
            # on the supporting line, and between the endpoints; a point is
            # the segment from itself to itself along the x-axis
            u, w = v[0], v[-1]
            d = w - u if len(v) == 2 else Point(1, 0)
            return (
                (d.y, -d.x, d.y * u.x - d.x * u.y),
                (-d.y, d.x, -(d.y * u.x - d.x * u.y)),
                (-d.x, -d.y, -(d.x * u.x + d.y * u.y)),
                (d.x, d.y, d.x * w.x + d.y * w.y),
            )
        planes = []
        n = len(v)
        for i in range(n):
            u, w = v[i], v[(i + 1) % n]
            a = w.y - u.y
            b = u.x - w.x
            planes.append((a, b, a * u.x + b * u.y))
        return tuple(planes)

    def contains(self, p: Point) -> bool:
        return all(a * p.x + b * p.y <= c for a, b, c in self.halfplanes())


ConvexBody = Union[Interval, ConvexPolygon]


@dataclass(frozen=True, order=True)
class Line:
    """The locus a*x + b*y = c with (a, b) != (0, 0).

    Stored in a normalized representative: integer coefficients with no
    common factor and the leading nonzero of (a, b) positive, so equal
    lines compare equal.
    """

    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self):
        a, b, c = Fraction(self.a), Fraction(self.b), Fraction(self.c)
        if a == 0 and b == 0:
            raise ValueError("degenerate line: a = b = 0")
        scale = a.denominator * b.denominator * c.denominator
        ia, ib, ic = int(a * scale), int(b * scale), int(c * scale)
        g = gcd(gcd(abs(ia), abs(ib)), abs(ic))
        ia, ib, ic = ia // g, ib // g, ic // g
        if ia < 0 or (ia == 0 and ib < 0):
            ia, ib, ic = -ia, -ib, -ic
        object.__setattr__(self, "a", Fraction(ia))
        object.__setattr__(self, "b", Fraction(ib))
        object.__setattr__(self, "c", Fraction(ic))

    @classmethod
    def from_point_direction(cls, p: Point, d: Point) -> "Line":
        if d.x == 0 and d.y == 0:
            raise ValueError("zero direction")
        return cls(d.y, -d.x, d.y * p.x - d.x * p.y)

    def side(self, p: Point) -> Fraction:
        """Exact signed evaluation a*x + b*y - c (0 means on the line)."""
        return self.a * p.x + self.b * p.y - self.c

    def direction(self) -> Point:
        return Point(-self.b, self.a)

    def some_point(self) -> Point:
        """A rational point on the line."""
        if self.b != 0:
            return Point(Fraction(0), self.c / self.b)
        return Point(self.c / self.a, Fraction(0))


def _clip_halfplane(
    verts: tuple[Point, ...], a: Fraction, b: Fraction, c: Fraction
) -> Optional[tuple[Point, ...]]:
    """Clip canonical convex vertices to {a*x + b*y <= c}; None if empty.

    One walk keeps the inner vertices and inserts each strict edge crossing.
    A crossing lies strictly inside an edge, so no duplicate or collinear
    triple arises and the output is canonical once rotated to its lexmin.
    """
    sides = [a * v.x + b * v.y - c for v in verts]
    # a Fraction has the sign of its numerator, an int compare is cheaper
    signs = [s.numerator for s in sides]
    if max(signs) <= 0:
        return verts
    n = len(verts)
    kept: list[Point] = []
    for i in range(n):
        j = (i + 1) % n
        if signs[i] <= 0:
            kept.append(verts[i])
        # a segment's one edge is walked once, from its first end
        if (signs[i] < 0 < signs[j] or signs[j] < 0 < signs[i]) and (n > 2 or i == 0):
            u, w = verts[i], verts[j]
            t = sides[i] / (sides[i] - sides[j])
            kept.append(Point(u.x + (w.x - u.x) * t, u.y + (w.y - u.y) * t))
    if not kept:
        return None
    k = kept.index(min(kept))
    return tuple(kept[k:] + kept[:k])


def clip_polygon(body: ConvexPolygon, a, b, c) -> Optional[ConvexPolygon]:
    """The part of the polygon in {a*x + b*y <= c}, or None when empty."""
    verts = _clip_halfplane(body.vertices, Fraction(a), Fraction(b), Fraction(c))
    return None if verts is None else ConvexPolygon(verts)


def intersect_bodies(bodies: Sequence[ConvexBody]) -> Optional[ConvexBody]:
    """Exact common intersection of the bodies, or None when empty.

    All bodies must share one dimension.  In 2D the result is computed by
    successively clipping the first body with every supporting halfplane
    of the others.
    """
    bodies = list(bodies)
    if not bodies:
        raise ValueError("need at least one body")
    dims = {body.dimension for body in bodies}
    if len(dims) != 1:
        raise DimensionMismatchError(f"mixed dimensions: {sorted(dims)}")
    if dims == {1}:
        lo = max(body.lo for body in bodies)
        hi = min(body.hi for body in bodies)
        return Interval(lo, hi) if lo <= hi else None
    verts = bodies[0].vertices
    for body in bodies[1:]:
        for a, b, c in body.halfplanes():
            verts = _clip_halfplane(verts, a, b, c)
            if verts is None:
                return None
    return ConvexPolygon(verts)


def lexmax_body(body: ConvexBody):
    """The unique lexicographically maximal point of the body.

    For a polygon this is a vertex; for an interval it is ``hi`` (the 1D
    embedding of the same idea).
    """
    if body.dimension == 1:
        return body.hi
    return max(body.vertices)


def body_contains_point(body: ConvexBody, p) -> bool:
    """Exact closed-set membership; 1D points are plain rationals."""
    if body.dimension == 1:
        if isinstance(p, Point):
            raise DimensionMismatchError("interval queried with a 2D point")
        return body.contains(p)
    if not isinstance(p, Point):
        raise DimensionMismatchError("polygon queried with a 1D value")
    return body.contains(p)


def line_meets_body(line: Line, body: ConvexBody) -> bool:
    """True iff the body's vertices do not all lie strictly on one side."""
    if body.dimension != 2:
        raise DimensionMismatchError("line incidence is a 2D predicate")
    sides = [line.side(v) for v in body.vertices]
    return min(sides) <= 0 <= max(sides)


def line_trace(body: ConvexPolygon, line: Line) -> Optional[Interval]:
    """The t for which ``line.some_point() + t * line.direction()`` lies in
    the body, as an interval, or None when the body misses the line."""
    below = _clip_halfplane(body.vertices, line.a, line.b, line.c)
    trace = below and _clip_halfplane(below, -line.a, -line.b, -line.c)
    if trace is None:
        return None
    base, direction = line.some_point(), line.direction()
    scale = dot(direction, direction)
    ts = [dot(v - base, direction) / scale for v in trace]
    return Interval(min(ts), max(ts))


def _edges(poly: ConvexPolygon) -> list[tuple[Point, Point]]:
    """The closed boundary's edges; a point is one edge of length zero."""
    v = poly.vertices
    return [(v[i - 1], v[i]) for i in range(len(v))]


def _closest_on_segment(p: Point, u: Point, w: Point) -> Point:
    d = w - u
    den = dot(d, d)
    if den == 0:
        return u
    t = dot(p - u, d) / den
    t = min(max(t, Fraction(0)), Fraction(1))
    return u + d.scaled(t)


def _closest_pair(A: ConvexPolygon, B: ConvexPolygon) -> tuple[Point, Point]:
    """Deterministic closest pair (point of A, point of B); exact, and
    attained at a vertex of one body and a vertex or edge of the other."""
    cands = [(v, _closest_on_segment(v, u, w)) for v in A.vertices for u, w in _edges(B)]
    cands += [(_closest_on_segment(v, u, w), v) for v in B.vertices for u, w in _edges(A)]
    return min(cands, key=lambda pair: (sqdist(pair[0], pair[1]), pair))


def separating_line(A: ConvexPolygon, B: ConvexPolygon) -> Line:
    """A line with disjoint A and B strictly on opposite sides.

    Computed as the perpendicular bisector of the closest pair, which for
    disjoint compact convex sets always separates strictly and has
    rational coordinates.  Raises PremiseViolationError if the bodies
    intersect.
    """
    if A.dimension != 2 or B.dimension != 2:
        raise DimensionMismatchError("separating_line is 2D only")
    if intersect_bodies([A, B]) is not None:
        raise PremiseViolationError("bodies intersect; no separating line exists")
    pa, pb = _closest_pair(A, B)
    n = pb - pa
    mid = (pa + pb).scaled(Fraction(1, 2))
    line = Line(n.x, n.y, dot(n, mid))
    sa = [line.side(v) for v in A.vertices]
    sb = [line.side(v) for v in B.vertices]
    if not ((max(sa) < 0 < min(sb)) or (max(sb) < 0 < min(sa))):
        raise AssertionError("bisector failed to separate; closest pair bug")
    return line
