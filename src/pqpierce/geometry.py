"""Exact rational primitives: intervals, convex polygons, lines.

Every predicate (membership, sidedness, intersection emptiness) is decided
exactly.  That matters here: the lexicographic-extremum constructions
built on top of this module are degenerate-sensitive, and an epsilon
tolerance would silently break the tightness arguments they support.

Points and interval ends are `fractions.Fraction`; a line keeps its
primitive integer coefficients.  A polygon computes on integers: each
vertex is the primitive triple (X, Y, W), W > 0, of the point
(X/W, Y/W), and each halfplane the primitive triple (A, B, C) of
A*x + B*y <= C, so a side is A*X + B*Y - C*W.  The hull, clips,
membership, line incidence, traces, the closest pair of a separating line
and the canonical check are integer arithmetic, and a region turns its
vertices into `Point`s only when they are read.  The one hull is a
monotone chain over integer pairs that share one denominator, so a
polygon built from exact numerators and denominators (as a family
document gives them) never passes through `Fraction`.  Each new vertex of
a clip is the primitive form of the meeting point of two input edge
lines, so coordinates do not grow along a chain of clips.

A caller asks only for what it reads, and each 2D question has one way
in.  A region is `intersect_bodies`, the one chain of clips, which stops
at the first empty clip and so builds no polygon for bodies that miss.
The canonical check runs, as an explicit raise, only on the vertex list
a caller hands to `ConvexPolygon(vertices)`: hulls and clip regions are
canonical by construction, held so by tests, and skip it.
A nerve's triple flag clips nothing: `_pair_region_meets` decides
whether the region of a meeting pair meets a body that meets both
members by the body's halfplanes alone, each against the region's
vertices, a one-sided separating axis test.  A point is `_contains_hom`,
and a line is `line_meets_body` or `line_trace`.  These, a polygon's
lexmax (`_lexmax`) and one halfplane clip (`_clip_halfplane`) work on
vertex triples, so the 2D candidate-point scan and the line lemma's
witness search of the layers above make a `Point` only for the point
they return.

Degenerate convex polygons are first class: a single point has one vertex,
a segment has two.  Intersections clip one halfplane at a time in a single
order-preserving walk (Sutherland and Hodgman 1974).  Everything is
immutable after construction and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Optional, Sequence, Union

from .errors import DimensionMismatchError, PremiseViolationError

#: Exact scalar type used for every coordinate.
Rational = Fraction

#: A primitive integer triple: the point (X/W, Y/W) with W > 0, or the
#: halfplane A*x + B*y <= C.
Homogeneous = tuple[int, int, int]


@dataclass(frozen=True, order=True)
class Point:
    """A 2D point; comparison is lexicographic (x first, then y)."""

    x: Fraction
    y: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x", Fraction(self.x))
        object.__setattr__(self, "y", Fraction(self.y))

    @classmethod
    def _exact(cls, x: Fraction, y: Fraction) -> "Point":
        """A point from two Fractions, without the coercion of ``Point``."""
        p = object.__new__(cls)
        p.__dict__.update(x=x, y=y)
        return p

    def __add__(self, other: "Point") -> "Point":
        return Point._exact(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point._exact(self.x - other.x, self.y - other.y)

    def scaled(self, t) -> "Point":
        t = Fraction(t)
        return Point._exact(self.x * t, self.y * t)


def pt(x, y) -> Point:
    """Shorthand constructor accepting ints, strings, or Fractions."""
    return Point(Fraction(x), Fraction(y))


def _homogeneous(p: Point) -> Homogeneous:
    """The primitive triple of a point: W is the lcm of the two
    denominators, which leaves no factor common to X, Y and W."""
    xd, yd = p.x.denominator, p.y.denominator
    w = lcm(xd, yd)
    return p.x.numerator * (w // xd), p.y.numerator * (w // yd), w


def _point(v: Homogeneous) -> Point:
    X, Y, W = v
    return Point._exact(Fraction(X, W), Fraction(Y, W))


def _primitive(a: int, b: int, c: int) -> Homogeneous:
    g = gcd(a, b, c) or 1
    return a // g, b // g, c // g


def _integer_plane(a, b, c) -> Homogeneous:
    """Rational coefficients scaled to their primitive integer triple."""
    if type(a) is type(b) is type(c) is int:
        return _primitive(a, b, c)
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    m = lcm(a.denominator, b.denominator, c.denominator)
    return _primitive(a.numerator * (m // a.denominator), b.numerator * (m // b.denominator),
                      c.numerator * (m // c.denominator))


def _lex_less(u: Homogeneous, w: Homogeneous) -> bool:
    """Whether u comes before w, x first, then y."""
    dx = u[0] * w[2] - w[0] * u[2]
    return dx < 0 or (dx == 0 and u[1] * w[2] < w[1] * u[2])


def _left_turn(o: Homogeneous, a: Homogeneous, b: Homogeneous) -> bool:
    """Whether o, a, b turn strictly left: the sign of the 3x3 determinant
    of the triples, which is W_o*W_a*W_b > 0 times twice the signed area
    of the triangle."""
    return (o[0] * (a[1] * b[2] - a[2] * b[1]) - o[1] * (a[0] * b[2] - a[2] * b[0])
            + o[2] * (a[0] * b[1] - a[1] * b[0])) > 0


def _edge_plane(u: Homogeneous, w: Homogeneous) -> Homogeneous:
    """The halfplane left of the directed line u -> w."""
    return _primitive(w[1] * u[2] - u[1] * w[2], u[0] * w[2] - w[0] * u[2],
                      u[0] * w[1] - w[0] * u[1])


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


def _hull(ratios: Iterable[tuple[int, int, int, int]]) -> tuple[Homogeneous, ...]:
    """The primitive vertex triples, in canonical order, of the hull of the
    points (xn/xd, yn/yd), xd, yd > 0.

    Every point is put on the lcm of all the denominators, and a monotone
    chain (Andrew 1979) runs on the distinct integer pairs.  The hull is
    canonical by construction: the sorted input puts the lexmin first,
    strict left turns drop collinear points, and the chain runs
    counter-clockwise, its lower half first.
    """
    ratios = list(ratios)
    scale = lcm(*(d for _, xd, _, yd in ratios for d in (xd, yd)))
    pts = sorted({(xn * (scale // xd), yn * (scale // yd)) for xn, xd, yn, yd in ratios})

    def chain(order):
        kept: list[tuple[int, int]] = []
        for x, y in order:
            while len(kept) >= 2:
                (ox, oy), (ax, ay) = kept[-2], kept[-1]
                if (ax - ox) * (y - oy) > (ay - oy) * (x - ox):
                    break
                kept.pop()
            kept.append((x, y))
        return kept[:-1]

    if len(pts) > 1:
        pts = chain(pts) + chain(reversed(pts))
    return tuple(_primitive(x, y, scale) for x, y in pts)


def _ratios(points: Iterable[Point]):
    return ((p.x.numerator, p.x.denominator, p.y.numerator, p.y.denominator) for p in points)


def convex_hull(points: Iterable[Point]) -> tuple[Point, ...]:
    """Convex hull in counter-clockwise order, lexicographically smallest
    vertex first, collinear interior points dropped.

    Collinear inputs hull to their two extreme points; coincident inputs
    to a single point.  This is also the canonical vertex form used by
    ConvexPolygon, so ``convex_hull(poly.vertices) == poly.vertices``.
    """
    return tuple(map(_point, _hull(_ratios(points))))


@dataclass(frozen=True, init=False, repr=False)
class ConvexPolygon:
    """A compact convex region given by its canonical vertex tuple.

    Vertices are counter-clockwise starting from the lexicographically
    smallest one, with no three collinear vertices stored.  One vertex is
    a point, two are a segment.  Construction checks in one pass that the
    argument is canonical (lexmin first, a strict left turn at every vertex,
    lexicographic order rising once and then falling once) and rejects it
    if not; use :meth:`from_points` to build from an arbitrary point set.
    Hulls and the regions of `intersect_bodies` are canonical by
    construction, held so by tests, and skip the check.
    Equality, hashing and every predicate read the integer form.
    """

    _hom: tuple[Homogeneous, ...]

    def __init__(self, vertices: Iterable[Point]):
        verts = tuple(vertices)
        self.__dict__.update(vertices=verts, _hom=tuple(map(_homogeneous, verts)))
        self.__post_init__()

    @classmethod
    def _from_hom(cls, hom: tuple[Homogeneous, ...]) -> "ConvexPolygon":
        """A polygon from its integer form, without the canonical check:
        the caller vouches that ``hom`` is canonical.  Its Points are made
        when read."""
        poly = object.__new__(cls)
        poly.__dict__["_hom"] = hom
        return poly

    def __post_init__(self):
        """The canonical check, on the integer form."""
        hom = self._hom
        n = len(hom)
        if not n:
            raise ValueError("polygon needs at least one vertex")
        rise = [_lex_less(u, w) for u, w in zip(hom, hom[1:] + hom[:1])]
        if rise != sorted(rise, reverse=True) or rise[-1] or (n > 1 and not rise[0]) or (
                n > 2 and not all(_left_turn(hom[i - 2], hom[i - 1], hom[i]) for i in range(n))):
            raise ValueError(f"vertices not in canonical convex position: {self.vertices}")

    def __repr__(self):
        return f"ConvexPolygon(vertices={self.vertices!r})"

    @cached_property
    def vertices(self) -> tuple[Point, ...]:
        return tuple(map(_point, self._hom))

    @classmethod
    def from_points(cls, points: Iterable[Point]) -> "ConvexPolygon":
        return cls._from_ratios(_ratios(points))

    @classmethod
    def _from_ratios(cls, ratios: Iterable[tuple[int, int, int, int]]) -> "ConvexPolygon":
        """The hull of the points (xn/xd, yn/yd), xd, yd > 0, without the
        canonical check: `_hull` builds it canonical."""
        hull = _hull(ratios)
        if not hull:
            raise ValueError("no points given")
        return cls._from_hom(hull)

    @property
    def dimension(self) -> int:
        return 2

    @cached_property
    def _planes(self) -> tuple[Homogeneous, ...]:
        """Primitive halfplanes (A, B, C), each meaning A*x + B*y <= C,
        whose intersection is exactly this region (degenerate cases
        included)."""
        v = self._hom
        if len(v) > 2:
            return tuple(_edge_plane(u, w) for u, w in zip(v, v[1:] + v[:1]))
        # on the supporting line both ways, and between the endpoints; a
        # point is the segment from itself to itself along the x-axis
        (uX, uY, uW), (wX, wY, wW) = v[0], v[-1]
        dx, dy = (wX * uW - uX * wW, wY * uW - uY * wW) if len(v) == 2 else (1, 0)
        a, b, c = _primitive(dy * uW, -dx * uW, dy * uX - dx * uY)
        return ((a, b, c), (-a, -b, -c),
                _primitive(-dx * uW, -dy * uW, -(dx * uX + dy * uY)),
                _primitive(dx * wW, dy * wW, dx * wX + dy * wY))

    def contains(self, p: Point) -> bool:
        xn, xd, yn, yd = p.x.numerator, p.x.denominator, p.y.numerator, p.y.denominator
        return _contains_hom(self, (xn * yd, yn * xd, xd * yd))


ConvexBody = Union[Interval, ConvexPolygon]


@dataclass(frozen=True, order=True)
class Line:
    """The locus a*x + b*y = c with (a, b) != (0, 0).

    Stored in a normalized representative: integer coefficients with no
    common factor and the leading nonzero of (a, b) positive, so equal
    lines compare equal.
    """

    a: int
    b: int
    c: int

    def __post_init__(self):
        ia, ib, ic = _integer_plane(self.a, self.b, self.c)
        if ia == 0 and ib == 0:
            raise ValueError("degenerate line: a = b = 0")
        if ia < 0 or (ia == 0 and ib < 0):
            ia, ib, ic = -ia, -ib, -ic
        self.__dict__.update(a=ia, b=ib, c=ic)

    def side(self, p: Point) -> Fraction:
        """Exact signed evaluation a*x + b*y - c (0 means on the line)."""
        return self.a * p.x + self.b * p.y - self.c

    def direction(self) -> Point:
        return Point(-self.b, self.a)

    def some_point(self) -> Point:
        """A rational point on the line."""
        if self.b != 0:
            return Point(Fraction(0), Fraction(self.c, self.b))
        return Point(Fraction(self.c, self.a), Fraction(0))


def _clip_halfplane(
    verts: tuple[Homogeneous, ...], a: int, b: int, c: int
) -> Optional[tuple[Homogeneous, ...]]:
    """Clip canonical convex vertices to {a*x + b*y <= c}; None if empty.

    One walk keeps the inner vertices and inserts each strict edge crossing.
    On the edge u -> w that is s_u*w - s_w*u, whose side is zero, negated
    when its W is negative and divided by its gcd.  A crossing lies
    strictly inside an edge, so no duplicate or collinear triple arises and
    the output is canonical once rotated to its lexmin, which is the old
    lexmin whenever that one is kept.
    """
    sides = [a * X + b * Y - c * W for X, Y, W in verts]
    if max(sides) <= 0:
        return verts
    if min(sides) > 0:
        return None
    n = len(verts)
    kept = []
    for i in range(n):
        si, sj = sides[i], sides[i + 1 - n]
        if si <= 0:
            kept.append(verts[i])
        # a segment's one edge is walked once, from its first end
        if (si < 0 < sj or sj < 0 < si) and (n > 2 or i == 0):
            (uX, uY, uW), (wX, wY, wW) = verts[i], verts[i + 1 - n]
            X, Y, W = si * wX - sj * uX, si * wY - sj * uY, si * wW - sj * uW
            g = gcd(X, Y, W) if W > 0 else -gcd(X, Y, W)
            kept.append((X // g, Y // g, W // g))
    if sides[0] > 0:
        k = 0
        for i in range(1, len(kept)):
            if _lex_less(kept[i], kept[k]):
                k = i
        kept = kept[k:] + kept[:k]
    return tuple(kept)


def intersect_bodies(bodies: Sequence[ConvexBody]) -> Optional[ConvexBody]:
    """Exact common intersection of the bodies, or None when empty.

    All bodies must share one dimension.  In 2D the result is computed by
    successively clipping the first body with every supporting halfplane
    of the others, stopping at the first empty clip, so a caller that
    only asks whether the bodies meet gets None before any polygon is
    built.  Each clip keeps its input canonical, so the region is built
    without the canonical check.
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
    verts = bodies[0]._hom
    for body in bodies[1:]:
        for a, b, c in body._planes:
            verts = _clip_halfplane(verts, a, b, c)
            if verts is None:
                return None
    return ConvexPolygon._from_hom(verts)


def _pair_region_meets(region: ConvexPolygon, body: ConvexPolygon) -> bool:
    """Whether R = A∩B, the region of a meeting pair, meets a body C that
    meets both A and B: exactly when no halfplane of ``C._planes`` has
    every vertex of R strictly outside it.  Nothing is clipped and no
    polygon is made; each halfplane stops at the first vertex of R that is
    not strictly outside it.

    Proof.  A halfplane of C with R strictly outside separates the two.
    Conversely, let R and C be disjoint, so that D = R - C, the set of
    differences, misses the origin.  If D is two-dimensional, each of its
    edges is parallel to an edge of R or of C (a segment's two edges are
    its two sides), and one of them has the origin strictly outside: an
    edge halfplane of R holds C strictly outside, or one of C holds R.
    The first cannot be.  An edge of R lies on an edge of A or of B, and a
    segment R lies on a line that A and B touch from its two sides, or in
    one of them that is a segment; so each edge halfplane of R contains A
    or B, and C meets both.  If D is a segment or a point, R and C are
    points or parallel segments.  On two distinct lines, the side of R's
    line away from C would again be an edge halfplane of R, so R is a
    point, C is a segment, and the side of C's line away from R holds R
    strictly outside.  On one line, R lies strictly to one side of C along
    it, and C's end there, or for a point C the halfplane x <= x_C,
    x >= x_C, y <= y_C or y >= y_C across a coordinate that changes along
    the line, holds R strictly outside; ``_planes`` gives a point or a
    segment exactly these four halfplanes.
    """
    hom = region._hom
    for a, b, c in body._planes:
        for X, Y, W in hom:
            if a * X + b * Y <= c * W:
                break
        else:
            return False
    return True


def _lexmax(hom: tuple[Homogeneous, ...]) -> Homogeneous:
    """The lexicographically largest of the vertex triples."""
    best = hom[0]
    for v in hom[1:]:
        if _lex_less(best, v):
            best = v
    return best


def lexmax_body(body: ConvexBody):
    """The unique lexicographically maximal point of the body.

    For a polygon this is a vertex; for an interval it is ``hi`` (the 1D
    embedding of the same idea).
    """
    if body.dimension == 1:
        return body.hi
    return _point(_lexmax(body._hom))


def _contains_hom(body: ConvexPolygon, v: Homogeneous) -> bool:
    """Whether the polygon contains the point (X/W, Y/W), W > 0; the
    triple need not be primitive."""
    X, Y, W = v
    return all(a * X + b * Y <= c * W for a, b, c in body._planes)


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
    a, b, c = line.a, line.b, line.c
    sides = [a * X + b * Y - c * W for X, Y, W in body._hom]
    return min(sides) <= 0 <= max(sides)


def line_trace(body: ConvexPolygon, line: Line) -> Optional[Interval]:
    """The t for which ``line.some_point() + t * line.direction()`` lies in
    the body, as an interval, or None when the body misses the line."""
    a, b, c = line.a, line.b, line.c
    below = _clip_halfplane(body._hom, a, b, c)
    trace = below and _clip_halfplane(below, -a, -b, -c)
    if trace is None:
        return None
    # base + t * direction is (-b*t, c/b + a*t), or (c/a, a*t) when b = 0
    # (then a > 0), so t is -x/b, or y/a; the trace lies on the line, so it
    # is one or two vertices, lexmin first, and t falls along them iff b > 0
    lo, hi = (Fraction(-X, b * W) if b else Fraction(Y, a * W) for X, Y, W in (trace[0], trace[-1]))
    return Interval(lo, hi) if b <= 0 else Interval(hi, lo)


def _foot(p: tuple[int, int], u: tuple[int, int], w: tuple[int, int]):
    """The point of the closed segment u-w nearest to p, all integer pairs,
    as the triple (X, Y, D) of (X/D, Y/D), D > 0, with its squared
    distance to p as the numerator over D*D."""
    dx, dy = w[0] - u[0], w[1] - u[1]
    den, t = dx * dx + dy * dy, (p[0] - u[0]) * dx + (p[1] - u[1]) * dy
    # the projection parameter t/den, clamped to [0, 1]
    if t <= 0:
        X, Y, D = u[0], u[1], 1
    elif t >= den:
        X, Y, D = w[0], w[1], 1
    else:
        X, Y, D = u[0] * den + dx * t, u[1] * den + dy * t, den
    ex, ey = p[0] * D - X, p[1] * D - Y
    return ex * ex + ey * ey, (X, Y, D)


def separating_line(A: ConvexPolygon, B: ConvexPolygon) -> Line:
    """A line with disjoint A and B strictly on opposite sides.

    Computed as the perpendicular bisector of the closest pair, which for
    disjoint compact convex sets always separates strictly and has
    rational coordinates.  Raises PremiseViolationError if the bodies
    intersect.

    The closest pair is attained at a vertex of one body and a point of a
    closed edge of the other (a point is one edge of length zero); every
    such candidate is found on integers, both bodies on one denominator.
    Any nearest candidate gives the same line: pb - pa is the least vector
    of the convex set B - A, so it is one n for every closest pair, and A
    lies in n . x <= n . pa for each closest pa, which fixes n . pa.
    """
    if A.dimension != 2 or B.dimension != 2:
        raise DimensionMismatchError("separating_line is 2D only")
    if intersect_bodies([A, B]) is not None:
        raise PremiseViolationError("bodies intersect; no separating line exists")
    # a vertex is the integer pair (x, y) of the point (x/L, y/L)
    L = lcm(*(W for _, _, W in A._hom + B._hom))
    va = [(X * (L // W), Y * (L // W)) for X, Y, W in A._hom]
    vb = [(X * (L // W), Y * (L // W)) for X, Y, W in B._hom]
    best = None  # (num, D, vertex, foot): squared distance num/D^2 times L^2
    for ps, qs in ((va, vb), (vb, va)):
        for p in ps:
            for i in range(len(qs)):
                num, foot = _foot(p, qs[i - 1], qs[i])
                if best is None or num * best[1] ** 2 < best[0] * foot[2] ** 2:
                    best = (num, foot[2], p, foot)
    _, D, (px, py), (X, Y, _) = best
    # the bisector n . x = n . mid, n = foot - vertex, scaled by 2 D^2 and
    # read at x = x'/L
    nx, ny = X - px * D, Y - py * D
    line = Line(2 * D * nx * L, 2 * D * ny * L, nx * (px * D + X) + ny * (py * D + Y))
    sa = [line.a * X + line.b * Y - line.c * W for X, Y, W in A._hom]
    sb = [line.a * X + line.b * Y - line.c * W for X, Y, W in B._hom]
    if not ((max(sa) < 0 < min(sb)) or (max(sb) < 0 < min(sa))):
        raise AssertionError("bisector failed to separate; closest pair bug")
    return line
