"""Exact-geometry unit tests and randomized invariants."""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pqpierce.errors import DimensionMismatchError, PremiseViolationError
from pqpierce.family import Family, f_vector, max_r
from pqpierce.generators import GeneratorSpec, random_family
from pqpierce.geometry import (
    ConvexPolygon,
    Interval,
    Line,
    Point,
    _homogeneous,
    _pair_region_meets,
    convex_hull,
    intersect_bodies,
    lexmax_body,
    line_meets_body,
    line_trace,
    pt,
    separating_line,
)

from conftest import (box, check_triple_flags, clip, dot, fraction_bisector, fraction_hull, lattice_hulls,
                      line_through)


coords = st.integers(min_value=-8, max_value=8)
grid_points = st.builds(pt, coords, coords)


def polygons(min_pts=1, max_pts=7):
    return st.lists(grid_points, min_size=min_pts, max_size=max_pts).map(
        ConvexPolygon.from_points
    )


class TestIntervals:
    def test_overlap(self):
        assert intersect_bodies([Interval(0, 2), Interval(1, 3)]) == Interval(1, 2)
        assert intersect_bodies([Interval(0, 1), Interval(1, 2)]) == Interval(1, 1)
        assert intersect_bodies([Interval(0, 1), Interval(Fraction(3, 2), 2)]) is None

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Interval(2, 1)

    def test_lexmax_is_hi(self):
        assert lexmax_body(Interval(0, 2)) == 2

    def test_contains_boundary(self):
        assert Interval(0, 1).contains(1)


class TestPolygonConstruction:
    def test_canonical_start_and_ccw(self):
        sq = box(0, 0, 1, 1)
        assert sq.vertices[0] == pt(0, 0)
        assert convex_hull(sq.vertices) == sq.vertices

    def test_collinear_dropped(self):
        poly = ConvexPolygon.from_points([pt(0, 0), pt(1, 0), pt(2, 0), pt(2, 2)])
        assert len(poly.vertices) == 3

    def test_degenerate_segment_and_point(self):
        seg = ConvexPolygon.from_points([pt(0, 0), pt(2, 2), pt(1, 1)])
        assert seg.vertices == (pt(0, 0), pt(2, 2))
        single = ConvexPolygon.from_points([pt(3, 4)])
        assert single.vertices == (pt(3, 4),)

    def test_noncanonical_rejected(self):
        with pytest.raises(ValueError):
            ConvexPolygon((pt(1, 1), pt(0, 0), pt(1, 0)))

    @given(st.lists(grid_points, min_size=1, max_size=9))
    def test_hull_idempotent(self, points):
        hull = convex_hull(points)
        assert convex_hull(hull) == hull
        # hull contains every input point
        poly = ConvexPolygon(hull)
        assert all(poly.contains(p) for p in points)


class TestIntersection:
    def test_disjoint_squares(self):
        assert intersect_bodies([box(0, 0, 1, 1), box(2, 0, 3, 1)]) is None

    def test_touching_and_missing(self):
        square, point = box(0, 0, 1, 1), ConvexPolygon.from_points([pt(2, 1)])
        segment = ConvexPolygon.from_points([pt(1, 1), pt(2, 1)])
        assert intersect_bodies([square, segment]).vertices == (pt(1, 1),)
        assert intersect_bodies([segment, point]) == point
        assert intersect_bodies([square, point]) is None
        assert intersect_bodies([square, segment, point]) is None

    def test_triangle_pair_frozen(self):
        # independently derived: the second triangle's constraints are
        # x >= 1, y >= 1 and x+y <= 6; only x+y <= 4 from the first binds
        t1 = ConvexPolygon.from_points([pt(0, 0), pt(4, 0), pt(0, 4)])
        t2 = ConvexPolygon.from_points([pt(1, 1), pt(5, 1), pt(1, 5)])
        out = intersect_bodies([t1, t2])
        assert out.vertices == (pt(1, 1), pt(3, 1), pt(1, 3))

    def test_triangle_pair_membership_oracle(self):
        t1 = ConvexPolygon.from_points([pt(0, 0), pt(4, 0), pt(0, 4)])
        t2 = ConvexPolygon.from_points([pt(1, 1), pt(5, 1), pt(1, 5)])
        out = intersect_bodies([t1, t2])
        half = Fraction(1, 2)
        for i in range(-1, 12):
            for j in range(-1, 12):
                p = Point(i * half, j * half)
                assert out.contains(p) == (t1.contains(p) and t2.contains(p))

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatchError, match=r"mixed dimensions: \[1, 2\]"):
            intersect_bodies([Interval(0, 1), box(0, 0, 1, 1)])
        with pytest.raises(ValueError, match="need at least one body"):
            intersect_bodies([])

    @given(polygons(), polygons(), polygons())
    @settings(max_examples=60, deadline=None)
    def test_clipping_associative(self, a, b, c):
        abc = intersect_bodies([a, b, c])
        ab = intersect_bodies([a, b])
        two_step = intersect_bodies([ab, c]) if ab is not None else None
        if abc is None:
            assert two_step is None
        else:
            assert two_step is not None
            assert abc.vertices == two_step.vertices

    @given(polygons(), polygons())
    @settings(max_examples=80, deadline=None)
    def test_lexmax_of_intersection_dominated(self, a, b):
        region = intersect_bodies([a, b])
        if region is not None:
            assert lexmax_body(region) <= lexmax_body(a)
            assert lexmax_body(region) <= lexmax_body(b)


class TestLexmax:
    def test_square(self):
        assert lexmax_body(box(0, 0, 1, 1)) == pt(1, 1)

    def test_tie_broken_by_y(self):
        tri = ConvexPolygon.from_points([pt(0, 0), pt(2, 1), pt(2, -1)])
        assert lexmax_body(tri) == pt(2, 1)


class TestMembership:
    def test_square_contains(self):
        from pqpierce.geometry import body_contains_point

        sq = box(0, 0, 1, 1)
        assert body_contains_point(sq, pt(Fraction(1, 2), Fraction(1, 2)))
        assert not body_contains_point(sq, pt(2, 0))
        assert body_contains_point(Interval(0, 1), 1)

    def test_dimension_mismatch(self):
        from pqpierce.geometry import body_contains_point

        with pytest.raises(DimensionMismatchError):
            body_contains_point(Interval(0, 1), pt(0, 0))
        with pytest.raises(DimensionMismatchError):
            body_contains_point(box(0, 0, 1, 1), Fraction(1, 2))


class TestSeparation:
    def test_squares_gap(self):
        line = separating_line(box(0, 0, 1, 1), box(2, 0, 3, 1))
        # vertical x = 3/2 (normalized integer form 2x = 3)
        assert (line.a, line.b, line.c) == (2, 0, 3)

    def test_point_pair_bisector(self):
        line = separating_line(ConvexPolygon((pt(0, 0),)), ConvexPolygon((pt(2, 2),)))
        assert (line.a, line.b, line.c) == (1, 1, 2)

    def test_triangle_square_strict_sides(self):
        tri = ConvexPolygon.from_points([pt(0, 0), pt(1, 0), pt(0, 1)])
        sq = box(3, 3, 4, 4)
        line = separating_line(tri, sq)
        sa = {line.side(v) < 0 for v in tri.vertices}
        sb = {line.side(v) > 0 for v in sq.vertices}
        assert sa == {True} and sb == {True} or (
            {line.side(v) > 0 for v in tri.vertices} == {True}
            and {line.side(v) < 0 for v in sq.vertices} == {True}
        )

    def test_intersecting_rejected(self):
        with pytest.raises(PremiseViolationError):
            separating_line(box(0, 0, 2, 2), box(1, 1, 3, 3))

    @given(polygons(), polygons())
    @settings(max_examples=100, deadline=None)
    def test_intersect_xor_separate(self, a, b):
        region = intersect_bodies([a, b])
        if region is None:
            line = separating_line(a, b)
            assert not line_meets_body(line, a)
            assert not line_meets_body(line, b)
        else:
            with pytest.raises(PremiseViolationError):
                separating_line(a, b)


@st.composite
def tie_heavy_pairs(draw):
    """Disjoint pairs with many equally near candidates: squares across an
    equal gap, parallel edges, two points, a point and a segment."""
    small = st.integers(-3, 3)
    x, y = draw(small), draw(small)
    kind = draw(st.sampled_from(("squares", "parallel", "points", "point-segment")))
    if kind == "squares":
        s, gap, shift = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(small)
        corners = [(x, y, x + s, y + s), (x + s + gap, y + shift, x + 2 * s + gap, y + shift + s)]
        if draw(st.booleans()):  # the gap vertical instead
            corners = [(y0, x0, y1, x1) for x0, y0, x1, y1 in corners]
        a, b = (box(*c) for c in corners)
    elif kind == "parallel":
        # edges on the lines through p and p + o along d, each body on its
        # far side of them
        d = draw(st.tuples(small, small).filter(lambda v: v != (0, 0)).map(lambda v: pt(*v)))
        o = draw(st.tuples(small, small).filter(
            lambda v: v[0] * d.y != v[1] * d.x).map(lambda v: pt(*v)))
        p = pt(x, y)
        j, k1, k2, t1, t2 = (draw(st.integers(-2, 3)) for _ in range(5))
        a_pts, b_pts = [p, p + d.scaled(k1)], [p + o + d.scaled(j), p + o + d.scaled(j + k2)]
        if draw(st.booleans()):
            a_pts.append(p - o + d.scaled(t1))
            b_pts.append(p + o.scaled(2) + d.scaled(t2))
        a, b = ConvexPolygon.from_points(a_pts), ConvexPolygon.from_points(b_pts)
    else:
        u = pt(x, y)
        v, w = (draw(st.tuples(small, small).map(lambda c: pt(*c))) for _ in range(2))
        a = ConvexPolygon.from_points([u])
        b = ConvexPolygon.from_points([v] if kind == "points" else [v, w])
    return (a, b) if draw(st.booleans()) else (b, a)


class TestSeparationAgainstFractionBisector:
    @given(tie_heavy_pairs())
    @example((box(0, 0, 1, 1), box(2, 0, 3, 1)))
    @example((box(3, 1, 5, 3), box(0, 0, 2, 2)))
    @example((ConvexPolygon.from_points([pt(0, 0), pt(4, 0)]),
              ConvexPolygon.from_points([pt(1, 1), pt(3, 1)])))
    @example((ConvexPolygon.from_points([pt(1, 1)]),
              ConvexPolygon.from_points([pt(0, 0), pt(2, 0)])))
    @settings(max_examples=150, deadline=None)
    def test_tie_heavy_pairs(self, pair):
        assume(intersect_bodies(pair) is None)
        line = separating_line(*pair)
        assert (line, repr(line)) == (fraction_bisector(*pair), repr(fraction_bisector(*pair)))


class TestLineIncidence:
    def test_boundary_touch(self):
        assert line_meets_body(Line(1, 0, 0), box(0, 0, 1, 1))

    def test_miss(self):
        assert not line_meets_body(Line(1, 0, 5), box(0, 0, 1, 1))

    def test_edge_on_line(self):
        tri = ConvexPolygon.from_points([pt(0, 0), pt(1, 0), pt(0, 1)])
        assert line_meets_body(Line(1, 1, 1), tri)

    def test_line_normalization(self):
        assert Line(Fraction(1, 2), 0, Fraction(3, 4)) == Line(2, 0, 3)
        assert Line(-1, 0, -2) == Line(1, 0, 2)
        with pytest.raises(ValueError):
            Line(0, 0, 1)

    def test_integer_coefficients(self):
        line = Line(Fraction(-1, 2), Fraction(1, 3), Fraction(5, 6))
        assert repr(line) == "Line(a=3, b=-2, c=-5)"
        assert {type(line.a), type(line.b), type(line.c)} == {int}
        # exact points, not float quotients of ints
        assert Line(0, 3, 1).some_point() == Point(Fraction(0), Fraction(1, 3))
        assert Line(3, 0, 1).some_point() == Point(Fraction(1, 3), Fraction(0))


def polygon_trace(body, line):
    """Reference trace: the meets check, the body clipped to both closed
    sides of the line as polygons, then each vertex projected."""
    if not line_meets_body(line, body):
        return None
    trace = clip(clip(body, line.a, line.b, line.c), -line.a, -line.b, -line.c)
    base, direction = line.some_point(), line.direction()
    scale = dot(direction, direction)
    ts = [dot(v - base, direction) / scale for v in trace.vertices]
    return Interval(min(ts), max(ts))


directions = st.tuples(coords, coords).filter(lambda d: d != (0, 0)).map(lambda d: pt(*d))


class TestLineTrace:
    def test_square_cases(self):
        sq = box(0, 0, 2, 2)
        assert line_trace(sq, Line(0, 1, 1)) == Interval(-2, 0)  # across, direction (-1, 0)
        assert line_trace(sq, Line(0, 1, 2)) == Interval(-2, 0)  # along the top edge
        assert line_trace(sq, Line(1, 1, 0)) == Interval(0, 0)  # through a corner only
        assert line_trace(sq, Line(0, 1, 3)) is None  # above it

    @given(polygons(), st.tuples(coords, coords, coords).filter(lambda abc: abc[:2] != (0, 0)))
    @settings(max_examples=200, deadline=None)
    def test_any_line_matches_polygon_trace(self, body, abc):
        line = Line(*abc)
        assert line_trace(body, line) == polygon_trace(body, line)

    @given(polygons(max_pts=2), st.data())
    @settings(max_examples=100, deadline=None)
    def test_points_and_segments(self, body, data):
        vertex = data.draw(st.sampled_from(body.vertices))
        line = line_through(vertex, data.draw(directions))
        assert line_trace(body, line) == polygon_trace(body, line) is not None

    @given(polygons(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_lines_through_a_vertex_along_an_edge_and_missing(self, body, data):
        i = data.draw(st.integers(0, len(body.vertices) - 1))
        u, w = body.vertices[i - 1], body.vertices[i]
        through = line_through(w, data.draw(directions))
        cases = [through, Line(through.a, through.b, through.c + 1000)]
        if u != w:
            cases.append(line_through(u, w - u))
        for line in cases:
            assert line_trace(body, line) == polygon_trace(body, line)
        assert line_trace(body, cases[0]) is not None
        assert line_trace(body, cases[1]) is None


def hull_rebuild_clip(verts, a, b, c):
    """Reference clip: every vertex on the inner side plus every strict
    edge crossing (both directions of a segment's edge), hulled again."""
    sides = [a * v.x + b * v.y - c for v in verts]
    if len(verts) == 1:
        return verts if sides[0] <= 0 else None
    n = len(verts)
    edges = [(0, 1), (1, 0)] if n == 2 else [(i, (i + 1) % n) for i in range(n)]
    kept = [v for v, s in zip(verts, sides) if s <= 0]
    for i, j in edges:
        si, sj = sides[i], sides[j]
        if (si < 0 < sj) or (sj < 0 < si):
            t = si / (si - sj)
            kept.append(verts[i] + (verts[j] - verts[i]).scaled(t))
    if not kept:
        return None
    return convex_hull(kept)


def orient(o, a, b):
    """Twice the signed area of (o, a, b); > 0 means a left turn."""
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def fraction_clip_halfplane(verts, a, b, c):
    """Clip canonical convex vertices to {a*x + b*y <= c}; None if empty.

    The Fraction clip the integer kernel replaced, kept as its oracle.
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
    kept = []
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


def fraction_canonical_check(verts):
    """The Fraction canonical check the integer kernel replaced: raises
    ValueError unless the vertices are lexmin first, turn strictly left
    at every vertex, and rise lexicographically once and then fall once."""
    verts = tuple(verts)
    if not verts:
        raise ValueError("polygon needs at least one vertex")
    n = len(verts)
    rise = [u < w for u, w in zip(verts, verts[1:] + verts[:1])]
    if rise != sorted(rise, reverse=True) or rise[-1] or (n > 1 and not rise[0]) or (
            n > 2 and any(orient(verts[i - 2], verts[i - 1], verts[i]) <= 0 for i in range(n))):
        raise ValueError(f"vertices not in canonical convex position: {verts}")


def fraction_halfplanes(v):
    """Fraction halfplanes (a, b, c), each meaning a*x + b*y <= c, whose
    intersection is exactly the canonical vertices' region."""
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


def fraction_intersect(bodies):
    """Vertices of the bodies' common region, or None, by Fraction clips
    of the first body with every halfplane of the others."""
    verts = bodies[0].vertices
    for body in bodies[1:]:
        for a, b, c in fraction_halfplanes(body.vertices):
            verts = fraction_clip_halfplane(verts, a, b, c)
            if verts is None:
                return None
    fraction_canonical_check(verts)
    return verts


def fraction_contains(verts, p):
    return all(a * p.x + b * p.y <= c for a, b, c in fraction_halfplanes(verts))


def fraction_trace(body, line):
    below = fraction_clip_halfplane(body.vertices, line.a, line.b, line.c)
    trace = below and fraction_clip_halfplane(below, -line.a, -line.b, -line.c)
    if trace is None:
        return None
    base, direction = line.some_point(), line.direction()
    scale = dot(direction, direction)
    ts = [dot(v - base, direction) / scale for v in trace]
    return Interval(min(ts), max(ts))


def random_hull(rng, size, radius):
    return convex_hull(pt(rng.randint(-radius, radius), rng.randint(-radius, radius))
                       for _ in range(size))


def lines_for(rng, hull, radius):
    """Halfplanes (a, b, c) against a hull: through a vertex, along an edge
    (the edge's own line, both ways), touching only at a vertex, and
    general position."""
    out = []
    for _ in range(3):
        v = rng.choice(hull)
        a, b = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        if a == b == 0:
            a = Fraction(1)
        out.append((a, b, a * v.x + b * v.y))
    if len(hull) >= 2:
        i = rng.randrange(len(hull))
        u, w = hull[i], hull[(i + 1) % len(hull)]
        a, b = w.y - u.y, u.x - w.x
        out += [(a, b, a * u.x + b * u.y), (-a, -b, -(a * u.x + b * u.y))]
    # the lexmax vertex alone touches x = max x when it is the only one there
    top = max(hull)
    out += [(Fraction(1), Fraction(0), top.x), (Fraction(-1), Fraction(0), -top.x)]
    for _ in range(3):
        a = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        b = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        if a == b == 0:
            b = Fraction(1)
        out.append((a, b, Fraction(rng.randint(-3 * radius, 3 * radius), rng.randint(1, 4))))
    return out


class TestClipAgainstHullRebuild:
    def test_seeded_polygons_points_and_segments(self):
        rng = random.Random(20240)
        sizes = {1: 0, 2: 0, 3: 0}
        for _ in range(600):
            radius = rng.choice((1, 3, 8))
            hull = random_hull(rng, rng.randint(1, 8), radius)
            sizes[min(len(hull), 3)] += 1
            body = ConvexPolygon(hull)
            for a, b, c in lines_for(rng, hull, radius):
                want = hull_rebuild_clip(hull, a, b, c)
                got = clip(body, a, b, c)
                assert (got.vertices if got is not None else None) == want, (hull, a, b, c)
        assert min(sizes.values()) >= 30  # points, segments and polygons all drawn

    def test_unchanged_when_nothing_outside(self):
        tri = ConvexPolygon.from_points([pt(0, 0), pt(4, 0), pt(0, 4)])
        assert clip(tri, 1, 1, 4).vertices == tri.vertices
        assert clip(tri, 1, 1, -1) is None

    def test_edge_on_line_keeps_that_edge(self):
        tri = ConvexPolygon.from_points([pt(0, 0), pt(4, 0), pt(0, 4)])
        assert clip(tri, 0, 1, 0).vertices == (pt(0, 0), pt(4, 0))
        assert clip(tri, -1, 0, -4).vertices == (pt(4, 0),)


class TestLinearCanonicalCheck:
    def test_agrees_with_hull_fixed_point(self):
        rng = random.Random(7)
        cases = 0
        for _ in range(400):
            hull = list(random_hull(rng, rng.randint(1, 8), rng.choice((1, 3, 8))))
            variants = [hull[k:] + hull[:k] for k in range(len(hull))]
            variants += [v[::-1] for v in variants]
            dup = rng.randrange(len(hull))
            variants.append(hull[:dup + 1] + hull[dup:])
            if len(hull) >= 2:
                u, w = hull[dup - 1], hull[dup]
                variants.append(hull[:dup] + [(u + w).scaled(Fraction(1, 2))] + hull[dup:])
            variants.append(hull + [hull[0]])
            variants.append(sorted(hull))
            for verts in map(tuple, variants):
                cases += 1
                canonical = convex_hull(verts) == verts
                try:
                    ConvexPolygon(verts)
                except ValueError:
                    assert not canonical, verts
                else:
                    assert canonical, verts
        assert cases > 3000

    def test_star_pentagon_rejected(self):
        # every turn is a strict left turn, but the boundary winds twice
        p = convex_hull([pt(0, 0), pt(4, -1), pt(6, 3), pt(3, 6), pt(-1, 4)])
        with pytest.raises(ValueError):
            ConvexPolygon((p[0], p[2], p[4], p[1], p[3]))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6),
       shift=st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
       factor=st.fractions(min_value=Fraction(1, 20), max_value=20))
def test_translating_or_scaling_keeps_f_vector_and_max_r(seed, shift, factor):
    F = random_family(GeneratorSpec("random_polygons", n=5, seed=seed, span=5))
    offset = pt(*shift)
    moved = [Family.of([ConvexPolygon(tuple(v + offset for v in body.vertices))
                        for body in F.bodies]),
             Family.of([ConvexPolygon(tuple(v.scaled(factor) for v in body.vertices))
                        for body in F.bodies])]
    for G in moved:
        assert f_vector(G) == f_vector(F)
        for p, q in ((4, 2), (5, 3)):
            assert max_r(G, p, q).max_r == max_r(F, p, q).max_r


#: coordinate kinds for the cross-checks against the Fraction oracles:
#: small integers, rationals with denominators up to 7^6, values within
#: 40 of 2^64, and the last two mixed in one polygon
SMALL = st.integers(-8, 8).map(Fraction)
RATIONAL = st.fractions(min_value=-8, max_value=8, max_denominator=7 ** 6)
NEAR_2_64 = st.builds(lambda k, d: 2 ** 64 + Fraction(k, d), st.integers(-40, 40), st.integers(1, 7))
KINDS = (SMALL, RATIONAL, NEAR_2_64, st.one_of(RATIONAL, NEAR_2_64))


@st.composite
def hull_of(draw, kind):
    """A canonical hull: a point, a segment (two points, or several on one
    line) or a polygon of up to seven points."""
    size = draw(st.sampled_from((1, 2, 3, 7)))
    points = draw(st.lists(st.builds(Point, kind, kind), min_size=size, max_size=size))
    if size > 2 and draw(st.booleans()):
        u, w = points[:2]
        points = [u + (w - u).scaled(t) for t in draw(st.lists(RATIONAL, min_size=1, max_size=4))]
    return convex_hull(points)


@st.composite
def halfplane_for(draw, verts, kind):
    """(a, b, c) for a*x + b*y <= c: through a vertex, along an edge either
    way, or through a point drawn like the vertices."""
    a, b = draw(st.tuples(RATIONAL, RATIONAL).filter(lambda ab: ab != (0, 0)))
    how = draw(st.sampled_from(("vertex", "edge", "free")))
    if how == "edge" and len(verts) >= 2:
        i = draw(st.integers(0, len(verts) - 1))
        u, w = verts[i - 1], verts[i]
        sign = draw(st.sampled_from((1, -1)))
        a, b = sign * (w.y - u.y), sign * (u.x - w.x)
        return a, b, a * u.x + b * u.y
    v = draw(st.sampled_from(verts)) if how == "vertex" else Point(draw(kind), draw(kind))
    return a, b, a * v.x + b * v.y


@st.composite
def point_lists(draw, kind):
    """Points drawn like the vertices, often with a collinear run through
    two of them and repeats, in any order: their hulls are points,
    segments and polygons."""
    points = draw(st.lists(st.builds(Point, kind, kind), min_size=1, max_size=4))
    if draw(st.booleans()):
        u, w = points[0], points[-1]
        points += [u + (w - u).scaled(t) for t in draw(st.lists(RATIONAL, max_size=4))]
    points += draw(st.lists(st.sampled_from(points), max_size=3))
    return draw(st.permutations(points))


def vertices_or_none(body):
    return None if body is None else body.vertices


class TestIntegerKernelAgainstFractionOracles:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_clip_polygon(self, data):
        kind = data.draw(st.sampled_from(KINDS))
        hull = data.draw(hull_of(kind))
        a, b, c = data.draw(halfplane_for(hull, kind))
        assert vertices_or_none(clip(ConvexPolygon(hull), a, b, c)) == \
            fraction_clip_halfplane(hull, a, b, c)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_intersect_bodies(self, data):
        kind = data.draw(st.sampled_from(KINDS))
        bodies = [ConvexPolygon(data.draw(hull_of(kind))) for _ in range(data.draw(st.integers(2, 3)))]
        assert vertices_or_none(intersect_bodies(bodies)) == fraction_intersect(bodies)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_line_trace(self, data):
        kind = data.draw(st.sampled_from(KINDS))
        body = ConvexPolygon(data.draw(hull_of(kind)))
        line = Line(*data.draw(halfplane_for(body.vertices, kind)))
        want = fraction_trace(body, line)
        assert line_trace(body, line) == want
        assert line_meets_body(line, body) == (want is not None)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_contains(self, data):
        kind = data.draw(st.sampled_from(KINDS))
        body = ConvexPolygon(data.draw(hull_of(kind)))
        v = body.vertices
        tiny = Fraction(1, 7 ** 7)
        probes = list(v) + [(u + w).scaled(Fraction(1, 2)) for u, w in zip(v, v[1:] + v[:1])]
        probes += [p + Point(dx * tiny, dy * tiny) for p in probes for dx, dy in ((1, 0), (0, -1))]
        probes += data.draw(st.lists(st.builds(Point, kind, kind), max_size=4))
        for p in probes:
            assert body.contains(p) == fraction_contains(v, p), p

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_hull(self, data):
        points = data.draw(point_lists(data.draw(st.sampled_from(KINDS))))
        want = fraction_hull(points)
        hull = convex_hull(iter(points))
        assert (hull, repr(hull)) == (want, repr(want))
        poly, oracle = ConvexPolygon.from_points(iter(points)), ConvexPolygon(want)
        assert (poly, hash(poly), repr(poly), poly._hom) == \
            (oracle, hash(oracle), repr(oracle), oracle._hom)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_separating_line(self, data):
        kind = data.draw(st.sampled_from(KINDS))
        a, b = (ConvexPolygon(data.draw(hull_of(kind))) for _ in range(2))
        assume(intersect_bodies([a, b]) is None)
        for A, B in ((a, b), (b, a)):
            line = separating_line(A, B)
            assert (line, repr(line)) == (fraction_bisector(A, B), repr(fraction_bisector(A, B)))

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_polygon_acceptance_and_rejection(self, data):
        kind = data.draw(st.sampled_from(KINDS))
        hull = list(data.draw(hull_of(kind)))
        k = data.draw(st.integers(0, len(hull) - 1))
        variants = [hull, hull[k:] + hull[:k], hull[::-1], hull[:k + 1] + hull[k:], sorted(hull),
                    hull[:k] + [(hull[k - 1] + hull[k]).scaled(Fraction(1, 2))] + hull[k:]]
        for verts in map(tuple, variants):
            try:
                fraction_canonical_check(verts)
            except ValueError as oracle:
                with pytest.raises(ValueError) as got:
                    ConvexPolygon(verts)
                assert str(got.value) == str(oracle)
            else:
                assert ConvexPolygon(verts).vertices == verts


@st.composite
def pairwise_meeting(draw, kind):
    """Three hulls A, B, C that meet pairwise: each holds the points it
    shares with the other two, drawn like the vertices, and up to two
    points of its own.  A shared point is often a copy of another, so
    points, segments, touching bodies and common points are frequent."""
    shared: list[Point] = []
    for _ in range(3):
        copy = shared and draw(st.booleans())
        shared.append(draw(st.sampled_from(shared)) if copy else Point(draw(kind), draw(kind)))
    ab, ac, bc = shared
    own = st.lists(st.builds(Point, kind, kind), max_size=2)
    return [ConvexPolygon.from_points([u, w] + draw(own)) for u, w in ((ab, ac), (ab, bc), (ac, bc))]


class TestPairRegionMeets:
    """``_pair_region_meets(A∩B, C)``, which tests only C's halfplanes
    against the pair region's vertices, says what the clip chain says of
    A, B and C whenever C meets A and B."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_pairwise_meeting_triples(self, data):
        kind = data.draw(st.sampled_from(KINDS))
        A, B, C = data.draw(pairwise_meeting(kind))
        region = intersect_bodies([A, B])
        assert _pair_region_meets(region, C) == (intersect_bodies([A, B, C]) is not None)

    def test_every_lattice_triple(self):
        """Every pairwise-meeting triple of the 48 lattice hulls of a 2 by 3
        grid, and every nerve flag among them; tests/exhaustive_2d_triples.py
        runs the 3 by 3 grid."""
        assert check_triple_flags(lattice_hulls(2, 3)) == (36580, 3624)

    def test_the_pair_premise_is_needed(self):
        """C touches A at (1, 1) and misses B.  Only the region's own edge
        on x = y/2, an edge of B, holds C strictly outside, and no halfplane
        of C holds the region outside: the test alone says they meet, and
        the nerve's flag is false because the pair B, C misses."""
        A = ConvexPolygon.from_points([pt(0, 0), pt(1, 1), pt(0, 1)])
        B = ConvexPolygon.from_points([pt(0, 0), pt(1, 2), pt(0, 1)])
        C = ConvexPolygon.from_points([pt(1, 1), pt(2, 1), pt(2, 2)])
        assert intersect_bodies([A, B, C]) is None and intersect_bodies([B, C]) is None
        assert _pair_region_meets(intersect_bodies([A, B]), C)
        assert not Family.of([A, B, C])._nerve.fits((0, 1), 2)
        assert f_vector(Family.of([A, B, C])) == (3, 2, 0)


def assert_canonical_region(bodies):
    """The clip chain's region of the bodies, unchecked on construction,
    passes the public constructor's canonical check."""
    region = intersect_bodies(bodies)
    if region is not None:
        region.__post_init__()
        assert region == ConvexPolygon(region.vertices)
    return region


class TestClipChainIsCanonical:
    """``intersect_bodies`` builds its region without the canonical check,
    so these tests are the guard that the clip chain's output is canonical:
    lexmin first, counter-clockwise, no three vertices collinear."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_random_chains(self, data):
        """2 to 4 points, segments and polygons, half the time all through
        one common point drawn like the vertices, so that they meet."""
        kind = data.draw(st.sampled_from(KINDS))
        hulls = [data.draw(hull_of(kind)) for _ in range(data.draw(st.integers(2, 4)))]
        if data.draw(st.booleans()):
            common = Point(data.draw(kind), data.draw(kind))
            hulls = [hull + (common,) for hull in hulls]
        assert_canonical_region([ConvexPolygon.from_points(hull) for hull in hulls])

    def test_every_lattice_pair(self):
        """Every pair, a body with itself included, of the 48 lattice hulls
        of a 2 by 3 grid: 985 of the 1176 meet."""
        hulls = lattice_hulls(2, 3)
        regions = [assert_canonical_region(pair) for pair in itertools.combinations_with_replacement(hulls, 2)]
        assert sum(region is not None for region in regions) == 985


def assert_primitive_form(body):
    """Each vertex is a primitive (X, Y, W), W > 0, that round-trips."""
    assert len(body._hom) == len(body.vertices)
    for (X, Y, W), v in zip(body._hom, body.vertices):
        assert W > 0 and gcd(X, Y, W) == 1
        assert (Fraction(X, W), Fraction(Y, W)) == (v.x, v.y)
        assert _homogeneous(v) == (X, Y, W)


class TestIntegerForm:
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_vertices_primitive_and_round_trip(self, data):
        kind = data.draw(st.sampled_from(KINDS))
        body = ConvexPolygon(data.draw(hull_of(kind)))
        assert_primitive_form(body)
        clipped = clip(body, *data.draw(halfplane_for(body.vertices, kind)))
        if clipped is not None:
            assert_primitive_form(clipped)
            assert clipped == ConvexPolygon(clipped.vertices)

    def test_chain_vertices_bounded_by_their_edge_lines(self):
        """Along a 10-deep chain of clips, each region vertex is no larger,
        coordinate by coordinate, than the cross product of any two input
        edge lines through it: it is that meeting point's primitive form."""
        rng = random.Random(15)

        def coordinate(sign):
            return sign * Fraction(rng.randint(1, 7 ** 6), rng.randint(1, 7 ** 6))

        for _ in range(12):
            # one point per quadrant, so every body holds the origin
            bodies = [ConvexPolygon.from_points(
                [Point(coordinate(sx), coordinate(sy)) for sx in (1, -1) for sy in (1, -1)])
                for _ in range(11)]
            region = bodies[0]
            for depth in range(1, 11):
                region = intersect_bodies([region, bodies[depth]])
                assert_primitive_form(region)
                lines = {plane for body in bodies[:depth + 1] for plane in body._planes}
                for X, Y, W in region._hom:
                    through = [(A, B, C) for A, B, C in lines if A * X + B * Y == C * W]
                    crossings = [(C1 * B2 - B1 * C2, A1 * C2 - C1 * A2, A1 * B2 - B1 * A2)
                                 for (A1, B1, C1), (A2, B2, C2) in itertools.combinations(through, 2)
                                 if A1 * B2 != B1 * A2]
                    assert crossings
                    for cx, cy, cw in crossings:
                        assert abs(X) <= abs(cx) and abs(Y) <= abs(cy) and abs(W) <= abs(cw)
