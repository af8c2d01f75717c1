"""Exact-geometry unit tests and randomized invariants."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pqpierce.errors import DimensionMismatchError, PremiseViolationError
from pqpierce.family import Family, f_vector, max_r
from pqpierce.generators import GeneratorSpec, random_family
from pqpierce.geometry import (
    ConvexPolygon,
    Interval,
    Line,
    Point,
    clip_polygon,
    convex_hull,
    dot,
    intersect_bodies,
    lexmax_body,
    line_meets_body,
    line_trace,
    pt,
    separating_line,
)

from conftest import box


coords = st.integers(min_value=-8, max_value=8)
grid_points = st.builds(pt, coords, coords)


def polygons(min_pts=1, max_pts=7):
    return st.lists(grid_points, min_size=min_pts, max_size=max_pts).map(
        ConvexPolygon.from_points
    )


class TestIntervals:
    def test_overlap(self):
        assert intersect_bodies([Interval(0, 2), Interval(1, 3)]) == Interval(1, 2)

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
        with pytest.raises(DimensionMismatchError):
            intersect_bodies([Interval(0, 1), box(0, 0, 1, 1)])

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


def polygon_trace(body, line):
    """Reference trace: the meets check, the body clipped to both closed
    sides of the line as polygons, then each vertex projected."""
    if not line_meets_body(line, body):
        return None
    trace = clip_polygon(clip_polygon(body, line.a, line.b, line.c), -line.a, -line.b, -line.c)
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
        line = Line.from_point_direction(vertex, data.draw(directions))
        assert line_trace(body, line) == polygon_trace(body, line) is not None

    @given(polygons(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_lines_through_a_vertex_along_an_edge_and_missing(self, body, data):
        i = data.draw(st.integers(0, len(body.vertices) - 1))
        u, w = body.vertices[i - 1], body.vertices[i]
        through = Line.from_point_direction(w, data.draw(directions))
        cases = [through, Line(through.a, through.b, through.c + 1000)]
        if u != w:
            cases.append(Line.from_point_direction(u, w - u))
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
                got = clip_polygon(body, a, b, c)
                assert (got.vertices if got is not None else None) == want, (hull, a, b, c)
        assert min(sizes.values()) >= 30  # points, segments and polygons all drawn

    def test_unchanged_when_nothing_outside(self):
        tri = ConvexPolygon.from_points([pt(0, 0), pt(4, 0), pt(0, 4)])
        assert clip_polygon(tri, 1, 1, 4).vertices == tri.vertices
        assert clip_polygon(tri, 1, 1, -1) is None

    def test_edge_on_line_keeps_that_edge(self):
        tri = ConvexPolygon.from_points([pt(0, 0), pt(4, 0), pt(0, 4)])
        assert clip_polygon(tri, 0, 1, 0).vertices == (pt(0, 0), pt(4, 0))
        assert clip_polygon(tri, -1, 0, -4).vertices == (pt(4, 0),)


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
