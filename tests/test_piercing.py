"""Solvers and constructive procedures."""

import itertools
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqpierce import family as familymod
from pqpierce import geometry
from pqpierce import piercing as piercingmod
from pqpierce.errors import (ArityError, BudgetExceededError, DimensionMismatchError,
                             PremiseViolationError)
from pqpierce.family import Family, degeneracy_level, satisfies_pqr
from pqpierce.generators import GeneratorSpec, extremal_dim1, random_family
from pqpierce.geometry import (
    ConvexPolygon,
    Interval,
    Line,
    _homogeneous,
    body_contains_point,
    intersect_bodies,
    Point,
    lexmax_body,
    line_meets_body,
    pt,
)
from pqpierce.piercing import (
    _line_guarantee_holds,
    branch_and_bound_piercing,
    candidate_points,
    hd_pierce,
    line_pierce,
    min_piercing,
    ms_line,
    sweep_piercing_1d,
)

from conftest import (
    INTERVALS,
    box,
    brute_pair_regions,
    exhaustive_candidate_points,
    fraction_ms_line,
    frozenset_branch_and_bound,
    intervals,
    point_candidate_points,
    polygon_families,
    refiltering_sweep,
    ring_caps,
    seeded_polygon_families,
)


def clipping_guarantee_holds(F, ai, bi, line):
    """The guarantee predicate with every pair clipped afresh: the oracle
    for ``_line_guarantee_holds``, which reads the family's pair table."""
    A, B = F.bodies[ai], F.bodies[bi]
    for C in F.bodies:
        if intersect_bodies([A, C]) is None or intersect_bodies([B, C]) is None:
            continue
        if not line_meets_body(line, C):
            return False
    return True


def assert_witness(F, witness):
    assert clipping_guarantee_holds(F, witness.A_index, witness.B_index, witness.line)


class TestCandidatePoints:
    def test_disjoint_intervals(self):
        assert candidate_points(intervals((0, 1), (2, 3))) == [1, 3]

    def test_overlapping_intervals(self):
        assert candidate_points(intervals((0, 2), (1, 3))) == [2, 3]

    def test_overlapping_squares(self):
        F = Family.of([box(0, 0, 2, 2), box(1, 1, 3, 3)])
        points = candidate_points(F)
        assert pt(2, 2) in points and pt(3, 3) in points

    @settings(max_examples=100, deadline=None)
    @given(polygon_families())
    def test_integer_candidates_match_the_point_oracle(self, F):
        got, want = candidate_points(F), point_candidate_points(F)
        assert (got, repr(got)) == (want, repr(want))

    def test_integer_candidates_on_seeded_families(self):
        for F in seeded_polygon_families():
            got, want = candidate_points(F), point_candidate_points(F)
            assert (got, repr(got)) == (want, repr(want))

    def test_replacement_property_exhaustive(self):
        # restricted candidates solve as well as all subfamily lexmaxes
        for seed in range(25):
            F = random_family(GeneratorSpec("random_polygons", n=5, seed=seed))
            a = branch_and_bound_piercing(F)
            b = frozenset_branch_and_bound(F, candidates=exhaustive_candidate_points(F))
            assert len(a) == len(b)

    @settings(max_examples=100, deadline=None)
    @given(polygon_families())
    def test_covers_match_the_point_oracle(self, F):
        want = [(_homogeneous(point), sum(1 << i for i, body in enumerate(F.bodies)
                                          if body_contains_point(body, point)))
                for point in point_candidate_points(F)]
        assert list(familymod._covers(F)) == want


def oracle_families():
    """Seeded polygon families, and tie-heavy ones: duplicated bodies,
    nested boxes and squares that touch at a corner or along an edge."""
    for seed in range(24):
        for n, span in ((6, 3), (9, 4), (9, 5), (8, 12)):
            yield random_family(GeneratorSpec("random_polygons", n=n, seed=seed, span=span))
    for seed in range(4):
        F = random_family(GeneratorSpec("random_polygons", n=5, seed=seed, span=4))
        yield Family.of(F.bodies + F.bodies[1:4])
    yield Family.of([box(-i, -i, i + 1, i + 1) for i in range(6)])
    yield Family.of([box(i, 0, i + 4, 2 + i) for i in range(5)] + [box(1, 1, 2, 2)])
    yield Family.of([box(i, j, i + 1, j + 1) for i in range(3) for j in range(3)])
    yield Family.of([box(0, 0, 1, 1), box(1, 1, 2, 2), box(2, 0, 3, 1), box(1, -1, 2, 0),
                     box(0, 2, 1, 3), box(2, 2, 3, 3)])
    yield ring_caps()


def nodes_needed(solve, F) -> int:
    """The smallest node budget under which ``solve(F, budget)`` finishes."""
    budget = 1
    while True:
        try:
            solve(F, budget)
            return budget
        except BudgetExceededError:
            budget += 1


class TestBranchAndBoundOracle:
    """The bitmask solver against the frozenset solver it replaced: the
    same points, and the same number of search nodes."""

    def test_same_points_and_nodes(self, monkeypatch):
        def bitmask(F, budget):
            # the limit is undone on return, so the next family runs under
            # the default again
            with monkeypatch.context() as patch:
                patch.setattr(piercingmod, "DEFAULT_NODE_BUDGET", budget)
                branch_and_bound_piercing(F)

        def reference(F, budget):
            frozenset_branch_and_bound(F, node_budget=budget)

        for F in oracle_families():
            assert branch_and_bound_piercing(F) == frozenset_branch_and_bound(F)
            assert nodes_needed(bitmask, F) == nodes_needed(reference, F)

    @settings(max_examples=60, deadline=None)
    @given(polygon_families())
    def test_same_points_on_touching_polygons(self, F):
        assert branch_and_bound_piercing(F) == frozenset_branch_and_bound(F)


class TestMinPiercing:
    def test_disjoint_needs_one_each(self):
        F = intervals((0, 1), (2, 3), (4, 5), (6, 7))
        assert len(min_piercing(F)) == 4

    def test_shared_point(self):
        F = Family.of([box(0, 0, 2, 2), box(1, 1, 3, 3), box(1, 0, 2, 4)])
        assert len(min_piercing(F)) == 1

    def test_extremal_family_needs_k_plus_2(self):
        F = extremal_dim1(6, 1)
        result = min_piercing(F)
        assert len(result) == 3 and result.certified

    def test_certificate(self):
        for seed in range(10):
            F = random_family(GeneratorSpec("random_polygons", n=6, seed=seed))
            result = min_piercing(F)
            assert result.certified
            for body in F.bodies:
                assert any(body_contains_point(body, p) for p in result.points)

    def test_node_budget(self, monkeypatch):
        F = ring_caps()  # the search needs 6 nodes
        monkeypatch.setattr(piercingmod, "DEFAULT_NODE_BUDGET", 5)
        with pytest.raises(BudgetExceededError, match="exceeded 5 nodes on 9 bodies"):
            min_piercing(F)
        monkeypatch.setattr(piercingmod, "DEFAULT_NODE_BUDGET", 6)
        assert len(min_piercing(F)) == 2

    def test_each_pair_clipped_once(self, clip_calls):
        F = random_family(GeneratorSpec("random_polygons", n=7, seed=4, span=5))
        min_piercing(F)
        min_piercing(F)
        assert clip_calls == [2] * comb(7, 2)

    def test_greedy_matches_bnb(self):
        for seed in range(50):
            F = random_family(GeneratorSpec("random_intervals", n=9, seed=seed))
            assert len(sweep_piercing_1d(F)) == len(frozenset_branch_and_bound(F))

    def test_bnb_refuses_intervals(self):
        # min_piercing sends 1D to the sweep, which in turn refuses 2D
        F = intervals((0, 1), (2, 3))
        with pytest.raises(DimensionMismatchError, match="2D only"):
            branch_and_bound_piercing(F)
        with pytest.raises(DimensionMismatchError, match="1D only"):
            sweep_piercing_1d(Family.of([box(0, 0, 1, 1)]))


class TestSweepOracle:
    """The one-pass 1D sweep against the refiltering sweep it replaced:
    the same points."""

    def test_seeded_families(self):
        for seed in range(30):
            for n, span in ((6, 2), (9, 4), (12, 8)):
                F = random_family(GeneratorSpec("random_intervals", n=n, seed=seed, span=span))
                assert sweep_piercing_1d(F) == refiltering_sweep(F)
                G = Family.of(F.bodies + F.bodies[::2])  # duplicated bodies
                assert sweep_piercing_1d(G) == refiltering_sweep(G)
        for p in range(2, 8):
            for k in range(p - 1):
                F = extremal_dim1(p, k)
                assert sweep_piercing_1d(F) == refiltering_sweep(F)

    def test_shared_ends_and_single_points(self):
        F = intervals((0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (0, 2), (1, 1), (3, 3), (2, 3))
        assert sweep_piercing_1d(F) == refiltering_sweep(F)
        assert sweep_piercing_1d(F).points == (0, 1, 2, 3)

    @given(st.lists(INTERVALS, min_size=1, max_size=12),
           st.lists(st.integers(0, 11), max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_hypothesis_families(self, bodies, copies):
        F = Family.of(bodies + [bodies[i % len(bodies)] for i in copies])
        assert sweep_piercing_1d(F) == refiltering_sweep(F)


class TestHdPierce:
    def test_1d_example(self):
        F = Family.of([Interval(0, 1), Interval(Fraction(1, 2), 2), Interval(3, 4)])
        result = hd_pierce(F, 3, 2)
        assert result.points == (1, 4)
        assert len(result) == len(min_piercing(F))

    def test_helly_base_case(self):
        F = Family.of([box(0, 0, 2, 2), box(1, 1, 3, 3), box(1, 0, 2, 4)])
        result = hd_pierce(F, 3, 3)
        assert len(result) == 1

    def test_small_remainder_branch(self):
        F = Family.of([Interval(0, 1), Interval(0, 1), Interval(5, 6)])
        result = hd_pierce(F, 3, 2)
        assert len(result) <= 2 and result.certified

    def test_property_failure_names_subset(self):
        F = intervals((0, 1), (2, 3), (4, 5))
        with pytest.raises(PremiseViolationError) as err:
            hd_pierce(F, 3, 2)
        assert err.value.witness == (0, 1, 2)

    def test_regime_enforced(self):
        F = Family.of([box(0, 0, 1, 1)] * 6)
        with pytest.raises(ArityError):
            hd_pierce(F, 6, 4)  # 2*4 > 6+2 fails

    def test_errors_in_order(self):
        # standing hypotheses first, then the family's size, then the regime
        small, full = Family.of([box(0, 0, 1, 1)] * 3), Family.of([box(0, 0, 1, 1)] * 6)
        with pytest.raises(ArityError, match=r"need p >= q >= d\+1, got p=6, q=2, d=2"):
            hd_pierce(small, 6, 2)
        with pytest.raises(ArityError, match="family of size 3 smaller than p=6"):
            hd_pierce(small, 6, 4)
        with pytest.raises(ArityError, match=r"need d\*q > \(d-1\)\*p \+ d for the construction"):
            hd_pierce(full, 6, 4)

    def test_survivor_meeting_the_minimizing_region_is_caught(self, monkeypatch):
        # four boxes hold x0 = (1, 1); report the first as missing it, so
        # that it survives although it meets the minimizing pair's region
        F = Family.of([box(-1, -1, 1, 1) for _ in range(4)] + [box(5, 5, 6, 6)])
        assert len(hd_pierce(F, 5, 4)) == 2
        holder, contains = F.bodies[0], piercingmod.body_contains_point
        monkeypatch.setattr(piercingmod, "body_contains_point",
                            lambda body, p: body is not holder and contains(body, p))
        with pytest.raises(AssertionError, match="still meets the minimizing tuple's intersection"):
            hd_pierce(F, 5, 4)

    def test_small_family_rejected(self):
        F = intervals((0, 1), (1, 2))
        with pytest.raises(ArityError):
            hd_pierce(F, 3, 2)

    def test_2d_filtered_instances(self):
        done = 0
        seed = 0
        while done < 12:
            spec = GeneratorSpec("random_polygons", n=6, seed=seed, span=6, extent=8)
            seed += 1
            F = random_family(spec)
            if not satisfies_pqr(F, 6, 5, 1):
                continue
            result = hd_pierce(F, 6, 5)
            assert len(result) <= 2 and result.certified
            done += 1

    def test_1d_equals_greedy_on_random(self):
        for seed in range(30):
            F = random_family(GeneratorSpec("random_intervals", n=7, seed=seed))
            p, q = 5, 2
            if satisfies_pqr(F, p, q, 1):
                result = hd_pierce(F, p, q)
                assert len(result) <= p - q + 1
                assert len(min_piercing(F)) <= len(result)


class TestMsLine:
    def test_disjoint_branch(self):
        F = Family.of([box(0, 0, 1, 1), box(2, 0, 3, 1), box(0, 2, 1, 3)])
        witness = ms_line(F)
        assert witness.x0 is None
        assert not line_meets_body(witness.line, F.bodies[witness.A_index])
        assert not line_meets_body(witness.line, F.bodies[witness.B_index])
        assert_witness(F, witness)

    def test_copies_branch(self):
        F = Family.of([box(0, 0, 1, 1)] * 3)
        witness = ms_line(F)
        assert witness.x0 == pt(1, 1)
        assert witness.line.side(witness.x0) == 0
        assert_witness(F, witness)

    def test_derived_triple(self):
        F = Family.of([box(0, 0, 2, 2), box(1, -1, 3, 1), box(0, 0, 3, 1)])
        assert_witness(F, ms_line(F))

    def test_guarantee_on_random_suite(self):
        for seed in range(60):
            F = random_family(GeneratorSpec("random_polygons", n=5, seed=seed))
            assert_witness(F, ms_line(F))

    def test_guarantee_predicate_matches_clipping(self):
        # on lines that pass and lines that fail, for every ordered pair
        answers = set()
        for seed in range(15):
            F = random_family(GeneratorSpec("random_polygons", n=5, seed=seed, span=5))
            for line in (Line(0, 1, 2), Line(1, 0, 3), Line(1, -1, 0)):
                for ai, bi in itertools.permutations(range(len(F)), 2):
                    want = clipping_guarantee_holds(F, ai, bi, line)
                    assert _line_guarantee_holds(F, ai, bi, line) == want
                    answers.add(want)
        assert answers == {True, False}

    def test_meeting_branch_clips_each_pair_once(self, clip_calls):
        # five boxes through the origin: every pair meets
        F = Family.of([box(-1, -2, 1, 1), box(0, -1, 2, 2), box(-3, 0, 0, 1),
                       box(-1, -1, 0, 0), box(0, 0, 3, 3)])
        witness = ms_line(F)
        assert witness.x0 is not None
        assert clip_calls == [2] * comb(5, 2)
        min_piercing(F)
        assert len(clip_calls) == comb(5, 2)

    def test_meeting_branch_makes_only_the_answer_point(self, monkeypatch):
        # with the pair regions built, the branch makes no polygon, checked
        # or unchecked, and no Fraction but the two coordinates of the x0
        # it returns
        F = Family.of([box(-1, -2, 1, 1), box(0, -1, 2, 2), box(-3, 0, 0, 1),
                       box(-1, -1, 0, 0), box(0, 0, 3, 3)])
        assert len(F.pair_regions) == comb(5, 2)
        fractions, polygons = [], []
        new, check, unchecked = Fraction.__new__, ConvexPolygon.__post_init__, ConvexPolygon._from_hom
        monkeypatch.setattr(Fraction, "__new__",
                            lambda cls, *args, **kwargs: fractions.append(args) or new(cls, *args, **kwargs))
        monkeypatch.setattr(ConvexPolygon, "__post_init__", lambda poly: polygons.append(poly) or check(poly))
        monkeypatch.setattr(ConvexPolygon, "_from_hom",
                            classmethod(lambda cls, hom: polygons.append(hom) or unchecked(hom)))
        witness = ms_line(F)
        assert (fractions, polygons) == ([(0, 1), (0, 1)], [])
        assert witness.x0 == pt(0, 0)

    @staticmethod
    def degenerate_corpus():
        """Pairwise-meeting families of points, segments and bodies that
        touch at one vertex, where the witness line is least obvious."""
        hull = ConvexPolygon.from_points
        sectors = [((1, 0), (1, 1)), ((0, 1), (-1, 1)), ((-1, 0), (-1, -1)),
                   ((0, -1), (1, -1)), ((1, 1), (0, 1)), ((-1, -1), (0, -1))]
        for size in (2, 3, 4):
            for combo in itertools.combinations(sectors, size):
                yield Family.of([hull([pt(0, 0), pt(*a), pt(*b)]) for a, b in combo])
                yield Family.of([hull([pt(0, 0), pt(*a)]) for a, _ in combo])
        yield Family.of([hull([pt(1, 1)])] * 3)
        yield Family.of([hull([pt(0, 0), pt(2, 0)]), hull([pt(1, 0), pt(3, 0)]),
                         hull([pt(1, -1), pt(1, 1)])])
        rng = random.Random(5)
        for _ in range(400):
            c = (rng.randint(-2, 2), rng.randint(-2, 2))
            grid = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(12)]
            for bodies in (
                [hull([pt(*c)] + [pt(c[0] + rng.randint(-3, 3), c[1] + rng.randint(-3, 3))
                                  for _ in range(rng.randint(0, 2))])
                 for _ in range(rng.randint(2, 5))],
                [hull([pt(*grid.pop()) for _ in range(rng.choice((1, 2, 2, 3)))])
                 for _ in range(rng.randint(2, 4))],
            ):
                if all(intersect_bodies([A, B]) is not None
                       for A, B in itertools.combinations(bodies, 2)):
                    yield Family.of(bodies)

    def test_degenerate_corpus(self):
        # every family takes the all-pairs-meet branch; the first line
        # through x0 that separates the pair must also pass the guarantee
        count = 0
        for F in self.degenerate_corpus():
            witness = ms_line(F)
            assert witness.x0 is not None and witness.line.side(witness.x0) == 0
            assert_witness(F, witness)
            count += 1
        assert count > 300

    def test_pair_regions_on_degenerate_corpus(self):
        for F in self.degenerate_corpus():
            assert list(F.pair_regions.items()) == list(brute_pair_regions(F).items())


def quadrant_body(rng, cx, cy, r):
    """The hull of an integer point in each open quadrant around (cx, cy),
    each at most r from it along each axis, and maybe one more such point:
    (cx, cy) lies inside."""
    signs = [(1, 1), (-1, 1), (-1, -1), (1, -1)]
    signs += rng.sample(signs, rng.randint(0, 1))
    return ConvexPolygon.from_points(
        [pt(cx + sx * rng.randint(1, r), cy + sy * rng.randint(1, r)) for sx, sy in signs])


def witness_corpus():
    """2,967 families, 1,153 of them pairwise meeting: seven bodies through
    one point, four clusters of two bodies 40 apart, random polygon
    families of spans 3, 5 and 12, and the degenerate corpus."""
    rng = random.Random(26)
    for _ in range(400):
        cx, cy = rng.randint(-3, 3), rng.randint(-3, 3)
        yield Family.of([quadrant_body(rng, cx, cy, 14) for _ in range(7)])
    for _ in range(200):
        yield Family.of([quadrant_body(rng, 40 * (c % 3) + rng.randint(-8, 8),
                                       40 * (c // 3) + rng.randint(-8, 8), 14)
                         for c in range(4) for _ in range(2)])
    for span in (3, 5, 12):
        for seed in range(600):
            yield random_family(GeneratorSpec("random_polygons", n=6, seed=seed, span=span))
    yield from TestMsLine.degenerate_corpus()


#: coordinates for the witness cross-check: small integers, and values
#: within 40 of 2^64 over denominators up to 7
SMALL = st.integers(-4, 4).map(Fraction)
NEAR_2_64 = st.builds(lambda k, d: 2 ** 64 + Fraction(k, d), st.integers(-40, 40), st.integers(1, 7))


@st.composite
def mostly_meeting_families(draw):
    """Two to five bodies of one to four points, so points and segments
    among them; most hold one shared point, so most families take the
    all-pairs-meet branch."""
    kind = draw(st.sampled_from((SMALL, NEAR_2_64, st.one_of(SMALL, NEAR_2_64))))
    shared = draw(st.builds(Point, kind, kind))
    bodies = []
    for _ in range(draw(st.integers(2, 5))):
        points = draw(st.lists(st.builds(Point, kind, kind), max_size=3))
        if not points or draw(st.integers(0, 4)):
            points.append(shared)
        bodies.append(ConvexPolygon.from_points(points))
    return Family.of(bodies)


class TestMsLineAgainstFractionBranch:
    """The integer branch returns the witness, repr for repr, that the
    Fraction branch it replaced returned."""

    def test_corpus(self):
        count = meeting = 0
        for F in witness_corpus():
            witness = ms_line(F)
            assert repr(witness) == repr(fraction_ms_line(F))
            count += 1
            meeting += witness.x0 is not None
        assert (count, meeting) == (2967, 1153)

    @given(mostly_meeting_families())
    @settings(max_examples=150, deadline=None)
    def test_points_segments_and_coordinates_near_2_64(self, F):
        witness = ms_line(F)
        assert repr(witness) == repr(fraction_ms_line(F))
        assert_witness(F, witness)


class TestLinePierce:
    AXIS = Line(0, 1, 0)

    def test_all_crossing_single_point(self):
        F = Family.of([box(0, -1, 3, 1), box(1, -2, 3, 2), box(2, -1, 3, 1)])
        result = line_pierce(F, self.AXIS, 3, 0)
        assert len(result) == 1 and result.certified

    def test_extremal_pattern_needs_k_plus_1(self):
        # x-ranges follow the 1D tight pattern for (p,k)=(5,1): three
        # singleton columns at x=1,2,3 plus two spanning rectangles
        cols = [box(i, -1, i, 1) for i in (1, 2, 3)]
        spans = [box(0, -1, 4, 1)] * 2
        F = Family.of(cols + spans)
        result = line_pierce(F, self.AXIS, 5, 2)
        assert len(result) == 3

    def test_one_body_missing_line(self):
        # with k=1 and p=3 the threshold r0 is 1, so one off-line body is
        # tolerated as long as the others pairwise meet on the line
        F = Family.of(
            [box(0, -1, 2, 1), box(1, -1, 3, 1), box(0, -2, 3, 2), box(5, 5, 6, 6)]
        )
        result = line_pierce(F, self.AXIS, 3, 1)
        assert len(result) == 2 and result.certified
        assert pt(6, 6) in result.points

    def test_premise_violation(self):
        F = Family.of([box(0, 5, 1, 6), box(2, 5, 3, 6), box(4, 5, 5, 6)])
        with pytest.raises(PremiseViolationError):
            line_pierce(F, self.AXIS, 3, 0)

    def test_diagonal_line(self):
        diag = Line(1, -1, 0)  # y = x
        F = Family.of([box(0, 0, 2, 2), box(1, 1, 3, 3), box(2, 2, 4, 4)])
        result = line_pierce(F, diag, 3, 1)
        assert result.certified and len(result) <= 2

    def test_each_body_traced_once(self, monkeypatch):
        calls = []

        def counting(body, line):
            calls.append(body)
            return geometry.line_trace(body, line)

        # every name under which the program calls line_trace
        for module in (familymod, piercingmod):
            monkeypatch.setattr(module, "line_trace", counting)
        F = Family.of(
            [box(0, -1, 2, 1), box(1, -1, 3, 1), box(0, -2, 3, 2), box(5, 5, 6, 6)]
        )
        line_pierce(F, self.AXIS, 3, 1)
        assert calls == list(F.bodies)

    def test_traces_ranked_once(self, monkeypatch):
        # the premise and the stabs read one ranking of the traces
        built = []

        class Counting(familymod._Ranks):
            def __init__(self, intervals):
                built.append(intervals)
                super().__init__(intervals)

        monkeypatch.setattr(familymod, "_Ranks", Counting)
        F = Family.of(
            [box(0, -1, 2, 1), box(1, -1, 3, 1), box(0, -2, 3, 2), box(5, 5, 6, 6)]
        )
        for k in (0, 1):
            built.clear()
            try:
                line_pierce(F, self.AXIS, 3, k)
            except PremiseViolationError:
                assert k == 0  # one body misses the line
            assert len(built) == 1


class TestPairLemma:
    def test_lexmax_of_subfamily_equals_some_pair(self):
        for seed in range(40):
            F = random_family(GeneratorSpec("random_polygons", n=5, seed=seed, span=5))
            n = len(F)
            for size in range(3, min(n, 6) + 1):
                for tup in itertools.combinations(range(n), size):
                    region = intersect_bodies([F.bodies[i] for i in tup])
                    if region is None:
                        continue
                    target = lexmax_body(region)
                    pair_maxima = set()
                    for i, j in itertools.combinations(tup, 2):
                        sub = intersect_bodies([F.bodies[i], F.bodies[j]])
                        if sub is not None:
                            pair_maxima.add(lexmax_body(sub))
                    assert target in pair_maxima


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), dimension=st.sampled_from((1, 2)), data=st.data())
def test_duplicating_a_body_keeps_piercing_number(seed, dimension, data):
    kind, n = ("random_intervals", 7) if dimension == 1 else ("random_polygons", 5)
    F = random_family(GeneratorSpec(kind, n=n, seed=seed, span=5))
    copied = data.draw(st.integers(0, n - 1))
    G = Family(dimension, F.bodies + (F.bodies[copied],))
    assert len(min_piercing(G)) == len(min_piercing(F))
    # the copy raises the count of every point by 0 or 1, and n by 1
    assert degeneracy_level(G)[0] - degeneracy_level(F)[0] in (0, 1)
