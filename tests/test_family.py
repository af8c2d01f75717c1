"""Property verification over families: counting, (p,q)_r, degeneracy."""

import copy
import itertools
import pickle
import random
import tracemalloc
from fractions import Fraction
from math import comb, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqpierce.bounds import kalai_bound
from pqpierce.errors import ArityError, BudgetExceededError
from pqpierce import family as familymod
from pqpierce.family import (
    Family,
    _Ranks,
    _build_links,
    _fewest_flagged,
    _interval_sweep,
    _intersecting_qtuples,
    _satisfies_pqr_on_traces,
    count_intersecting_qtuples,
    degeneracy_level,
    f_vector,
    is_t_degenerate,
    max_r,
    satisfies_pqr,
    satisfies_pqr_through_line,
)
from pqpierce.generators import GeneratorSpec, extremal_dim1, random_family
from pqpierce.geometry import (
    ConvexPolygon,
    Interval,
    Line,
    Point,
    _contains_hom,
    body_contains_point,
    intersect_bodies,
    line_meets_body,
    line_trace,
    pt,
)
from pqpierce.piercing import candidate_points, min_piercing

from conftest import (
    LINES,
    TIED_INTERVALS,
    assert_1d_search_matches_scan,
    assert_memo_holds_q_up_to_3,
    box,
    canonical_links,
    check_1d_claims,
    dim1_claims,
    fraction_degeneracy_1d,
    fraction_interval_sweep,
    fraction_sweep_piercing_1d,
    grouped,
    intervals,
    matched_families,
    point_degeneracy_2d,
    polygon_families,
    scan_fewest,
    seeded_polygon_families,
    swept_qtuples,
    tied_families,
    walked_qtuples,
)


def brute_count(F, q):
    """Independent oracle: direct enumeration of all q-subsets."""
    return sum(
        1
        for tup in itertools.combinations(range(len(F)), q)
        if intersect_bodies([F.bodies[i] for i in tup]) is not None
    )


class TestCounting:
    def test_single_pair(self):
        F = intervals((0, 2), (1, 3), (5, 6))
        assert count_intersecting_qtuples(F, 2) == 1

    def test_four_copies(self):
        F = Family.of([Interval(0, 1)] * 4)
        assert count_intersecting_qtuples(F, 3) == 4

    def test_oracle_frozen_example(self):
        # committed values produced by the brute-force oracle
        F = Family.of([Interval(0, 2), Interval(1, 3), Interval(Fraction(5, 2), 4)])
        assert brute_count(F, 2) == 2 and brute_count(F, 3) == 0
        assert count_intersecting_qtuples(F, 2) == 2
        assert count_intersecting_qtuples(F, 3) == 0

    def test_matches_oracle_on_random_families(self):
        for seed in range(25):
            F = random_family(GeneratorSpec("random_intervals", n=7, seed=seed))
            for q in range(1, 8):
                assert count_intersecting_qtuples(F, q) == brute_count(F, q)
        for seed in range(10):
            F = random_family(GeneratorSpec("random_polygons", n=5, seed=seed))
            for q in range(1, 6):
                assert count_intersecting_qtuples(F, q) == brute_count(F, q)

    def test_arity(self):
        with pytest.raises(ArityError):
            count_intersecting_qtuples(intervals((0, 1)), 2)


def stack_fewest(flags, n, p, q, floor):
    """Oracle: the previous p-subset search, which counts one q-tuple at a
    time.  Each flagged q-tuple is the mask of its first q-1 indices under
    its last index; a prefix whose count reaches the best is not
    extended, and only a strictly smaller count replaces the best."""
    closed_by = [[] for _ in range(n)]
    for tup in flags:
        mask = 0
        for j in tup[:-1]:
            mask |= 1 << j
        closed_by[tup[-1]].append(mask)
    best = comb(p, q) + 1
    best_mask = 0
    stack = [(1, 0, 0, i) for i in range(n - p, -1, -1)]
    while stack:
        size, mask, count, i = stack.pop()
        for m in closed_by[i]:
            if m & mask == m:
                count += 1
        if count >= best:
            continue
        mask |= 1 << i
        if size < p:
            stack.extend([(size + 1, mask, count, j) for j in range(n - p + size, i, -1)])
            continue
        best, best_mask = count, mask
        if best < floor:
            break
    return best, tuple(j for j in range(n) if best_mask >> j & 1)


def fewest(F, flags, p, q, floor):
    return _fewest_flagged(F, p, q, lambda: grouped(flags, len(F), q), floor, "test")


def bounded_fewest(F, flags, p, q, floor, ranks):
    """The search with the suffix piercing bound of ``ranks``."""
    return _fewest_flagged(F, p, q, lambda: grouped(flags, len(F), q), floor, "test", ranks)


def assert_floor_matches_scan(F, flags, p, q, floor):
    got = fewest(F, flags, p, q, floor)
    assert got == scan_fewest(flags, len(F), p, q, floor)
    assert got == stack_fewest(flags, len(F), p, q, floor)


def seeded_families():
    for seed in range(6):
        for n in (5, 7, 9):
            yield random_family(GeneratorSpec("random_intervals", n=n, seed=seed, span=4))
    for seed in range(3):
        for n in (5, 6):
            yield random_family(GeneratorSpec("random_polygons", n=n, seed=seed, span=4))


def on_line_flags(F, line, q):
    return {tup for tup in itertools.combinations(range(len(F)), q)
            if (region := intersect_bodies([F.bodies[i] for i in tup])) is not None
            and line_meets_body(line, region)}


class TestPrunedScanAgainstOracle:
    def test_max_r_and_floors(self):
        for F in seeded_families():
            n = len(F)
            for q in range(1, n + 1):
                flags = walked_qtuples(F, q)
                for p in range(q, n + 1):
                    want = scan_fewest(flags, n, p, q, 1)
                    report = max_r(F, p, q)
                    assert (report.max_r, report.witness_subset) == want
                    for r in (2, 3, comb(p, q)):
                        assert_floor_matches_scan(F, flags, p, q, r)
                        assert satisfies_pqr(F, p, q, r) == (want[0] >= r)

    def test_through_line(self):
        line = Line(0, 1, 0)
        for F in seeded_families():
            if F.dimension != 2:
                continue
            n = len(F)
            for q in range(1, n + 1):
                flags = on_line_flags(F, line, q)
                for p in range(q, n + 1):
                    want = scan_fewest(flags, n, p, q, 1)
                    for r in (1, 2, 4):
                        assert_floor_matches_scan(F, flags, p, q, r)
                        assert satisfies_pqr_through_line(F, line, p, q, r) == (want[0] >= r)

    def test_satisfies_pqr_agrees_with_max_r(self):
        for F in seeded_families():
            for p, q in ((3, 1), (4, 2), (5, 3), (5, 2)):
                r_max = max_r(F, p, q).max_r
                for r in range(1, comb(p, q) + 2):
                    assert satisfies_pqr(F, p, q, r) == (r_max >= r)

    def test_larger_1d_families_against_both_oracles(self, monkeypatch):
        # the full scan only where it stays small; with q = 1 every member
        # is flagged, so the first p-subset is the answer and the previous
        # search visits all C(n, p) subsets to confirm it
        monkeypatch.setattr(familymod, "DEFAULT_WORK_BUDGET", 10**9)
        for n in range(10, 19, 2):
            F = random_family(GeneratorSpec("random_intervals", n=n, seed=n, span=18, extent=6))
            for q in range(1, 6):
                flags = swept_qtuples(F._nerve.ranks, q)
                for p in range(q, n + 1):
                    for floor in (1, 2, 3, comb(p, q), comb(p, q) + 1):
                        got = fewest(F, flags, p, q, floor)
                        assert got == bounded_fewest(F, flags, p, q, floor, F._nerve.ranks)
                        if q == 1:
                            assert got == (p, tuple(range(p)))
                        if q > 1 or n <= 14:
                            assert got == stack_fewest(flags, n, p, q, floor)
                        if comb(n, p) * comb(p, q) <= 20_000:
                            assert got == scan_fewest(flags, n, p, q, floor)

    def test_ties_keep_the_first_witness(self):
        # two cliques of four: a 4-subset with two members in each holds
        # the fewest pairs (2) and no triple, 36 times over; children whose
        # bound equals the best are skipped, and the first subset stays
        F = intervals(*[(i, i + 1) for i in range(8)])  # fixes n only
        for q, low in ((2, 2), (3, 0)):
            flags = {tup for tup in itertools.combinations(range(8), q)
                     if len({i // 4 for i in tup}) == 1}
            for floor in (1, 2, 3, 4, 7):
                got = fewest(F, flags, 4, q, floor)
                if floor <= low + 1:  # only a subset of the fewest stops it
                    assert got == (low, (0, 1, 4, 5))
                assert got == scan_fewest(flags, 8, 4, q, floor)
                assert got == stack_fewest(flags, 8, 4, q, floor)

    def test_deeper_than_the_recursion_limit(self):
        F = intervals(*[(i, i + 1) for i in range(1200)])
        report = max_r(F, 1200, 1)
        assert report.max_r == 1200
        assert report.witness_subset == tuple(range(1200))


class TestEveryIntervalFamily:
    def test_up_to_five_members(self):
        # 1 + 3 + 15 + 105 + 945 families: the links and the pruned
        # search on every input shape of that size, not on a sample;
        # tests/exhaustive_1d.py runs six members by hand
        for n in range(1, 6):
            count = 0
            for F in matched_families(n):
                assert_1d_search_matches_scan(F)
                count += 1
            assert count == prod(range(1, 2 * n, 2))

    def test_claims_up_to_five_members(self):
        # dim1_threshold's piercing claim on every family; tests/exhaustive_1d.py
        # runs six members by hand
        tight, at_r0 = set(), set()
        for n in range(1, 6):
            for F in matched_families(n):
                check_1d_claims(F, tight, at_r0)
        # some family below each threshold needs k + 2 points, and for
        # q = 2 one at exactly r0 - 1 does
        q2 = {claim for claim in tight if claim[1] == 2}
        assert tight == dim1_claims(5) and len(tight) == 10
        assert len(q2) == 6 and q2 <= at_r0


#: trace lists: TIED_INTERVALS, with None for a body that misses the line
TRACES = st.lists(st.one_of(st.none(), TIED_INTERVALS), min_size=1, max_size=8)


def sweep_flags(intervals, q):
    """The meeting q-tuples of a sequence of intervals or None, from the
    Fraction sweep."""
    return frozenset(tuple(sorted(others + (i,)))
                     for i, earlier in fraction_interval_sweep(intervals)
                     for others in itertools.combinations(earlier, q - 1))


def brute_piercing_number(bodies):
    """The fewest points piercing every interval, found by trying every
    set of k right endpoints for k = 0, 1, ... (some minimum piercing set
    uses right endpoints only)."""
    his = sorted({body.hi for body in bodies})
    for k in range(len(his) + 1):
        for points in itertools.combinations(his, k):
            if all(any(body.contains(x) for x in points) for body in bodies):
                return k


class TestPiercingBound:
    @settings(max_examples=150, deadline=None)
    @given(TRACES)
    def test_suffix_taus_are_piercing_numbers(self, traces):
        taus = _Ranks(traces).taus
        for j in range(len(traces)):
            present = [body for body in traces[j:] if body is not None]
            missing = len(traces) - j - len(present)
            assert taus[j] == brute_piercing_number(present) + missing

    @settings(max_examples=40, deadline=None)
    @given(tied_families(max_size=8))
    def test_max_r_and_floors_match_the_oracles(self, F):
        n = len(F)
        for q in range(1, min(n, 5) + 1):
            flags = sweep_flags(F.bodies, q)
            for p in range(q, n + 1):
                want = scan_fewest(flags, n, p, q, 1)
                report = max_r(F, p, q)
                assert (report.max_r, report.witness_subset) == want
                assert want == stack_fewest(flags, n, p, q, 1)
                for r in (2, 3, comb(p, q)):
                    got = bounded_fewest(F, flags, p, q, r, F._nerve.ranks)
                    assert got == scan_fewest(flags, n, p, q, r)
                    assert got == stack_fewest(flags, n, p, q, r)
                    assert satisfies_pqr(F, p, q, r) == (want[0] >= r)

    @settings(max_examples=40, deadline=None)
    @given(TRACES)
    def test_traces_with_missing_bodies_match_the_oracles(self, traces):
        n = len(traces)
        F = intervals(*[(i, i) for i in range(n)])  # fixes n only
        ranks = _Ranks(traces)
        for q in range(1, min(n, 5) + 1):
            flags = sweep_flags(traces, q)
            assert swept_qtuples(ranks, q) == flags
            for p in range(q, n + 1):
                for r in (1, 2, 3, comb(p, q)):
                    got = bounded_fewest(F, flags, p, q, r, ranks)
                    assert got == scan_fewest(flags, n, p, q, r)
                    assert got == stack_fewest(flags, n, p, q, r)
                    assert _satisfies_pqr_on_traces(F, ranks, p, q, r) == (got[0] >= r)


class TestRanks:
    @settings(max_examples=150, deadline=None)
    @given(TRACES)
    def test_ranks_keep_the_order_of_the_endpoints(self, traces):
        ranks = _Ranks(traces)
        assert ranks.values == sorted({x for body in traces if body is not None
                                       for x in (body.lo, body.hi)})
        for body, lo, hi in zip(traces, ranks.lo, ranks.hi):
            if body is None:
                assert lo is None and hi is None
            else:
                assert (ranks.values[lo], ranks.values[hi]) == (body.lo, body.hi)
        assert list(_interval_sweep(ranks)) == list(fraction_interval_sweep(traces))

    @settings(max_examples=150, deadline=None)
    @given(tied_families(max_size=10))
    def test_sweeps_match_the_fraction_oracles(self, F):
        n = len(F)
        degrees = [len(earlier) for _, earlier in fraction_interval_sweep(F.bodies)]
        assert f_vector(F) == tuple(sum(comb(d, j) for d in degrees) for j in range(n))
        for q in range(1, n + 1):
            assert count_intersecting_qtuples(F, q) == sum(comb(d, q - 1) for d in degrees)
        level, point = degeneracy_level(F)
        assert (level, point) == fraction_degeneracy_1d(F) and type(point) is Fraction
        pierced = min_piercing(F)
        assert pierced == fraction_sweep_piercing_1d(F)
        assert all(type(x) is Fraction for x in pierced.points)

    @settings(max_examples=150, deadline=None)
    @given(TRACES)
    def test_links_match_the_swept_tuples(self, traces):
        ranks = _Ranks(traces)
        n = len(traces)
        for a, b in itertools.combinations(range(n), 2):
            meet = (traces[a] is not None and traces[b] is not None
                    and intersect_bodies([traces[a], traces[b]]) is not None)
            assert (ranks.adj[a] >> b & 1, ranks.adj[b] >> a & 1) == (meet, meet)
        for q in range(1, n + 1):
            want = canonical_links(grouped(swept_qtuples(ranks, q), n, q))
            assert canonical_links(_build_links(ranks, q)) == want
            if q <= 3:  # the memo the search reads
                assert _intersecting_qtuples(ranks, q) is _intersecting_qtuples(ranks, q)
                assert canonical_links(_intersecting_qtuples(ranks, q)) == want

    def test_links_on_seeded_families(self):
        # wide intervals over narrow ones: members that meet a pair need
        # not meet each other, which the q >= 4 cliques must respect
        for seed in range(12):
            F = random_family(GeneratorSpec("random_intervals", n=6 + seed % 6, seed=seed,
                                            span=10, extent=6))
            ranks, n = F._nerve.ranks, len(F)
            for q in range(1, n + 1):
                want = canonical_links(grouped(swept_qtuples(ranks, q), n, q))
                assert canonical_links(_build_links(ranks, q)) == want

    def test_searches_leave_the_shared_links_unchanged(self):
        for F in (random_family(GeneratorSpec("random_intervals", n=12, seed=5, span=6)),
                  random_family(GeneratorSpec("random_polygons", n=8, seed=5, span=4))):
            nerve = F._nerve.ranks if F.dimension == 1 else F._nerve
            for p, q in ((6, 1), (6, 2), (7, 3)):
                shared = _intersecting_qtuples(nerve, q)
                kept = copy.deepcopy(shared)
                first = max_r(F, p, q)
                for r in (1, 2, first.max_r, first.max_r + 1):
                    satisfies_pqr(F, p, q, r)
                assert max_r(F, p, q) == first
                assert _intersecting_qtuples(nerve, q) is shared and shared == kept

    def test_links_past_q_3_are_not_kept(self):
        # on 16 nested intervals every q-tuple meets, so the links of
        # q = 8 alone hold C(16, 8) masks; keeping every q held 1.16 MB
        # after this loop, and the q <= 3 links about 25 KB
        F = Family.of([Interval(-i, i) for i in range(1, 17)])
        _intersecting_qtuples.cache_clear()
        tracemalloc.start()
        try:
            for q in range(1, 17):
                assert max_r(F, 16, q).max_r == comb(16, q)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept < 250_000
        assert_memo_holds_q_up_to_3(F._nerve.ranks)

    def test_memo_leaves_equality_hashing_vars_and_pickle(self):
        F = random_family(GeneratorSpec("random_intervals", n=8, seed=3))
        G = Family(F.dimension, F.bodies)
        before, pickled, digest = dict(vars(F)), pickle.dumps(F), hash(F)
        f_vector(F)
        max_r(F, 5, 3)
        degeneracy_level(F)
        min_piercing(F)
        assert "ranks" in vars(F._memo)
        assert vars(F) == before and F == G and hash(F) == digest == hash(G)
        assert pickle.dumps(F) == pickled == pickle.dumps(G)
        for other in (pickle.loads(pickled), copy.copy(F), copy.deepcopy(F)):
            assert other == F and not hasattr(other, "_memo")
            assert f_vector(other) == f_vector(F)
            assert other._memo.ranks is not F._memo.ranks


class TestMaxR:
    def test_extremal_family_paper_value(self):
        # 3 singletons + 3 covering segments: r = C(3,3) + 3*C(3,2) = 10
        F = extremal_dim1(6, 1)
        assert max_r(F, 6, 3).max_r == 10

    def test_disjoint(self):
        F = intervals((0, 1), (2, 3), (4, 5), (6, 7))
        assert max_r(F, 4, 2).max_r == 0

    def test_copies_saturate(self):
        F = Family.of([box(0, 0, 1, 1)] * 6)
        assert max_r(F, 4, 2).max_r == 6

    def test_witness_attains_minimum(self):
        F = intervals((0, 2), (1, 3), (5, 6), (0, 1))
        report = max_r(F, 3, 2)
        count = sum(
            1
            for tup in itertools.combinations(report.witness_subset, 2)
            if intersect_bodies([F.bodies[i] for i in tup]) is not None
        )
        assert count == report.max_r

    def test_budget(self, monkeypatch):
        F = intervals(*[(i, i + 1) for i in range(10)])
        monkeypatch.setattr(familymod, "DEFAULT_WORK_BUDGET", 10)
        with pytest.raises(BudgetExceededError, match="needs 2640 steps, budget is 10"):
            max_r(F, 5, 3)

    def test_budget_boundary(self, monkeypatch):
        # a query needing exactly the budget runs; one step more is refused
        F = intervals(*[(i, i + 1) for i in range(10)])
        monkeypatch.setattr(familymod, "DEFAULT_WORK_BUDGET", 2640)
        assert max_r(F, 5, 3).max_r == 0
        monkeypatch.setattr(familymod, "DEFAULT_WORK_BUDGET", 2639)
        with pytest.raises(BudgetExceededError, match="needs 2640 steps, budget is 2639"):
            max_r(F, 5, 3)

    def test_capped_by_total_count(self):
        from math import comb

        for seed in range(15):
            F = random_family(GeneratorSpec("random_intervals", n=7, seed=seed))
            for p, q in [(4, 2), (5, 3), (6, 2)]:
                report = max_r(F, p, q)
                assert 0 <= report.max_r <= comb(p, q)


class TestSatisfiesPQR:
    def test_monotone_in_r(self):
        F = extremal_dim1(6, 1)
        values = [satisfies_pqr(F, 6, 3, r) for r in range(1, 12)]
        assert values == sorted(values, reverse=True)  # True ... then False
        assert satisfies_pqr(F, 6, 3, 10) and not satisfies_pqr(F, 6, 3, 11)

    def test_monotone_in_p(self):
        for seed in range(20):
            F = random_family(GeneratorSpec("random_intervals", n=8, seed=seed))
            for p in range(2, 7):
                r = max_r(F, p, 2).max_r
                if r >= 1:
                    assert satisfies_pqr(F, p + 1, 2, r)

    def test_r_must_be_positive(self):
        # checked before p and q, which are out of range here too
        F = Family.of([box(0, 0, 1, 1), box(2, 0, 3, 1)])
        for r in (0, -1):
            for check in (lambda: satisfies_pqr(F, 3, 2, r),
                          lambda: satisfies_pqr_through_line(F, Line(0, 1, 0), 3, 2, r)):
                with pytest.raises(ArityError, match=f"r must be >= 1, got {r}"):
                    check()


def remapped_trace_flags(F, line, q):
    """Reference through-line q-tuples: the traces of the bodies that meet
    the line, swept as a list of their own, each tuple mapped back to the
    family's indices."""
    traces = {i: trace for i, body in enumerate(F.bodies)
              if (trace := line_trace(body, line)) is not None}
    ids = list(traces)
    return {tuple(ids[k] for k in indices)
            for indices in swept_qtuples(_Ranks(list(traces.values())), q)}


class TestThroughLine:
    def test_rectangles_crossing_axis(self):
        axis = Line(0, 1, 0)
        F = Family.of(
            [box(0, -1, 3, 1), box(1, -2, 4, 1), box(2, -1, 5, 2), box(Fraction(5, 2), -1, 6, 1)]
        )
        assert satisfies_pqr_through_line(F, axis, 4, 2, 6)

    def test_far_line_fails(self):
        F = Family.of([box(0, -1, 3, 1), box(1, -2, 4, 1), box(2, -1, 5, 2)])
        assert not satisfies_pqr_through_line(F, Line(0, 1, 100), 3, 2, 1)

    def test_through_line_implies_plain(self):
        axis = Line(0, 1, 0)
        for seed in range(15):
            F = random_family(GeneratorSpec("random_polygons", n=5, seed=seed, span=4))
            for r in range(1, 4):
                if satisfies_pqr_through_line(F, axis, 4, 2, r):
                    assert satisfies_pqr(F, 4, 2, r)

    @given(polygon_families(), LINES)
    @settings(max_examples=100, deadline=None)
    def test_sweep_skips_missing_traces(self, F, line):
        traces = [line_trace(body, line) for body in F.bodies]
        for q in range(1, len(F) + 1):
            assert swept_qtuples(_Ranks(traces), q) == remapped_trace_flags(F, line, q)


def scan_degeneracy(F):
    """Oracle: every body tested against every candidate point, keeping
    the first point of greatest depth."""
    best_count, best_point = -1, None
    for point in candidate_points(F):
        count = sum(1 for body in F.bodies if body_contains_point(body, point))
        if count > best_count:
            best_count, best_point = count, point
    return len(F) - best_count, best_point


class TestDegeneracy:
    def test_1d_sweep_matches_scan_on_ties(self):
        # small integer ends: point intervals, duplicates, touching ends
        rng = random.Random(7)
        for _ in range(600):
            pairs = []
            for _ in range(rng.randint(1, 10)):
                lo = rng.randint(0, 6)
                pairs.append((lo, lo + rng.randint(0, 3)))
            F = intervals(*pairs)
            assert degeneracy_level(F) == scan_degeneracy(F)

    @settings(max_examples=80, deadline=None)
    @given(polygon_families())
    def test_2d_early_stop_matches_scan(self, F):
        level, point = degeneracy_level(F)
        assert (level, point) == scan_degeneracy(F) == point_degeneracy_2d(F)
        assert type(point) is Point and type(point.x) is type(point.y) is Fraction

    def test_2d_integer_scan_on_seeded_families(self):
        for F in seeded_polygon_families():
            assert degeneracy_level(F) == point_degeneracy_2d(F)

    def test_2d_degenerate_families(self):
        hull = ConvexPolygon.from_points
        point, cross = hull([pt(1, 1)]), hull([pt(0, 2), pt(2, 0)])
        for bodies in ([point], [box(0, 0, 1, 1)], [point] * 3, [cross, hull([pt(0, 0), pt(2, 2)]), point],
                       [cross, cross, box(3, 3, 4, 4), box(3, 3, 4, 4)],
                       [hull([pt(0, 0), pt(1, 0)]), hull([pt(1, 0), pt(2, 0)]), hull([pt(2, 0), pt(3, 0)])]):
            F = Family.of(bodies)
            assert degeneracy_level(F) == scan_degeneracy(F) == point_degeneracy_2d(F)

    def test_2d_scan_stops_at_the_pair_degree_bound(self, monkeypatch):
        # every pair of nested boxes meets, and the first candidate (1, 1)
        # lies in all of them, so no other candidate is tested
        F = Family.of([box(-i - 1, -i - 1, i + 1, i + 1) for i in range(8)])
        calls = []
        monkeypatch.setattr(familymod, "_contains_hom",
                            lambda body, v: calls.append(v) or _contains_hom(body, v))
        assert degeneracy_level(F) == (0, pt(1, 1))
        assert calls == [(1, 1, 1)] * 8

    def test_copies_zero_degenerate(self):
        F = Family.of([Interval(0, 1)] * 5)
        ok, witness = is_t_degenerate(F, 0)
        assert ok and witness == 1

    def test_extremal_degeneracy_boundary(self):
        for p, k in [(5, 1), (6, 1), (7, 2), (6, 2)]:
            F = extremal_dim1(p, k)
            assert is_t_degenerate(F, k + 1)[0]
            assert not is_t_degenerate(F, k)[0]

    def test_disjoint_family(self):
        F = intervals((0, 1), (2, 3), (4, 5), (6, 7))
        assert is_t_degenerate(F, 3)[0]
        assert not is_t_degenerate(F, 2)[0]

    def test_witness_actually_pierces(self):
        F = intervals((0, 2), (1, 3), (5, 6))
        ok, witness = is_t_degenerate(F, 1)
        assert ok
        assert sum(1 for b in F.bodies if b.contains(witness)) >= 2


class TestConsistencyStructural:
    def test_helly_2d_on_random_families(self):
        # if every 3-subset of a 2D family intersects, the whole family does
        checked = 0
        for seed in range(60):
            F = random_family(GeneratorSpec("random_polygons", n=5, seed=seed, span=4, extent=8))
            triples_ok = all(
                intersect_bodies([F.bodies[i] for i in tup]) is not None
                for tup in itertools.combinations(range(len(F)), 3)
            )
            if triples_ok:
                checked += 1
                assert intersect_bodies(list(F.bodies)) is not None
        assert checked >= 3  # the suite actually exercised the implication

    def test_kalai_consistency_small(self):
        for seed in range(40):
            F = random_family(GeneratorSpec("random_intervals", n=7, seed=seed))
            fvec = f_vector(F)
            n, d = len(F), 1
            for s in range(0, n - d):
                if fvec[d + s] != 0:
                    continue
                for q in range(1, n + 1):
                    assert fvec[q - 1] <= kalai_bound(n, q, s, d)

    def test_fvector_matches_counts(self):
        F = extremal_dim1(7, 2)
        fvec = f_vector(F)
        for q in range(1, 8):
            assert fvec[q - 1] == count_intersecting_qtuples(F, q)
