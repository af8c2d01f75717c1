"""The intersecting-subfamily walk and every consumer of it, checked
against brute-force enumeration of all index tuples."""

import itertools
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from pqpierce import family as familymod
from pqpierce.family import (
    Family,
    _intersecting_qtuples,
    count_intersecting_qtuples,
    degeneracy_level,
    f_vector,
    max_r,
    satisfies_pqr_through_line,
)
from pqpierce.generators import GeneratorSpec, random_family
from pqpierce.geometry import Interval, Line, intersect_bodies, lexmax_body, line_meets_body
from pqpierce.piercing import candidate_points, min_piercing

from conftest import box, brute_pair_regions, canonical_links, grouped, intersecting_subfamilies, intervals

LINES = (Line(0, 1, 0), Line(1, 1, 4), Line(1, -2, 1))


def brute_subfamilies(F, sizes):
    """Every intersecting subfamily with size in sizes, lexicographically."""
    out = []
    for indices in sorted(
        tup for k in sizes for tup in itertools.combinations(range(len(F)), k)
    ):
        region = intersect_bodies([F.bodies[i] for i in indices])
        if region is not None:
            out.append((indices, region))
    return out


def brute_through_line(F, line, p, q, r):
    """Flag every q-tuple meeting on the line, then test every p-subset."""
    n = len(F)
    on_line = set()
    for tup in itertools.combinations(range(n), q):
        region = intersect_bodies([F.bodies[i] for i in tup])
        if region is not None and line_meets_body(line, region):
            on_line.add(tup)
    for subset in itertools.combinations(range(n), p):
        count = sum(1 for tup in itertools.combinations(subset, q) if tup in on_line)
        if count < r:
            return False
    return True


def families_1d():
    for seed in range(15):
        yield random_family(GeneratorSpec("random_intervals", n=7, seed=seed))


def families_2d():
    for seed in range(8):
        yield random_family(GeneratorSpec("random_polygons", n=5, seed=seed, span=5))


class TestWalk:
    def test_matches_brute_force(self):
        for F in list(families_1d()) + list(families_2d()):
            n = len(F)
            for sizes in (range(1, n + 1), range(2, 3), range(3, n + 1), range(n, n + 1)):
                assert list(intersecting_subfamilies(F, sizes)) == brute_subfamilies(F, sizes)

    def test_sizes_outside_the_family(self):
        F = Family.of([box(0, 0, 1, 1)] * 3)
        assert list(intersecting_subfamilies(F, range(4, 6))) == []
        assert list(intersecting_subfamilies(F, range(0, 1))) == []
        assert [idx for idx, _ in intersecting_subfamilies(F, range(0, 2))] == [(0,), (1,), (2,)]


class TestPairRegions:
    def test_matches_fresh_clips(self):
        for F in list(families_1d()) + list(families_2d()):
            assert list(F.pair_regions.items()) == list(brute_pair_regions(F).items())

    def test_cached_per_family_object(self):
        F = random_family(GeneratorSpec("random_polygons", n=5, seed=1, span=5))
        assert F.pair_regions is F.pair_regions
        # outside the fields: equality and hashing ignore the table, and a
        # new object holds none until asked
        G = Family(F.dimension, F.bodies)
        assert G == F and hash(G) == hash(F) and not hasattr(G, "_memo")

    def test_1d_sweep_paths_build_no_table(self, clip_calls):
        # the memo holds the endpoint ranks the sweeps share, and no pair
        for F in families_1d():
            f_vector(F)
            max_r(F, 5, 3)
            count_intersecting_qtuples(F, 3)
            degeneracy_level(F)
            min_piercing(F)
            assert F._memo.memo == {} and "all_pairs" not in vars(F._memo)
            assert "ranks" in vars(F._memo)
        assert clip_calls == []

    def test_1d_count_in_closed_form(self, monkeypatch):
        # 20 nested intervals: every 10-subset meets, C(20, 10) of them,
        # counted off the sweep with neither the 2D links memo nor the walk
        def walk(*args):
            raise AssertionError("a 1D count walked the subfamilies")

        monkeypatch.setattr(familymod, "_walk", walk)
        F = Family.of([Interval(i, 40 - i) for i in range(20)])
        misses = _intersecting_qtuples.cache_info().misses
        assert count_intersecting_qtuples(F, 10) == 184756
        assert f_vector(F)[9] == 184756
        assert _intersecting_qtuples.cache_info().misses == misses


class TestConsumersMatchBruteForce:
    def test_f_vector_and_counts(self):
        for F in list(families_1d()) + list(families_2d()):
            n = len(F)
            want = [len(brute_subfamilies(F, range(q, q + 1))) for q in range(1, n + 1)]
            assert list(f_vector(F)) == want
            for q in range(1, n + 1):
                assert count_intersecting_qtuples(F, q) == want[q - 1]

    def test_candidate_points(self):
        for F in list(families_1d()) + list(families_2d()):
            want = sorted({lexmax_body(region) for _, region in brute_subfamilies(F, range(1, 3))})
            assert candidate_points(F) == want

    def test_through_line(self):
        answers = set()
        for F in itertools.islice(families_2d(), 6):
            for line in LINES:
                for p, q, r in ((4, 2, 1), (4, 2, 3), (5, 2, 4), (5, 3, 1), (4, 3, 2)):
                    want = brute_through_line(F, line, p, q, r)
                    assert satisfies_pqr_through_line(F, line, p, q, r) == want
                    answers.add(want)
        assert answers == {True, False}


#: interval families whose endpoints tie: touching endpoints, point
#: intervals, duplicates, equal left endpoints and nesting
TIE_CORPUS = (
    ((0, 1), (1, 2), (2, 3), (3, 4)),
    ((2, 3), (1, 2), (0, 1)),
    ((1, 1), (1, 1), (0, 2), (2, 2), (0, 0)),
    ((0, 3), (0, 3), (0, 3), (1, 2), (1, 2)),
    ((0, 1), (0, 3), (0, 2), (0, 0), (0, 2)),
    ((0, 10), (1, 9), (2, 8), (3, 7), (5, 5), (4, 6)),
    ((3, 7), (0, 10), (5, 5), (2, 8), (1, 9)),
    ((0, 2), (2, 4), (2, 2), (1, 3), (2, 4), (4, 5), (0, 5)),
)


class TestIntervalSweep:
    """The closed-form 1D counts against the subfamily walk."""

    def families(self):
        yield from (intervals(*pairs) for pairs in TIE_CORPUS)
        yield from families_1d()

    def test_qtuples_and_f_vector(self):
        for F in self.families():
            n = len(F)
            walk = [frozenset(idx for idx, _ in intersecting_subfamilies(F, range(q, q + 1)))
                    for q in range(1, n + 1)]
            for q in range(1, n + 1):
                want = canonical_links(grouped(walk[q - 1], n, q))
                assert canonical_links(familymod._build_links(F._nerve.ranks, q)) == want
            assert f_vector(F) == tuple(len(tuples) for tuples in walk)

    def test_candidate_points(self):
        for F in self.families():
            want = sorted({lexmax_body(region) for _, region in intersecting_subfamilies(F, range(1, 3))})
            assert candidate_points(F) == want


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(-4, 4), st.integers(0, 3)), min_size=1, max_size=8))
def test_mirroring_intervals_keeps_counts_and_piercing(pairs):
    F = intervals(*((lo, lo + length) for lo, length in pairs))
    G = Family.of([Interval(-body.hi, -body.lo) for body in F.bodies])
    n = len(F)
    assert f_vector(G) == f_vector(F)
    for p, q in ((n, 1), (n, 2), (min(n, 4), min(n, 3))):
        if q <= p:
            assert max_r(G, p, q).max_r == max_r(F, p, q).max_r
    assert degeneracy_level(G)[0] == degeneracy_level(F)[0]
    assert len(min_piercing(G)) == len(min_piercing(F))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), dimension=st.sampled_from((1, 2)), n=st.integers(1, 10),
       data=st.data())
def test_permuting_bodies_keeps_f_vector_max_r_and_degeneracy(seed, dimension, n, data):
    kind = "random_intervals" if dimension == 1 else "random_polygons"
    F = random_family(GeneratorSpec(kind, n=n, seed=seed, span=5))
    order = data.draw(st.permutations(range(n)))
    G = Family(dimension, tuple(F.bodies[i] for i in order))
    assert f_vector(G) == f_vector(F)
    for q in (2, 3):
        for p in range(q, n + 1):
            assert max_r(G, p, q).max_r == max_r(F, p, q).max_r
    assert degeneracy_level(G)[0] == degeneracy_level(F)[0]


def test_certification_raises_under_optimize():
    script = (
        "from pqpierce.family import Family\n"
        "from pqpierce.geometry import Interval\n"
        "from pqpierce.piercing import _certified\n"
        "F = Family.of([Interval(0, 1), Interval(2, 3)])\n"
        "assert False, 'asserts are on'\n"
        "try:\n"
        "    _certified(F, [1])\n"
        "except AssertionError as exc:\n"
        "    print('raised:', exc)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "raised: piercing set misses body 1\n"
