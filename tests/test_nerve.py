"""The lazy nerve of a family (memoised pair and triple flags, Helly
cliques for larger subfamilies), checked against the region walk it
replaced and the tuple walk that the mask walk replaced, which stay as
oracles."""

import itertools
import pickle
import random
from math import comb

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from pqpierce.family import (
    Family,
    _build_links,
    _fewest_flagged,
    _intersecting_qtuples,
    count_intersecting_qtuples,
    degeneracy_level,
    f_vector,
    max_r,
    satisfies_pqr,
    satisfies_pqr_through_line,
)
from pqpierce.generators import GeneratorSpec, random_family
from pqpierce.geometry import ConvexPolygon, Line, line_meets_body, pt
from pqpierce.piercing import candidate_points, hd_pierce, min_piercing, ms_line

from conftest import (LINES, assert_memo_holds_q_up_to_3, assert_walks_match_tuple_walk, box,
                      brute_pair_regions, canonical_links, grouped, intersecting_subfamilies,
                      intervals, lattice_families, polygon_families, seeded_polygon_families,
                      tied_families, walked_qtuples)


def walked(F, q):
    return frozenset(indices for indices, _ in intersecting_subfamilies(F, range(q, q + 1)))


def walk_through_line(F, line, p, q, r):
    """The through-line check as the region walk made it: a q-tuple is
    flagged when its common region meets the line."""
    def on_line():
        return {indices for indices, region in intersecting_subfamilies(F, range(q, q + 1))
                if line_meets_body(line, region)}

    best, _ = _fewest_flagged(F, p, q, lambda: grouped(on_line(), len(F), q), r, "through-line")
    return best >= r


@settings(max_examples=80, deadline=None)
@given(polygon_families())
def test_qtuples_counts_and_f_vector_match_the_walk(F):
    n = len(F)
    want = [walked(F, q) for q in range(1, n + 1)]
    for q in range(1, n + 1):
        assert walked_qtuples(F, q) == want[q - 1]
        links = canonical_links(_build_links(F._nerve, q))
        assert links == canonical_links(grouped(want[q - 1], n, q))
        assert count_intersecting_qtuples(F, q) == len(want[q - 1])
    assert f_vector(F) == tuple(len(tuples) for tuples in want)


class TupleNerve:
    """A nerve with only the walk's interface, ``n``, ``root`` and
    ``extend``, answered from a set of index tuples closed under subsets:
    no geometry behind it, and no pair masks."""

    def __init__(self, n, tuples):
        self.n, self.tuples = n, tuples
        self.root = sum(1 << j for j in range(n) if (j,) in tuples)

    def extend(self, chosen, within, stop):
        return sum(1 << k for k in range(chosen[-1] + 1, stop) if chosen + (k,) in self.tuples)


@st.composite
def subset_closed_tuples(draw):
    """(n, tuples): n <= 7 and the sorted index tuples of every nonempty
    subset of a few drawn sets."""
    n = draw(st.integers(1, 7))
    tops = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1), max_size=6))
    return n, {sub for top in tops for size in range(1, len(top) + 1)
               for sub in itertools.combinations(sorted(top), size)}


@settings(max_examples=200, deadline=None)
@given(subset_closed_tuples())
def test_links_on_a_nerve_no_geometry_makes(drawn):
    """The links of every q come off the walk alone: a nerve that answers
    only ``n``, ``root`` and ``extend`` gives the regrouped tuples."""
    n, tuples = drawn
    nerve = TupleNerve(n, tuples)
    for q in range(1, n + 1):
        want = {tup for tup in tuples if len(tup) == q}
        assert canonical_links(_build_links(nerve, q)) == canonical_links(grouped(want, n, q))


@settings(max_examples=60, deadline=None)
@given(polygon_families())
def test_mask_walk_asks_what_the_tuple_walk_asked(F):
    """The same tuples, counts and links, from a subset of the tuple
    walk's questions: a prefix's ext reads its parent's."""
    assert_walks_match_tuple_walk(F)


class TestEveryLatticeFamily:
    def test_up_to_four_members(self):
        # 15 + 120 + 680 + 3,060 families: both walk widths on every
        # family of the 2 by 2 lattice hulls, not on a sample;
        # tests/exhaustive.py walks runs six members in CI
        for n in range(1, 5):
            count = 0
            for F in lattice_families(n):
                assert_walks_match_tuple_walk(F)
                count += 1
            assert count == comb(n + 14, n)


def test_wide_walk_makes_no_child_that_nothing_extends():
    # six nested boxes: every subfamily meets, so the wide walk makes the
    # 2^5 - 1 nonempty prefixes of members 0..4, each with 5 in its ext,
    # and none of the 2^5 tuples ending in 5, whose ext is empty
    F = Family.of([box(-i, -i, i + 1, i + 1) for i in range(6)])
    nerve, made = F._nerve, []
    extend = nerve.extend
    nerve.extend = lambda chosen, within, stop: made.append(chosen) or extend(chosen, within, stop)
    assert f_vector(F) == tuple(comb(6, size) for size in range(1, 7))
    assert len(made) == 31 and all(5 not in chosen for chosen in made)


@pytest.mark.parametrize("F", [
    intervals((0, 2), (1, 3), (2, 4), (0, 4), (3, 5)),
    Family.of([box(0, 0, 2, 2), box(1, 1, 3, 3), box(2, 0, 4, 2), box(0, 1, 4, 2), box(3, 3, 5, 5)]),
], ids=["1d", "2d"])
def test_equal_families_do_not_share_links(F):
    G = Family(F.dimension, F.bodies)
    assert G == F and hash(G) == hash(F)
    _intersecting_qtuples.cache_clear()
    assert max_r(G, 4, 2) == max_r(F, 4, 2)
    assert _intersecting_qtuples.cache_info().misses == 2  # one build per nerve


def test_links_past_q_3_are_not_kept():
    # 14 nested boxes: every q-tuple meets, so past q = 3 the links hold a
    # mask per q-tuple; the search builds those per call and keeps none
    F = Family.of([box(-i, -i, i, i) for i in range(1, 15)])
    _intersecting_qtuples.cache_clear()
    for q in range(1, 15):
        assert max_r(F, 14, q).max_r == comb(14, q)
    assert_memo_holds_q_up_to_3(F._nerve)


def brute_pair_masks(F):
    """Bit j of entry i set when bodies i != j meet, each pair clipped
    afresh: the oracle for the nerve's ``adj``."""
    masks = [0] * len(F)
    for i, j in brute_pair_regions(F):
        masks[i] |= 1 << j
        masks[j] |= 1 << i
    return masks


@settings(max_examples=80, deadline=None)
@given(polygon_families())
def test_pair_masks_match_brute_force(F):
    assert F._nerve.adj == brute_pair_masks(F)


def test_pair_masks_on_seeded_families():
    for F in seeded_polygon_families():
        assert F._nerve.adj == brute_pair_masks(F)


@settings(max_examples=60, deadline=None)
@given(tied_families(max_size=7))
def test_intervals_and_their_thin_boxes_share_pair_masks(F):
    """Intervals lifted to boxes of height 1 meet as the intervals do: the
    2D nerve's pair masks and q = 2 links are the ranks'."""
    G = Family.of([box(body.lo, 0, body.hi, 1) for body in F.bodies])
    assert G._nerve.adj == F._nerve.ranks.adj
    assert _build_links(G._nerve, 2) == _build_links(F._nerve.ranks, 2)


@settings(max_examples=60, deadline=None)
@given(tied_families(max_size=7))
def test_intervals_and_their_lifted_segments_agree(F):
    """An interval family and the same intervals as segments on y = 0 (a
    point interval as a one-vertex polygon) have one nerve, answered by
    the pair masks in 1D and by the triple flags in 2D through the one
    walk: links, counts, f-vector and every max_r agree."""
    n = len(F)
    G = Family.of([ConvexPolygon.from_points([pt(body.lo, 0), pt(body.hi, 0)]) for body in F.bodies])
    assert [len(body.vertices) for body in G.bodies] == [1 + (body.lo < body.hi) for body in F.bodies]
    assert f_vector(G) == f_vector(F)
    for q in range(1, n + 1):
        assert canonical_links(_build_links(G._nerve, q)) == canonical_links(_build_links(F._nerve.ranks, q))
        assert count_intersecting_qtuples(G, q) == count_intersecting_qtuples(F, q)
        for p in range(q, n + 1):
            assert max_r(G, p, q) == max_r(F, p, q)


@settings(max_examples=40, deadline=None)
@given(polygon_families(max_size=6), LINES, st.data())
def test_through_line_matches_the_region_walk(F, line, data):
    n = len(F)
    p = data.draw(st.integers(1, n))
    q = data.draw(st.integers(1, p))
    for r in (1, 2, 3):
        assert satisfies_pqr_through_line(F, line, p, q, r) == walk_through_line(F, line, p, q, r)


def test_through_line_on_seeded_families():
    answers = set()
    for seed in range(12):
        F = random_family(GeneratorSpec("random_polygons", n=6, seed=seed, span=4))
        for line in (Line(0, 1, 0), Line(1, 1, 4), Line(1, -2, 1), Line(1, 0, 2)):
            for p, q, r in ((4, 2, 1), (4, 2, 3), (5, 3, 1), (5, 3, 2), (6, 4, 1), (3, 1, 3)):
                want = walk_through_line(F, line, p, q, r)
                assert satisfies_pqr_through_line(F, line, p, q, r) == want
                answers.add(want)
    assert answers == {True, False}


def test_memo_leaves_equality_hashing_and_vars():
    F = random_family(GeneratorSpec("random_polygons", n=6, seed=3, span=4))
    G = Family(F.dimension, F.bodies)
    before = dict(vars(F))
    assert before == {"dimension": 2, "bodies": F.bodies}
    max_r(F, 5, 3)
    f_vector(F)
    degeneracy_level(F)
    candidate_points(F)
    assert vars(F) == before
    assert F == G and hash(F) == hash(G) and vars(G) == before
    copy = pickle.loads(pickle.dumps(F))
    assert copy == F and vars(copy) == before
    assert f_vector(copy) == f_vector(F)


def disjoint_boxes(n):
    return Family.of([box(3 * i, 0, 3 * i + 1, 1) for i in range(n)])


def test_one_q_query_asks_only_for_the_flags_it_needs(clip_calls):
    # the only 6-tuple starts with the pair (0, 1), which is disjoint
    assert not satisfies_pqr(disjoint_boxes(6), 6, 6, 1)
    assert clip_calls == [2]


def test_disjoint_branch_stops_at_the_first_disjoint_pair(clip_calls):
    # (0, 1) is disjoint; the guarantee check asks (0, c) for each other
    # body c, which misses A and so is never asked against B, and the
    # separating line clips (0, 1) once more
    witness = ms_line(disjoint_boxes(8))
    assert (witness.A_index, witness.B_index, witness.x0) == (0, 1, None)
    assert clip_calls == [2] * 8


def test_pairs_and_triples_are_clipped_once(clip_calls):
    F = random_family(GeneratorSpec("random_polygons", n=6, seed=1, span=3))
    for _ in range(2):
        max_r(F, 5, 3)
        count_intersecting_qtuples(F, 4)
        f_vector(F)
        degeneracy_level(F)
        assert len(clip_calls) <= 15 + 20 and set(clip_calls) == {2}
    clipped = len(clip_calls)
    f_vector(Family(F.dimension, F.bodies))  # a new object builds its own nerve
    assert len(clip_calls) > clipped


def dense(seed):
    return random_family(GeneratorSpec("random_polygons", n=7, seed=seed, span=4))


def sparse(seed):
    return random_family(GeneratorSpec("random_polygons", n=7, seed=seed))


def meeting(seed):
    """Seven boxes around the origin: every pair meets."""
    rng = random.Random(seed)
    return Family.of([box(-rng.randint(1, 3), -rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3))
                      for _ in range(7)])


def hd_family(seed):
    """Six boxes through the origin and two far boxes: hd_pierce(7, 5)
    pierces them with 3 points."""
    rng = random.Random(seed)
    return Family.of(list(meeting(seed).bodies[:6])
                     + [box(10, 10, 10 + rng.randint(1, 3), 10 + rng.randint(1, 3)),
                        box(-20, 5, -20 + rng.randint(1, 3), 5 + rng.randint(1, 3))])


#: query -> (family maker, query, its clips on the families of seeds 0-5)
CLIP_PINS = {
    "max_r": (dense, lambda F: max_r(F, 5, 3), [37, 43, 28, 41, 33, 51]),
    "count": (dense, lambda F: count_intersecting_qtuples(F, 4), [34, 43, 27, 39, 30, 51]),
    "f_vector": (dense, f_vector, [37, 43, 29, 41, 33, 51]),
    "degeneracy": (dense, degeneracy_level, [21] * 6),
    "min_piercing": (dense, min_piercing, [21] * 6),
    "ms_line_sparse": (sparse, ms_line, [10, 8, 7, 8, 9, 9]),
    "ms_line_meeting": (meeting, ms_line, [21] * 6),
    "satisfies_pqr": (dense, lambda F: satisfies_pqr(F, len(F), len(F) - 1, 1), [14, 5, 5, 37, 10, 48]),
    "hd_pierce": (hd_family, lambda F: hd_pierce(F, 7, 5), [51] * 6),
}


@pytest.mark.parametrize("name", CLIP_PINS)
def test_clips_per_query_are_pinned(name, clip_calls):
    """Each query alone on fresh families clips exactly as often as it
    did when these counts were recorded: a change to the nerve or the
    solvers may not ask for more geometry, nor silently for less."""
    make, query, want = CLIP_PINS[name]
    counts = []
    for seed in range(len(want)):
        F = make(seed)
        clip_calls.clear()
        query(F)
        counts.append(len(clip_calls))
    assert counts == want
