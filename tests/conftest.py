"""Shared builders for the test suite."""

import itertools
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import strategies as st

from pqpierce import bounds
from pqpierce import family as familymod
from pqpierce import geometry
from pqpierce import piercing as piercingmod
from pqpierce.bounds import dim1_threshold
from pqpierce.errors import BudgetExceededError
from pqpierce.family import Family
from pqpierce.generators import GeneratorSpec, random_family
from pqpierce.geometry import (
    ConvexPolygon,
    Interval,
    Line,
    Point,
    body_contains_point,
    intersect_bodies,
    lexmax_body,
    pt,
)
from pqpierce.piercing import DEFAULT_NODE_BUDGET, PiercingSet, _certified, candidate_points


def dot(u: Point, v: Point) -> Fraction:
    return u.x * v.x + u.y * v.y


def sqdist(u: Point, v: Point) -> Fraction:
    d = u - v
    return d.x * d.x + d.y * d.y


def fraction_hull(points) -> tuple:
    """Convex hull in Fraction arithmetic: counter-clockwise from the
    lexmin, collinear and repeated points dropped.  The oracle for the
    integer chain behind ``convex_hull`` and ``ConvexPolygon.from_points``."""
    pts = sorted(set(points))

    def chain(order):
        kept = []
        for p in order:
            while len(kept) >= 2 and (
                    (kept[-1].x - kept[-2].x) * (p.y - kept[-2].y)
                    - (kept[-1].y - kept[-2].y) * (p.x - kept[-2].x)) <= 0:
                kept.pop()
            kept.append(p)
        return kept[:-1]

    if len(pts) <= 1:
        return tuple(pts)
    return tuple(chain(pts) + chain(pts[::-1]))


def fraction_document_to_family(doc: dict) -> Family:
    """A well-formed 2D document read the way the CLI read it before it
    parsed to ints: every coordinate through ``Fraction(str(value))``,
    every body the Fraction hull of its points."""
    return Family(2, tuple(
        ConvexPolygon(fraction_hull(Point(Fraction(str(x)), Fraction(str(y)))
                                    for x, y in raw["vertices"]))
        for raw in doc["bodies"]))


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


def fraction_bisector(A: ConvexPolygon, B: ConvexPolygon) -> Line:
    """The perpendicular bisector of the closest pair of disjoint A and B,
    in Fraction arithmetic: the oracle for ``geometry.separating_line``."""
    pa, pb = _closest_pair(A, B)
    n = pb - pa
    mid = (pa + pb).scaled(Fraction(1, 2))
    return Line(n.x, n.y, dot(n, mid))


def line_through(p: Point, d: Point) -> Line:
    """The line through p along the nonzero direction d."""
    return Line(d.y, -d.x, d.y * p.x - d.x * p.y)


def clip(body: ConvexPolygon, a, b, c) -> Optional[ConvexPolygon]:
    """The part of the polygon in {a*x + b*y <= c}, or None when empty:
    ``geometry._clip_halfplane`` on its vertex triples and the plane's
    primitive triple, the result checked canonical as a polygon."""
    verts = geometry._clip_halfplane(body._hom, *geometry._integer_plane(a, b, c))
    if verts is None:
        return None
    region = ConvexPolygon._from_hom(verts)
    region.__post_init__()
    return region


def _fraction_witness_polygon(body: ConvexPolygon, x0: Point) -> ConvexPolygon:
    """Closure of the part of the body at or lexicographically beyond x0:
    clip to x >= x0.x, and when that leaves only the vertical boundary
    line, refine to y >= x0.y on it."""
    if not body.contains(x0):
        raise AssertionError("x0 not in body while building witness polygon")
    clipped = clip(body, Fraction(-1), Fraction(0), -x0.x)
    if clipped is not None and all(v.x == x0.x for v in clipped.vertices):
        clipped = clip(clipped, Fraction(0), Fraction(-1), -x0.y)
    if clipped is None:
        raise AssertionError("clip emptied a polygon that must stay nonempty")
    return clipped


def fraction_ms_line(F: Family) -> piercingmod.LineLemmaWitness:
    """``piercing.ms_line`` as it was with its all-pairs-meet branch on
    Points: x0 the least `Point` lexmax of a pair region, the witness
    parts clipped as polygons, each line made from x0 and a `Point`
    direction and each vertex's side a Fraction; the oracle for the
    integer branch."""
    for i, j in itertools.combinations(range(len(F)), 2):
        if F.pair_region(i, j) is None:
            line = geometry.separating_line(F.bodies[i], F.bodies[j])
            if not piercingmod._line_guarantee_holds(F, i, j, line):
                raise AssertionError("separating line failed the guarantee predicate")
            return piercingmod.LineLemmaWitness(A_index=i, B_index=j, line=line, x0=None)

    x0, (ai, bi) = min((lexmax_body(region), ij) for ij, region in F.pair_regions.items())
    wa = _fraction_witness_polygon(F.bodies[ai], x0)
    wb = _fraction_witness_polygon(F.bodies[bi], x0)

    directions = {Point(Fraction(0), Fraction(1))}
    for poly in (wa, wb):
        verts = poly.vertices
        directions.update(w - u for u, w in zip(verts, verts[1:] + verts[:1]) if u != w)

    # each line once, first met in the order of its directions
    for line in dict.fromkeys(line_through(x0, dvec) for dvec in sorted(directions)):
        sa = [line.side(v) for v in wa.vertices]
        sb = [line.side(v) for v in wb.vertices]
        separates = (min(sa) >= 0 and max(sb) <= 0) or (max(sa) <= 0 and min(sb) >= 0)
        if separates and piercingmod._line_guarantee_holds(F, ai, bi, line):
            return piercingmod.LineLemmaWitness(A_index=ai, B_index=bi, line=line, x0=x0)
    raise AssertionError("no witness line found; construction bug")


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


def intersecting_subfamilies(F: Family, sizes: range):
    """Yield (indices, region) for every intersecting subfamily of F whose
    size lies in ``sizes`` (a step-1 range), in lexicographic order of the
    index tuples; region is the common intersection of those members.

    Depth-first with an explicit stack.  A prefix is not extended once its
    running intersection is empty (extensions stay empty), once it reaches
    the largest size, or past the last index from which ``sizes.start``
    can still be reached.  Pairs are read from :attr:`Family.pair_regions`.
    The oracle for the nerve, which finds the same subfamilies from pair
    and triple flags.
    """
    bodies = F.bodies
    n = len(bodies)
    lo, hi = sizes.start, sizes.stop - 1
    stack = [((i,), bodies[i]) for i in range(n - max(lo, 1), -1, -1)] if hi >= 1 else []
    while stack:
        chosen, region = stack.pop()
        k = len(chosen)
        if k >= lo:
            yield chosen, region
        if k < hi:
            # children are pushed last index first, so the smallest pops next
            for i in range(n - 1 - max(lo - k - 1, 0), chosen[-1], -1):
                sub = (F.pair_regions.get((chosen[0], i)) if k == 1
                       else intersect_bodies([region, bodies[i]]))
                if sub is not None:
                    stack.append((chosen + (i,), sub))


def lattice_hulls(width: int, height: int) -> list[ConvexPolygon]:
    """The distinct hulls of the nonempty sets of points of a width by
    height integer grid, in the order first met: points, segments and
    polygons that touch, share edges and nest (48 for 2 by 3, 213 for
    3 by 3)."""
    grid = [pt(x, y) for x in range(width) for y in range(height)]
    hulls = {}
    for size in range(1, len(grid) + 1):
        for points in itertools.combinations(grid, size):
            body = ConvexPolygon.from_points(points)
            hulls.setdefault(body, body)
    return list(hulls)


def check_triple_flags(hulls) -> tuple[int, int]:
    """Check ``geometry._pair_region_meets`` and the nerve's triple flags
    against the clip chain on the hulls: for every pair a <= b whose
    region R meets and every c, R meets hull c as
    ``intersect_bodies([A, B, C])`` says whenever C meets A and B, and for
    a < b < c the flag ``fits`` gives, premises included, is that answer.
    Returns the pairwise-meeting triples (a, b, c), a <= b, and how many
    of them miss."""
    n = len(hulls)
    nerve = Family.of(hulls)._nerve
    meets = [[intersect_bodies([A, B]) is not None for B in hulls] for A in hulls]
    checked = missed = 0
    for a, b in itertools.combinations_with_replacement(range(n), 2):
        region = intersect_bodies([hulls[a], hulls[b]])
        if region is None:
            continue
        for c in range(n):
            pairwise = meets[a][c] and meets[b][c]
            want = pairwise and intersect_bodies([hulls[a], hulls[b], hulls[c]]) is not None
            if pairwise:
                assert geometry._pair_region_meets(region, hulls[c]) == want, (a, b, c)
                checked += 1
                missed += not want
            if a < b < c:
                assert nerve.fits((a, b), c) == want, (a, b, c)
                nerve.memo.pop((a, b, c), None)  # the memo keeps pairs only
    return checked, missed


def exhaustive_candidate_points(F: Family) -> list:
    """Lexmax of the intersection of every intersecting subfamily; the
    unreduced candidate set used to validate the pair reduction."""
    walk = intersecting_subfamilies(F, range(1, len(F) + 1))
    return sorted({lexmax_body(region) for _, region in walk})


def point_candidate_points(F: Family) -> list:
    """The candidate points as Points, deduplicated and sorted as Points:
    the oracle for ``candidate_points``, which finds them on integer
    triples."""
    return sorted({lexmax_body(region) for region in (*F.bodies, *F.pair_regions.values())})


def point_degeneracy_2d(F: Family):
    """The 2D degeneracy scan on Points, stopping at the largest pair
    degree: the oracle for ``degeneracy_level``, which scans integer
    triples."""
    bound = 1 + max(Counter(itertools.chain.from_iterable(F.pair_regions)).values(), default=0)
    best_count, best_point = -1, None
    for point in point_candidate_points(F):
        count = sum(1 for body in F.bodies if body_contains_point(body, point))
        if count > best_count:
            best_count, best_point = count, point
            if count == bound:
                break
    return len(F) - best_count, best_point


def seeded_polygon_families():
    """Seeded random polygon families, dense and sparse, on grids of
    halves and thirds: their pair regions have rational vertices over
    many denominators."""
    for seed in range(24):
        yield random_family(GeneratorSpec("random_polygons", n=4 + seed % 6, seed=seed,
                                          span=2 + seed % 5, grid=1 + seed % 3))


def _pairwise_disjoint_lower_bound(
    uncovered: list[int], disjoint: list[list[bool]]
) -> int:
    """Greedy pairwise-disjoint packing: each chosen body needs its own
    piercing point, so the packing size lower-bounds the cover size."""
    packed: list[int] = []
    for i in uncovered:
        if all(disjoint[i][j] for j in packed):
            packed.append(i)
    return len(packed)


def frozenset_branch_and_bound(
    F: Family,
    candidates: Optional[list] = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> PiercingSet:
    """Exact minimum piercing via branch-and-bound set cover over a
    sufficient candidate-point set (works in 1D and 2D).

    The solver as it was before it moved to bitmasks, kept verbatim as
    the oracle for ``piercing.branch_and_bound_piercing``: both must give
    the same points and visit the same nodes.  It is also the solver the
    1D sweep and the restricted candidates are checked against, since it
    takes intervals and any candidate list."""
    n = len(F)
    if candidates is None:
        candidates = candidate_points(F)
    covers = []
    for point in candidates:
        mask = frozenset(
            i for i, body in enumerate(F.bodies) if body_contains_point(body, point)
        )
        if mask:
            covers.append((point, mask))
    # drop candidates whose coverage is dominated by an earlier one
    covers.sort(key=lambda pm: (-len(pm[1]), pm[0]))
    kept: list[tuple] = []
    for point, mask in covers:
        if not any(mask <= other for _, other in kept):
            kept.append((point, mask))
    covers = kept
    if not all(any(i in mask for _, mask in covers) for i in range(n)):
        raise AssertionError("candidate points fail to cover some body")

    disjoint = [[i != j for j in range(n)] for i in range(n)]
    for i, j in F.pair_regions:
        disjoint[i][j] = disjoint[j][i] = False
    point_choices: dict[int, list[int]] = {
        i: [ci for ci, (_, mask) in enumerate(covers) if i in mask] for i in range(n)
    }

    # greedy cover for an initial upper bound
    greedy: list[int] = []
    uncovered = set(range(n))
    while uncovered:
        ci = max(
            range(len(covers)),
            key=lambda ci: (len(covers[ci][1] & uncovered), -ci),
        )
        greedy.append(ci)
        uncovered -= covers[ci][1]
    best: list[int] = greedy
    nodes = 0

    def search(chosen: list[int], uncovered: frozenset[int]) -> None:
        nonlocal best, nodes
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError(
                f"piercing search exceeded {node_budget} nodes on {n} bodies"
            )
        if not uncovered:
            if len(chosen) < len(best):
                best = list(chosen)
            return
        lb = _pairwise_disjoint_lower_bound(sorted(uncovered), disjoint)
        if len(chosen) + max(lb, 1) >= len(best):
            return
        pivot = min(uncovered, key=lambda i: (len(point_choices[i]), i))
        for ci in point_choices[pivot]:
            search(chosen + [ci], uncovered - covers[ci][1])

    search([], frozenset(range(n)))
    return _certified(F, [covers[ci][0] for ci in best])


def refiltering_sweep(F: Family) -> PiercingSet:
    """Exact minimum piercing of intervals: repeatedly stab the smallest
    right endpoint among surviving intervals.

    The 1D sweep as it was before it became one pass, kept verbatim as
    the oracle for ``piercing.sweep_piercing_1d``: both must give the
    same points."""
    remaining = sorted(F.bodies, key=lambda b: (b.hi, b.lo))
    points: list[Fraction] = []
    while remaining:
        stab = remaining[0].hi
        points.append(stab)
        remaining = [b for b in remaining if not b.contains(stab)]
    return _certified(F, points)


def fraction_interval_sweep(bodies):
    """Yield (i, earlier) for every interval of a sequence in (lo, index)
    order, where ``earlier`` lists the intervals before i in that order
    whose ``hi`` reaches ``lo_i``.  None entries are skipped, and the
    others keep their indices in the sequence.

    The sweep as it was on ``Fraction`` endpoints, before it ran on ranks,
    kept verbatim as the oracle for ``family._interval_sweep``."""
    active: list[int] = []
    for i in sorted((j for j, body in enumerate(bodies) if body is not None),
                    key=lambda j: (bodies[j].lo, j)):
        lo = bodies[i].lo
        # left endpoints only grow, so an interval ending before lo_i
        # reaches no later one either
        active = [j for j in active if bodies[j].hi >= lo]
        yield i, active
        active = active + [i]


def swept_qtuples(ranks, q: int) -> frozenset[tuple[int, ...]]:
    """Index tuples of the q-subsets of the ranked intervals that meet:
    every interval with each (q-1)-subset of its ``earlier`` list.  The
    tuple set the 1D search regrouped before it read its links off the
    pair masks, kept as the oracle for ``family._build_links`` on ranks."""
    return frozenset(tuple(sorted(others + (i,)))
                     for i, earlier in familymod._interval_sweep(ranks)
                     for others in itertools.combinations(earlier, q - 1))


def tuple_walk(F: Family, lo: int, hi: int):
    """Yield, in lexicographic order, the index tuples of the
    intersecting subfamilies of F with lo <= size <= hi, for 1 <= lo <= n.
    A prefix is extended only by the indices k from which size lo can
    still be reached and that it fits, so a query asks only for the
    flags it needs.

    The nerve's walk as it was before it moved to index masks, kept
    verbatim as the oracle for ``family._walk``: it asks the nerve's
    ``fits`` the same questions."""
    nerve = F._nerve
    n = len(F)
    stack = [()]
    while stack:
        chosen = stack.pop()
        if len(chosen) >= lo:
            yield chosen
        if len(chosen) < hi:
            after = chosen[-1] + 1 if chosen else 0
            stop = n - max(lo - len(chosen) - 1, 0)
            # children last index first, so the smallest pops next
            stack.extend(chosen + (k,) for k in range(stop - 1, after - 1, -1)
                         if nerve.fits(chosen, k))


def walked_qtuples(F: Family, q: int) -> frozenset[tuple[int, ...]]:
    """The index tuples of F's intersecting q-subsets, from the tuple
    walk: the set the 2D search regrouped before it read links off the
    mask walk."""
    return frozenset(tuple_walk(F, q, q))


def mask_walk_tuples(nerve, lo: int, hi: int) -> list[tuple[int, ...]]:
    """Every chosen + (k,), k in ext, of the nodes ``family._walk`` yields:
    the intersecting subfamilies of size lo..hi, each once."""
    return [chosen + (k,) for chosen, _, ext in familymod._walk(nerve, lo, hi)
            for k in range(nerve.n) if ext >> k & 1]


def asked(query, F: Family) -> set:
    """The pair and triple questions a query asks of a fresh copy of F."""
    G = Family(F.dimension, F.bodies)
    query(G)
    return set(G._nerve.memo)


def assert_walks_match_tuple_walk(F: Family) -> None:
    """The mask walk against the tuple walk kept as its oracle, in both
    widths: the wide walk of ``f_vector`` (sizes 1..n) and, for each q,
    the narrow walk (size q alone, so a prefix's ext is cut below n) of
    ``count_intersecting_qtuples`` and ``_build_links``.  Each gives the
    oracle's tuples, counts and links, and asks a subset of its
    questions: the mask walk reads what a prefix's parent fits, so it may
    ask fewer, never another."""
    n = len(F)
    every = list(tuple_walk(F, 1, n))
    assert sorted(mask_walk_tuples(F._nerve, 1, n)) == sorted(every)
    assert familymod.f_vector(F) == tuple(sum(len(tup) == size for tup in every)
                                          for size in range(1, n + 1))
    assert asked(familymod.f_vector, F) <= asked(lambda G: list(tuple_walk(G, 1, n)), F)
    for q in range(1, n + 1):
        tuples = walked_qtuples(F, q)
        assert sorted(mask_walk_tuples(F._nerve, q, q)) == sorted(tuples)
        assert familymod.count_intersecting_qtuples(F, q) == len(tuples)
        links = canonical_links(familymod._build_links(F._nerve, q))
        assert links == canonical_links(grouped(tuples, n, q))
        oracle = asked(lambda G: list(tuple_walk(G, q, q)), F)
        assert asked(lambda G: familymod.count_intersecting_qtuples(G, q), F) <= oracle
        assert asked(lambda G: familymod._build_links(G._nerve, q), F) <= oracle


def lattice_families(n: int):
    """Every family of n members drawn, repeats allowed, from the 15
    lattice hulls of a 2 by 2 grid (4 points, 6 segments, 4 triangles and
    the square): C(n + 14, n) multisets, 3,060 for n = 4."""
    hulls = lattice_hulls(2, 2)
    for members in itertools.combinations_with_replacement(hulls, n):
        yield Family.of(members)


#: the claims that hold for every p, which the lattice checks assert;
#: remark_threshold and thm2_threshold carry the unknown-p0 caveat, so
#: their rows are reported and never asserted
ASSERTED_2D_CLAIMS = ("ms", "lemma_r0", "hd", "thm3")


@dataclass
class ClaimRow:
    """One claimed 2D bound at one (p, q) and parameter, over the families
    checked: the most points a family that reaches the threshold needs,
    whether one exactly one r below it needs more, and the families that
    reach it and need more (a break of the claim)."""

    threshold: int
    bound: int
    worst: int = 0
    below: bool = False
    broken: list = field(default_factory=list)

    @property
    def tight(self) -> bool:
        """The worst family at the threshold needs exactly the claimed
        points, and one r below it needs more: a threshold one too high
        would leave a row loose, and one too low would break it."""
        return self.worst == self.bound and self.below


def claims_2d(p: int, q: int):
    """(name, parameter, BoundResult) of every claimed 2D bound at (p, q):
    ms_threshold, lemma_r0_threshold for each f, hd_exact_region (the
    (p, q) property, r >= 1), thm3_threshold for each k,
    remark_threshold for each f and thm2_threshold at two epsilons."""
    yield "ms", None, bounds.ms_threshold(p, q, 2)
    for f in range(1, p // 2):
        yield "lemma_r0", f, bounds.lemma_r0_threshold(p, q, 2, f)
    if (claimed := bounds.hd_exact_region(p, q, 2)) is not None:
        yield "hd", None, bounds.BoundResult(1, claimed)
    for k in range(p - q):
        yield "thm3", k, bounds.thm3_threshold(p, q, 2, k)
    for f in range(1, p):
        yield "remark", f, bounds.remark_threshold(p, q, 2, f)
    for epsilon in (Fraction(1, 10), Fraction(1, 2)):
        yield "thm2", epsilon, bounds.thm2_threshold(p, q, 2, epsilon)


def check_2d_claims(F: Family, rows: dict) -> None:
    """Check every claimed 2D bound on the polygon family F with p = |F|.
    Asserted: Kalai's bound on the f-vector at each s where no
    (s + 3)-tuple meets, and for each q from 3 to p, where r = max_r(F, p,
    q) >= 1, the (p, q') property at q' = implied_q(p, q, r, 2).  Each
    claim of :func:`claims_2d` goes into ``rows[name, p, q, parameter]``
    as a :class:`ClaimRow`; thm3_threshold only on non-(p-q)-degenerate
    families."""
    p = len(F)
    pierced = len(piercingmod.min_piercing(F))
    fvec = familymod.f_vector(F)
    for s in range(p - 2):
        if fvec[2 + s] == 0:
            for q in range(1, p + 1):
                assert fvec[q - 1] <= bounds.kalai_bound(p, q, s, 2), (F, q, s)
    level = familymod.degeneracy_level(F)[0]
    for q in range(3, p + 1):
        r = familymod.max_r(F, p, q).max_r
        if r:
            implied = bounds.implied_q(p, q, r, 2)
            assert familymod.max_r(F, p, implied).max_r >= 1, (F, q, r, implied)
        for name, parameter, claim in claims_2d(p, q):
            if name == "thm3" and level <= p - q:
                continue
            row = rows.setdefault((name, p, q, parameter), ClaimRow(claim.threshold_r, claim.pierce_bound))
            if r >= row.threshold:
                row.worst = max(row.worst, pierced)
                if pierced > row.bound:
                    row.broken.append(F)
            elif r == row.threshold - 1 and pierced > row.bound:
                row.below = True


def grouped(tuples, n: int, q: int) -> tuple[list[int], list[dict]]:
    """Sorted index q-tuples of an n-member family as links: ``root[j]``
    is 1 when (j,) is one of them (q = 1), and ``later[j]`` maps j' > j to
    the link of the tuples whose last two members are j and j': the mask of
    their first members (q = 2 and 3), or the list of the masks of their
    first q - 2 members (q >= 4).  The regrouping of tuple sets the search
    read before the links came off the mask walk, kept as the oracle for
    ``family._build_links``."""
    root = [0] * n
    later: list[dict] = [{} for _ in range(n)]
    if q == 1:
        for (j,) in tuples:
            root[j] = 1
    elif q <= 3:
        for tup in tuples:
            later[tup[-2]][tup[-1]] = later[tup[-2]].get(tup[-1], 0) | 1 << tup[0]
    else:
        for *rest, j, last in tuples:
            later[j].setdefault(last, []).append(sum(1 << i for i in rest))
    return root, later


def canonical_links(links):
    """``(root, later)`` with each q >= 4 list of link masks sorted, so
    that two link tables compare equal exactly when they hold the same
    tuples."""
    root, later = links
    return root, [{j: sorted(link) if isinstance(link, list) else link for j, link in row.items()}
                  for row in later]


def scan_fewest(flags, n, p, q, floor):
    """Oracle for the pruned p-subset search: every p-subset in
    lexicographic order, each counted in full, stopping at the first count
    below floor; (fewest count, first subset attaining it)."""
    best, witness = None, ()
    for subset in itertools.combinations(range(n), p):
        count = sum(1 for tup in itertools.combinations(subset, q) if tup in flags)
        if best is None or count < best:
            best, witness = count, subset
            if best < floor:
                break
    return best, witness


def matched_families(n: int):
    """Every family of n intervals, up to relabelling: one per perfect
    matching of the 2n endpoint positions 0..2n-1, (2n-1)!! in all.
    Every 1D answer depends only on the intersection graph, and every
    interval graph has a representation with distinct endpoints."""
    def matchings(free):
        if not free:
            yield ()
            return
        for i in range(1, len(free)):
            for rest in matchings(free[1:i] + free[i + 1:]):
                yield ((free[0], free[i]),) + rest

    for pairs in matchings(tuple(range(2 * n))):
        yield intervals(*pairs)


def assert_1d_search_matches_scan(F: Family) -> None:
    """On an interval family: the links of every q are the regrouped
    meeting q-tuples, found by brute force on the endpoints, and for every
    1 <= q <= p <= n, max_r and the search satisfies_pqr runs (floor r,
    with the piercing bound) give the full scan's count and witness."""
    n = len(F)
    ends = [(body.lo, body.hi) for body in F.bodies]
    ranks = F._nerve.ranks
    for q in range(1, n + 1):
        flags = frozenset(tup for tup in itertools.combinations(range(n), q)
                          if max(ends[i][0] for i in tup) <= min(ends[i][1] for i in tup))
        links = familymod._build_links(ranks, q)
        assert canonical_links(links) == canonical_links(grouped(flags, n, q))
        for p in range(q, n + 1):
            want = scan_fewest(flags, n, p, q, 1)
            report = familymod.max_r(F, p, q)
            assert (report.max_r, report.witness_subset) == want
            for r in {max(want[0], 1), want[0] + 1}:
                got = familymod._fewest_flagged(F, p, q, lambda: links, r, "test", ranks)
                assert got == scan_fewest(flags, n, p, q, r)
                assert familymod.satisfies_pqr(F, p, q, r) == (want[0] >= r)


def assert_memo_holds_q_up_to_3(nerve) -> None:
    """After ``family._intersecting_qtuples.cache_clear()`` and searches on
    one family: the links memo holds that family's q = 1, 2, 3 links,
    keyed on its nerve, and nothing else."""
    memo = familymod._intersecting_qtuples
    info = memo.cache_info()
    assert info.currsize == 3
    for q in (1, 2, 3):
        memo(nerve, q)
    assert memo.cache_info().hits == info.hits + 3


def dim1_claims(n: int) -> set[tuple[int, int, int]]:
    """Every (p, q, k) that ``bounds.dim1_threshold`` answers for families
    of at most n members with a k below p - q: 2 <= q < p <= n and
    0 <= k < p - q."""
    return {(p, q, k) for p in range(3, n + 1) for q in range(2, p) for k in range(p - q)}


def check_1d_claims(F: Family, tight: set, at_r0: set) -> None:
    """Assert the 1D claim on the interval family F: for each (p, q, k) of
    :func:`dim1_claims`, max_r(F, p, q) at or above the threshold means
    that k + 1 points pierce F.  Each (p, q, k) where F is below the
    threshold and needs more points goes into ``tight``, and into
    ``at_r0`` too when F is exactly one below it."""
    pierced = len(piercingmod.min_piercing(F))
    for p in range(3, len(F) + 1):
        for q in range(2, p):
            r = familymod.max_r(F, p, q).max_r
            for k in range(p - q):
                threshold = dim1_threshold(p, q, k).threshold_r
                if r >= threshold:
                    assert pierced <= k + 1, (F, p, q, k, r, pierced)
                elif pierced > k + 1:
                    tight.add((p, q, k))
                    if r == threshold - 1:
                        at_r0.add((p, q, k))


def fraction_degeneracy_1d(F: Family):
    """The 1D degeneracy level and point as they were computed on
    ``Fraction`` endpoints, kept verbatim as the oracle for the ranked
    ``family.degeneracy_level``."""
    from bisect import bisect_left, bisect_right

    los = sorted(body.lo for body in F.bodies)
    his = sorted(body.hi for body in F.bodies)

    def depth(x):
        return bisect_right(los, x) - bisect_left(his, x)

    point = max(his, key=depth)  # max keeps the first of equal depths
    return len(F) - depth(point), point


def fraction_sweep_piercing_1d(F: Family) -> PiercingSet:
    """Exact minimum piercing of intervals: one pass in (hi, lo) order
    stabs an interval's right endpoint when it starts after the last
    stab.  The sweep as it was on ``Fraction`` endpoints, kept verbatim
    as the oracle for the ranked ``piercing.sweep_piercing_1d``."""
    points: list[Fraction] = []
    for body in sorted(F.bodies, key=lambda b: (b.hi, b.lo)):
        if not points or body.lo > points[-1]:
            points.append(body.hi)
    return _certified(F, points)


#: intervals on small integer ends, lengths 0 to 3: single points, shared
#: endpoints and duplicates are common
INTERVALS = st.tuples(st.integers(-4, 4), st.integers(0, 3)).map(
    lambda lo_len: Interval(lo_len[0], lo_len[0] + lo_len[1]))


#: intervals whose ends are sixths, halves, thirds or integers in a small
#: range, lengths 0 to 2: equal ends written over different denominators,
#: point intervals and duplicates are common
TIED_INTERVALS = st.tuples(st.integers(-6, 6), st.sampled_from((1, 2, 3, 6)), st.integers(0, 4)).map(
    lambda t: Interval(Fraction(t[0], t[1]), Fraction(t[0], t[1]) + Fraction(t[2], 2)))


@st.composite
def tied_families(draw, min_size=1, max_size=9):
    """1D families of TIED_INTERVALS, some members repeated."""
    bodies = draw(st.lists(TIED_INTERVALS, min_size=min_size, max_size=max_size))
    copies = draw(st.lists(st.sampled_from(range(len(bodies))), max_size=3))
    bodies = (bodies + [bodies[i] for i in copies])[:max_size]
    order = draw(st.permutations(range(len(bodies))))
    return Family.of([bodies[i] for i in order])


#: hulls of one to four small integer points: points, segments and
#: polygons that often touch or share a vertex
POLYGONS = st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=4).map(
    lambda points: ConvexPolygon.from_points([pt(x, y) for x, y in points]))


#: lines with small coefficients, which often pass through a vertex of
#: POLYGONS or along an edge
LINES = st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-3, 3)).filter(
    lambda abc: abc[:2] != (0, 0)).map(lambda abc: Line(*abc))


@st.composite
def polygon_families(draw, max_size=8):
    """2D families of one to max_size such bodies, some duplicated."""
    bodies = draw(st.lists(POLYGONS, min_size=1, max_size=max_size))
    copies = draw(st.lists(st.sampled_from(range(len(bodies))), max_size=2))
    bodies = (bodies + [bodies[i] for i in copies])[:max_size]
    order = draw(st.permutations(range(len(bodies))))
    return Family.of([bodies[i] for i in order])


@pytest.fixture
def clip_calls(monkeypatch):
    """Every intersect_bodies and _pair_region_meets call made through the
    names the program imports, counted by the bodies it asks about: the
    geometry questions asked, whether the answer is a region or a flag."""
    calls = []

    def counting(kernel):
        def counted(*args):
            # a list of bodies, or a pair region and a third body
            calls.append(len(args[0]) if len(args) == 1 else len(args))
            return kernel(*args)
        return counted

    # taken before any patch: a wrapper's __name__ is "counted"
    kernels = (intersect_bodies, geometry._pair_region_meets)
    for module in (geometry, familymod, piercingmod):
        for kernel in kernels:
            if hasattr(module, kernel.__name__):
                monkeypatch.setattr(module, kernel.__name__, counting(kernel))
    return calls


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
