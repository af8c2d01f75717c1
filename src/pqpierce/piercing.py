"""Exact minimum piercing and the constructive piercing procedures.

Three solvers live here:

* :func:`min_piercing` — exact optimum via right-endpoint sweep in 1D and
  branch-and-bound set cover over candidate points in 2D.
* :func:`hd_pierce` — the recursive construction that pierces a family
  with the (p,q) property within the bound of :func:`bounds.hd_exact_region`:
  repeatedly pick the lexicographic minimum of the lexicographic maxima of
  intersecting d-tuples, keep that point, and recurse on the bodies it
  misses with parameters (p-d, q-d+1).
* :func:`line_pierce` — piercing through a line: bodies missing the line
  are pierced at their lexmax, the rest are reduced to 1D segments along
  the line and solved exactly.

:func:`ms_line` constructs, for any 2D family, a pair (A, B) and a line
that every body meeting both A and B must cross; the guarantee predicate
is re-verified against the family before the witness is returned.

Candidate points are sufficient for optimal piercing because any piercing
point x can be replaced by the lexicographic maximum of the intersection
of the bodies it pierces, and (by Helly in the plane) that maximum is
already the lexmax of a single body or of some pair intersection.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import lcm
from typing import Optional, Sequence

from . import family as familymod
from .bounds import dim1_threshold, hd_exact_region
from .errors import ArityError, BudgetExceededError, DimensionMismatchError, PremiseViolationError
from .family import Family
from .geometry import (
    Line,
    Point,
    _clip_halfplane,
    _contains_hom,
    _lexmax,
    _point,
    body_contains_point,
    intersect_bodies,
    lexmax_body,
    line_meets_body,
    line_trace,
    separating_line,
)

#: Node cap for the branch-and-bound cover search, read once per search.
DEFAULT_NODE_BUDGET = 500_000


@dataclass(frozen=True)
class PiercingSet:
    """A list of piercing points (rationals in 1D, Points in 2D) with a
    validity certificate against the family it was computed for."""

    points: tuple
    certified: bool

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class LineLemmaWitness:
    """Pair indices (A, B) and a line such that every family member
    meeting both A and B meets the line; x0 is set in the branch where all
    pairs intersect."""

    A_index: int
    B_index: int
    line: Line
    x0: Optional[Point]


def _certified(F: Family, points: Sequence) -> PiercingSet:
    """The points, sorted, as a PiercingSet once every body of F is checked
    to contain one of them.  Raises AssertionError otherwise; the check is
    explicit so that it also runs under ``python -O``."""
    for i, body in enumerate(F.bodies):
        if not any(body_contains_point(body, p) for p in points):
            raise AssertionError(f"piercing set misses body {i}")
    return PiercingSet(points=tuple(sorted(points)), certified=True)


def candidate_points(F: Family) -> list:
    """Lexmax of every body and of every intersecting pair, deduplicated
    and sorted; sufficient for exact minimum piercing.  In 2D they are
    found on integer triples and made Points at the end; in 1D a pair's
    lexmax is min(hi_i, hi_j), already a body's, so these are the
    distinct right endpoints and no pair is clipped."""
    if F.dimension == 2:
        return [_point(v) for v in familymod._candidates(F)]
    return sorted({body.hi for body in F.bodies})


def sweep_piercing_1d(F: Family) -> PiercingSet:
    """Exact minimum piercing of intervals: the one pass of
    :meth:`family._Ranks.stabs` on the family's endpoint ranks, each stab
    mapped back to its endpoint."""
    if F.dimension != 1:
        raise DimensionMismatchError("sweep solver is 1D only")
    ranks = F._nerve.ranks
    return _certified(F, [ranks.values[point] for point in ranks.stabs()])


def branch_and_bound_piercing(F: Family) -> PiercingSet:
    """Exact minimum piercing of a 2D family via branch-and-bound set
    cover over the candidate points' covers from :func:`family._covers`.

    Sets of bodies are int bitmasks: each candidate's cover, the bodies
    left uncovered, and each body's meet mask, its pair mask in the
    nerve's ``adj`` and itself.  A node is pruned when its points plus a
    greedy packing of pairwise-disjoint uncovered bodies, each needing its
    own point, reach the best cover so far; otherwise it branches on the
    covers of the uncovered body that the fewest covers hold."""
    if F.dimension != 2:
        raise DimensionMismatchError("branch-and-bound solver is 2D only")
    n = len(F)
    budget = DEFAULT_NODE_BUDGET
    # drop candidates whose coverage is dominated by an earlier one; the
    # sort is stable, so equal counts stay in candidate order, point order
    triples, masks = [], []
    for v, mask in sorted(familymod._covers(F), key=lambda vm: -vm[1].bit_count()):
        if not any(mask | other == other for other in masks):
            triples.append(v)
            masks.append(mask)
    holders = [sum(mask >> i & 1 for mask in masks) for i in range(n)]
    if 0 in holders:
        raise AssertionError("candidate points fail to cover some body")
    meets = [adj | 1 << i for i, adj in enumerate(F._nerve.adj)]

    # greedy cover for an initial upper bound
    best: list[int] = []
    uncovered = (1 << n) - 1
    while uncovered:
        ci = max(range(len(masks)), key=lambda ci: ((masks[ci] & uncovered).bit_count(), -ci))
        best.append(ci)
        uncovered &= ~masks[ci]
    nodes = 0

    def search(chosen: list[int], uncovered: int) -> None:
        nonlocal best, nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(f"piercing search exceeded {budget} nodes on {n} bodies")
        if not uncovered:
            if len(chosen) < len(best):
                best = list(chosen)
            return
        left = [i for i in range(n) if uncovered >> i & 1]
        packed = 0
        for i in left:
            if not meets[i] & packed:
                packed |= 1 << i
        if len(chosen) + packed.bit_count() >= len(best):
            return
        pivot = min(left, key=lambda i: (holders[i], i))
        for ci, mask in enumerate(masks):
            if mask >> pivot & 1:
                search(chosen + [ci], uncovered & ~mask)

    search([], (1 << n) - 1)
    return _certified(F, [_point(triples[ci]) for ci in best])


def min_piercing(F: Family) -> PiercingSet:
    """An exact minimum-cardinality piercing set for the family."""
    if F.dimension == 1:
        return sweep_piercing_1d(F)
    return branch_and_bound_piercing(F)


def hd_pierce(F: Family, p: int, q: int) -> PiercingSet:
    """Constructive piercing of a family with the (p,q) property within the
    bound of :func:`bounds.hd_exact_region`, in the regime where it has one.

    Each round keeps x0, the lexicographic minimum over intersecting
    d-tuples of the lexmax of their intersection (ties broken by smallest
    index tuple), and recurses on the bodies missing x0 with parameters
    (p-d, q-d+1); when fewer than p-d bodies survive they are finished off
    by the exact solver within a p-q point budget, and when the parameters
    meet (p' = q') all survivors share a point by Helly.
    """
    d = F.dimension
    bound = hd_exact_region(p, q, d)
    if len(F) < p:
        raise ArityError(f"family of size {len(F)} smaller than p={p}")
    if bound is None:
        raise ArityError(
            f"need d*q > (d-1)*p + d for the construction, got p={p}, q={q}, d={d}"
        )

    points: list = []
    active = list(range(len(F)))
    cp, cq = p, q
    while True:
        sub = F if len(active) == len(F) else Family(F.dimension, tuple(F.bodies[i] for i in active))
        report = familymod.max_r(sub, cp, cq)
        if report.max_r < 1:
            witness = tuple(active[i] for i in report.witness_subset)
            raise PremiseViolationError(
                f"({cp},{cq}) property fails on subset {witness}",
                witness=witness,
            )
        if cp == cq:
            # every cq-subset intersects, hence every (d+1)-subset does;
            # Helly gives a common point
            region = intersect_bodies([F.bodies[i] for i in active])
            if region is None:
                raise AssertionError("Helly base case found empty intersection")
            points.append(lexmax_body(region))
            break
        # active is increasing, so sub's index tuples order as F's do.  Some
        # d-tuple meets: sub has a cp-subset, max_r >= 1 gives it a meeting
        # cq-tuple, and cq > d (2cq > cp + 2 > cq + 2 in 2D, q >= 2 in 1D).
        regions = sub.pair_regions if d == 2 else {(i,): body for i, body in enumerate(sub.bodies)}
        x0, _, a_region = min(((lexmax_body(region), indices, region)
                               for indices, region in regions.items()), key=lambda t: t[:2])
        points.append(x0)
        survivors = [i for i in active if not body_contains_point(F.bodies[i], x0)]
        for i in survivors:
            if intersect_bodies([F.bodies[i], a_region]) is not None:
                raise AssertionError(
                    "body missing x0 still meets the minimizing tuple's intersection"
                )
        if not survivors:
            break
        if len(survivors) >= cp - d:
            active = survivors
            cp, cq = cp - d, cq - d + 1
        else:
            rest = Family(F.dimension, tuple(F.bodies[i] for i in survivors))
            solved = min_piercing(rest)
            if len(solved) > cp - cq:
                raise AssertionError(
                    f"small-remainder branch needed {len(solved)} > {cp - cq} points"
                )
            points.extend(solved.points)
            break

    if len(points) > bound:
        raise AssertionError(f"construction produced {len(points)} > {bound} points")
    return _certified(F, points)


def _line_guarantee_holds(F: Family, ai: int, bi: int, line: Line) -> bool:
    """Whether every body meeting both A and B meets the line; which bodies
    meet is read off the family's pair memo, and a body meets itself."""
    return all(line_meets_body(line, C) for c, C in enumerate(F.bodies)
               if all(c == k or F.pair_region(min(c, k), max(c, k)) is not None for k in (ai, bi)))


def ms_line(F: Family) -> LineLemmaWitness:
    """A pair (A, B) and a line met by every body that meets both.

    Branch (i): some pair is disjoint; any separating line works.
    Branch (ii): all pairs intersect; take x0 as the lexmin over pairs of
    lexmax of the pair intersection, and search for a line through x0
    weakly separating the beyond-x0 parts wa, wb of the minimizing pair.
    The guarantee predicate is verified against the family before returning.
    Branch (ii) runs on integer vertex triples and pairs; only the answer's
    x0 becomes a `Point`, and only a separating direction a `Line`.

    Why the directions searched always hold such a line: wa and wb lie in
    the halfplane x >= x0.x and meet only in x0.  A common point right of
    the line x = x0.x, or above x0 on it, would lie in A∩B beyond its
    lexmax x0; two parts sharing a segment of that line below x0 both reach
    right of it (a part inside the line keeps only y >= x0.y) and would
    overlap right of it.  So their cones at x0 are arcs of the right
    half-circle of directions meeting only at the apex, one below the
    other, and the line along the upper boundary ray of the lower cone
    separates them.  That ray runs along an edge of wa or wb through x0,
    or, when one of them is the point x0, the other's lower ray or the
    vertical serves; each is in ``directions``.  Every such line
    passes the guarantee: a body C meeting A and B holds lexmax(A∩C) in wa
    and lexmax(B∩C) in wb, both lexicographically at least x0 by the choice
    of x0, and the segment of C between them crosses the line.
    """
    if F.dimension != 2:
        raise DimensionMismatchError("the line lemma construction is 2D only")
    if len(F) < 2:
        raise ArityError("need at least two bodies")

    for i, j in itertools.combinations(range(len(F)), 2):
        if F.pair_region(i, j) is None:
            line = separating_line(F.bodies[i], F.bodies[j])
            if not _line_guarantee_holds(F, i, j, line):
                raise AssertionError("separating line failed the guarantee predicate")
            return LineLemmaWitness(A_index=i, B_index=j, line=line, x0=None)

    # x0 and the pair, ties to the smaller pair, over one denominator
    lexmaxes = {ij: _lexmax(region._hom) for ij, region in F.pair_regions.items()}
    L = lcm(*(W for _, _, W in lexmaxes.values()))
    *_, (ai, bi) = min((X * (L // W), Y * (L // W), ij) for ij, (X, Y, W) in lexmaxes.items())
    X, Y, W = x0 = lexmaxes[ai, bi]
    parts = []
    for body in (F.bodies[ai], F.bodies[bi]):
        if not _contains_hom(body, x0):
            raise AssertionError("x0 not in body while building witness polygon")
        part = _clip_halfplane(body._hom, -W, 0, -X)
        if part is not None and all(vX * W == X * vW for vX, _, vW in part):
            part = _clip_halfplane(part, 0, -W, -Y)
        if part is None:
            raise AssertionError("clip emptied a polygon that must stay nonempty")
        parts.append(part)

    # the parts' vertices less x0 as integer pairs over one denominator, so
    # that the edge vectors sort as the rational ones do
    L = lcm(W, *(vW for part in parts for _, _, vW in part))
    wa, wb = ([(vX * (L // vW) - X * (L // W), vY * (L // vW) - Y * (L // W)) for vX, vY, vW in part]
              for part in parts)
    directions = {(0, 1)} | {(w[0] - u[0], w[1] - u[1]) for verts in (wa, wb)
                             for u, w in zip(verts, verts[1:] + verts[:1]) if u != w}
    for dx, dy in sorted(directions):
        sa, sb = ([dy * x - dx * y for x, y in verts] for verts in (wa, wb))
        if (min(sa) >= 0 and max(sb) <= 0) or (max(sa) <= 0 and min(sb) >= 0):
            line = Line(dy * W, -dx * W, dy * X - dx * Y)
            if _line_guarantee_holds(F, ai, bi, line):
                return LineLemmaWitness(A_index=ai, B_index=bi, line=line, x0=_point(x0))
    raise AssertionError("no witness line found; construction bug")


def line_pierce(F: Family, line: Line, p: int, k: int) -> PiercingSet:
    """Pierce a family satisfying the (p,2) property through the line at
    the tight 1D threshold r0, within the bound :func:`bounds.dim1_threshold`
    certifies there.

    Each body is traced on the line once and the traces ranked once.  The
    ranks decide the through-line premise; bodies whose trace is empty
    miss the line and are pierced at their lexmax, and the rest of the
    traces are stabbed by the exact 1D sweep on the same ranks.
    :func:`bounds.dim1_threshold` checks the range of (p, k).
    """
    if F.dimension != 2:
        raise DimensionMismatchError("line piercing is 2D only")
    bound = dim1_threshold(p, 2, k)
    traces = [line_trace(body, line) for body in F.bodies]
    ranks = familymod._Ranks(traces)
    if not familymod._satisfies_pqr_on_traces(F, ranks, p, 2, bound.threshold_r):
        raise PremiseViolationError(
            f"family does not satisfy the (p,2)_{bound.threshold_r} property through the line"
        )
    missing = [i for i, trace in enumerate(traces) if trace is None]
    if len(missing) > k:
        raise PremiseViolationError(
            f"{len(missing)} bodies miss the line, more than k={k}",
            witness=tuple(missing),
        )
    points: list[Point] = [lexmax_body(F.bodies[i]) for i in missing]
    stabs = ranks.stabs()
    if stabs:
        base, direction = line.some_point(), line.direction()
        points.extend(base + direction.scaled(ranks.values[t]) for t in stabs)
    if len(points) > bound.pierce_bound:
        raise AssertionError(f"construction produced {len(points)} > {bound.pierce_bound} points")
    return _certified(F, points)
