"""Families of convex bodies and exact property verification.

A family is an ordered multiset of same-dimension bodies; duplicates are
distinct members (index identity), which the extremal constructions rely
on.  Each family holds one lazy nerve, one memo of pair and triple
flags, Helly cliques.  A pair is clipped when first asked for and its
region kept (:attr:`Family.pair_regions` is the all-pairs view).  A
triple meets exactly when its three pairs meet and no halfplane of the
third body holds the first two's region strictly outside, so its flag
reads two pair flags and tests the kept region's vertices against the
third body's halfplanes, with no clip.  By Helly's theorem a subfamily
of three or more planar bodies meets exactly when each of its triples
does, so every larger subfamily is read off the memoised flags, with no
geometry.  In 1D every answer depends only on the order of the
endpoints, so the nerve ranks them once, on first use, and the sweeps
run on those ints, mapping back to ``Fraction`` only for the points they
return.  One sweep over the intervals sorted by left endpoint gives the
intersecting subfamilies in closed form, because by Helly a set of
intervals meets exactly when its pairs do; the through-line property is
that sweep over the bodies' traces on the line.  Both nerves keep one
table of pair masks, ``adj``, and answer one depth-first walk over index
masks, which gives each intersecting prefix the mask of the members that
extend it, read off its parent's: by Helly, a member the parent's mask
holds extends the prefix when it meets the prefix's last member (the
ranks' pair masks) and, in 2D, each pair of that last member and a
member of the parent (the triple flags).  The 2D q-tuple counts and
f-vector are bit counts of those masks.  The meeting q-tuples of every q
reach the search off the same walk, as links grouped by their last two
members (for q <= 3 one mask of first members per pair), one memo
keeping those of q <= 3 for the last few nerves asked.  They are
aggregated by a depth-first search over p-subsets, with the fixed work
cap DEFAULT_WORK_BUDGET instead of silent truncation.  The search
carries, for every later index, the count a pick of it would add, and
skips a branch whose lower bound reaches the fewest found so far: no
subset under it can be strictly better, so the answer is the one a full
scan gives.  The bound is the counts so far plus the smallest additions
still to come, which only grow, plus, for q >= 2 in 1D and through a
line, the q-tuples the remaining picks must hold among themselves:
bodies that t points pierce split into at most t groups that each share
a point, so any m of them hold at least the q-tuples of t near-equal
cliques (C(., q) is convex).  Those tuples have no member in the prefix,
so the other terms never count them.  Any upper bound on t serves, and a
body that misses the line is a group of its own; for q = 1 the additions
already count each pick's singleton, so nothing is added.  The 1D
degeneracy level is one sweep over the sorted endpoint ranks.  In 2D the
candidate points (the lexmax of each body and each pair region) are
primitive integer triples, deduplicated as triples and sorted as integer
pairs over one common denominator.  One lazy builder masks the bodies
whose integer halfplanes hold each: the exact solver reads these covers,
and the degeneracy scan their bit counts, up to the first as deep as the
largest pair degree allows, which alone becomes a Point.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb, lcm

from .errors import ArityError, BudgetExceededError, DimensionMismatchError
from .geometry import (ConvexBody, Line, _contains_hom, _lexmax, _pair_region_meets, _point,
                       intersect_bodies, line_trace)

#: Hard cap on C(n,p) * C(p,q) aggregation work per query.
DEFAULT_WORK_BUDGET = 5_000_000


class _Nerve:
    """The pair regions and triple flags of one family, each decided once,
    when first needed, in one memo: ``memo[i, j]`` holds the region of the
    pair i < j, clipped by the kernel, or None when it misses, and
    ``memo[i, j, k]`` whether that pair's region meets body k, i < j < k,
    read off the pairs (i, k) and (j, k) and, in 2D, the one-sided test
    ``_pair_region_meets``.  ``root`` is the mask of the n bodies, each of
    which meets on its own."""

    def __init__(self, bodies):
        self.bodies, self.n, self.root = bodies, len(bodies), (1 << len(bodies)) - 1
        self.dimension = bodies[0].dimension
        self.memo: dict[tuple[int, ...], object] = {}

    def pair(self, i: int, j: int):
        """The region of bodies i < j, or None when they miss."""
        try:
            return self.memo[i, j]
        except KeyError:
            region = self.memo[i, j] = intersect_bodies([self.bodies[i], self.bodies[j]])
            return region

    def triple(self, i: int, j: int, k: int) -> bool:
        """Whether bodies i < j < k meet: when k meets i and j and, in 2D,
        no halfplane of k holds the region of i and j strictly outside
        (Helly alone in 1D); the pairs are asked first, so a missing one
        settles the flag with no test."""
        flag = self.memo.get((i, j, k))
        if flag is None:
            flag = self.memo[i, j, k] = (
                self.pair(i, k) is not None and self.pair(j, k) is not None
                and (self.dimension == 1 or _pair_region_meets(self.pair(i, j), self.bodies[k])))
        return flag

    def fits(self, chosen: tuple[int, ...], k: int) -> bool:
        """Whether the intersecting subfamily ``chosen`` plus k, past all
        its members, meets, with nothing known of chosen's parent.  By
        Helly it does when k meets chosen's first member and each pair of
        chosen's members meets k, asked for in that order up to the first
        miss.  :meth:`extend` asks it for the one k its ``within`` leaves
        out, and the tuple walk kept as the tests' oracle for every k."""
        if chosen and self.pair(chosen[0], k) is None:
            return False
        triple = self.triple
        for i, j in itertools.combinations(chosen, 2):
            if not triple(i, j, k):
                return False
        return True

    @cached_property
    def all_pairs(self) -> dict[tuple[int, int], ConvexBody]:
        return {ij: region for ij in itertools.combinations(range(len(self.bodies)), 2)
                if (region := self.pair(*ij)) is not None}

    @cached_property
    def adj(self) -> list[int]:
        """``adj[i]`` has bit j set when bodies i != j meet: :attr:`all_pairs`."""
        adj = [0] * self.n
        for i, j in self.all_pairs:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        return adj

    @cached_property
    def ranks(self) -> _Ranks:
        """The endpoint ranks of a 1D family, built on first use."""
        return _Ranks(self.bodies)

    def extend(self, chosen: tuple[int, ...], within: int, stop: int) -> int:
        """The mask of the k < stop past chosen's last member j that chosen
        fits.  By Helly, chosen + (k,) meets when k is in ``within`` (what
        chosen's parent fits), k meets j, and each triple (i, j, k), i in
        the parent, meets, asked for in that order up to the first miss.
        ``within`` is cut at the parent's stop, which in a walk that skips
        small sizes is one below stop: that one k, when past j and not in
        ``within``, is asked of :meth:`fits`.  So a query asks a subset of
        what the tuple walk asked."""
        j, parent = chosen[-1], chosen[:-1]
        pair, triple = self.pair, self.triple
        last = stop - 1
        ext = 1 << last if last > j and not within >> last & 1 and self.fits(chosen, last) else 0
        todo = within >> j + 1 << j + 1 & (1 << stop) - 1
        while todo:
            k = todo.bit_length() - 1
            todo ^= 1 << k
            if pair(j, k) is None:
                continue
            for i in parent:
                if not triple(i, j, k):
                    break
            else:
                ext |= 1 << k
        return ext


@dataclass(frozen=True)
class Family:
    """An ordered family of compact convex bodies sharing one dimension."""

    # the nerve sits in a slot: outside the fields, so equality and hashing
    # ignore it, and outside vars(), which keeps the fields alone
    __slots__ = ("__dict__", "__weakref__", "_memo")

    dimension: int
    bodies: tuple[ConvexBody, ...]

    def __post_init__(self):
        object.__setattr__(self, "bodies", tuple(self.bodies))
        if not self.bodies:
            raise ValueError("family must contain at least one body")
        if self.dimension not in (1, 2):
            raise ValueError("dimension must be 1 or 2")
        for body in self.bodies:
            if body.dimension != self.dimension:
                raise DimensionMismatchError(
                    f"body of dimension {body.dimension} in a "
                    f"{self.dimension}-dimensional family"
                )

    def __getstate__(self):
        return vars(self)  # the fields alone: a copy builds its own nerve

    @classmethod
    def of(cls, bodies) -> "Family":
        bodies = tuple(bodies)  # no body: __post_init__ refuses it
        return cls(bodies[0].dimension if bodies else 1, bodies)

    def __len__(self) -> int:
        return len(self.bodies)

    @property
    def _nerve(self) -> _Nerve:
        if not hasattr(self, "_memo"):
            object.__setattr__(self, "_memo", _Nerve(self.bodies))
        return self._memo

    def pair_region(self, i: int, j: int):
        """The region of bodies i < j, or None when they miss; clipped once
        per family."""
        return self._nerve.pair(i, j)

    @property
    def pair_regions(self) -> dict[tuple[int, int], ConvexBody]:
        """The region of every meeting pair (i, j), i < j, in lexicographic
        order; the all-pairs view of the nerve, so each pair is clipped
        once."""
        return self._nerve.all_pairs


@dataclass(frozen=True)
class PQRReport:
    """Largest r for which every p-subset carries r intersecting q-tuples,
    together with a p-subset attaining that minimum."""

    p: int
    q: int
    max_r: int
    witness_subset: tuple[int, ...]


class _Ranks:
    """The endpoints of a sequence of intervals, None entries allowed, as
    ints: ``values`` lists the distinct endpoints in increasing order, and
    ``lo[i]`` and ``hi[i]`` are the positions of interval i's ends in it
    (None for a None entry).  Ranks keep every comparison of endpoints,
    ties included, so a sweep on them gives the answer it gives on the
    values.  ``by_lo`` and ``by_hi`` hold the indices of the intervals in
    (lo, index) and (hi, lo, index) order, and ``root`` is their mask."""

    def __init__(self, intervals):
        ends = [x for body in intervals if body is not None for x in (body.lo, body.hi)]
        # on the lcm of the denominators every endpoint is an int, so the
        # ranking sorts and hashes ints, not Fractions
        scale = lcm(*(x.denominator for x in ends))

        def key(x):
            return x.numerator * (scale // x.denominator)

        value = {key(x): x for x in ends}
        order = sorted(value)
        self.values = [value[k] for k in order]
        rank = {k: r for r, k in enumerate(order)}
        self.lo = [None if body is None else rank[key(body.lo)] for body in intervals]
        self.hi = [None if body is None else rank[key(body.hi)] for body in intervals]
        present = [i for i, lo in enumerate(self.lo) if lo is not None]
        self.by_lo = sorted(present, key=self.lo.__getitem__)  # stable: ties by index
        self.by_hi = sorted(present, key=lambda i: (self.hi[i], self.lo[i]))
        self.n, self.root = len(self.lo), sum(1 << i for i in present)

    def stabs(self, start: int = 0) -> list[int]:
        """A minimum piercing set, as ranks, of the intervals with index at
        least ``start``: one pass in (hi, lo) order stabs an interval's
        right end when it starts after the last stab.  Every interval ends
        at or after the stabs made before it, so one that starts at or
        before the last stab contains it."""
        points: list[int] = []
        last = -1
        for i in self.by_hi:
            if i >= start and self.lo[i] > last:
                last = self.hi[i]
                points.append(last)
        return points

    @cached_property
    def adj(self) -> list[int]:
        """``adj[i]`` has bit j set when intervals i != j meet, read off
        the ``earlier`` lists of :func:`_interval_sweep`."""
        adj = [0] * len(self.lo)
        for i, earlier in _interval_sweep(self):
            for j in earlier:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        return adj

    def extend(self, chosen: tuple[int, ...], within: int, stop: int) -> int:
        """The mask of the k past chosen's last member j that chosen fits:
        by Helly, those in ``within``, what chosen's parent fits, that meet j."""
        return within & self.above[chosen[-1]]

    @cached_property
    def above(self) -> list[int]:
        """``above[j]``: the bits of ``adj[j]`` past j."""
        return [mask >> j + 1 << j + 1 for j, mask in enumerate(self.adj)]

    @cached_property
    def taus(self) -> list[int]:
        """``taus[j]`` bounds the groups that the entries with index at
        least j split into, each group sharing a point: their piercing
        number, each None entry counted as a group of its own."""
        return [len(self.stabs(j)) + self.lo[j:].count(None) for j in range(len(self.lo))]


def _interval_sweep(ranks: _Ranks):
    """Yield (i, earlier) for every interval in (lo, index) order, where
    ``earlier`` lists the intervals before i in that order whose ``hi``
    reaches ``lo_i``.  None entries are skipped, and the others keep their
    indices in the sequence.

    Each of them contains ``lo_i``, so i with any subset of ``earlier`` is
    an intersecting subfamily whose last member in this order is i, and
    every intersecting subfamily arises once this way: its members all
    contain the largest left endpoint among them.
    """
    his = ranks.hi
    active: list[int] = []
    for i in ranks.by_lo:
        lo = ranks.lo[i]
        # left endpoints only grow, so an interval ending before lo_i
        # reaches no later one either
        active = [j for j in active if his[j] >= lo]
        yield i, active
        active = active + [i]


def _walk(nerve, lo: int, hi: int):
    """Yield (chosen, rest, ext), in lexicographic order, for the
    intersecting index tuples ``chosen`` with lo - 1 <= len(chosen) < hi:
    ``rest`` masks its members but the last, and ``ext`` the k past them
    for which chosen + (k,) meets, so each intersecting subfamily of size
    lo..hi is one chosen + (k,).  Depth-first with an explicit stack (hi
    may exceed the recursion limit), from ``nerve.root``, the ext of the
    empty tuple; a child's ext is ``nerve.extend(child, ext, stop)``.  A
    tuple of size s is extended only by the k < n - max(lo - s - 1, 0),
    from which size lo can still be reached.  From size lo - 1 on, a
    tuple's ext holds every k past it that it fits, so its child at the
    last of them has an empty ext: that one is not made, and every other
    tuple is yielded."""
    n, extend = nerve.n, nerve.extend
    bit = [1 << k for k in range(n)]  # made once, not one new int per child
    stops = [n - max(lo - size - 1, 0) for size in range(hi + 1)]
    limits = [(1 << stop) - 1 for stop in stops]
    stack = [((), 0, nerve.root)]
    while stack:
        node = chosen, rest, ext = stack.pop()
        size = len(chosen)
        if size < hi - 1:
            mask = rest | bit[chosen[-1]] if chosen else 0
            stop, todo = stops[size + 1], ext & limits[size]
            if size >= lo - 1:
                # ext holds every k past chosen that chosen fits, so the
                # child at its last bit would fit none: it is not made
                todo &= ~bit[todo.bit_length() - 1]
            # children last index first, so the smallest pops next
            while todo:
                k = todo.bit_length() - 1
                todo ^= bit[k]
                child = chosen + (k,)
                stack.append((child, mask, extend(child, ext, stop)))
        if size >= lo - 1:
            yield node


def _build_links(nerve, q: int) -> tuple[list[int], list[dict]]:
    """The nerve's meeting q-tuples as links, read off one :func:`_walk`:
    ``root[j]`` is 1 when (j,) is one of them (q = 1, bit j of the empty
    tuple's ext), and ``later[j]`` maps j' > j to the link of those whose
    last two members are j and j', if any.  For q = 2 and 3 a link is the
    mask of their first members, the OR of one bit per tuple; past that,
    the list of the masks of their first q - 2 members."""
    n = nerve.n
    root, later = [0] * n, [{} for _ in range(n)]
    bit = [1 << k for k in range(n)]
    for chosen, rest, ext in _walk(nerve, q, q):
        if not chosen:
            root = [ext >> j & 1 for j in range(n)]
            continue
        # rest masks chosen's members but its last; for q = 2, where that
        # is empty, the link bit is chosen's one member
        row, mask = later[chosen[-1]], rest | bit[chosen[0]]
        while ext:
            k = ext.bit_length() - 1
            ext ^= bit[k]
            if q <= 3:
                row[k] = row.get(k, 0) | mask
            elif k in row:
                row[k].append(mask)
            else:
                row[k] = [mask]
    return root, later


@lru_cache(maxsize=8)
def _intersecting_qtuples(nerve, q: int) -> tuple[list[int], list[dict]]:
    """The links of a nerve's meeting q-tuples, for the last few asked: keyed
    on the nerve object, and asked only for q <= 3 (O(n^2) space), since
    past that a link holds a mask per meeting q-tuple."""
    return _build_links(nerve, q)


def count_intersecting_qtuples(F: Family, q: int) -> int:
    """Exact number of q-subsets of F whose members share a common point."""
    if q < 1:
        raise ArityError(f"q must be positive, got {q}")
    if q > len(F):
        raise ArityError(f"q={q} exceeds family size {len(F)}")
    if F.dimension == 1:  # i closes C(d_i, q-1) of them, as in f_vector
        return sum(comb(len(earlier), q - 1) for _, earlier in _interval_sweep(F._nerve.ranks))
    return sum(ext.bit_count() for _, _, ext in _walk(F._nerve, q, q))


def f_vector(F: Family) -> tuple[int, ...]:
    """Entry j is the number of intersecting (j+1)-subsets, j = 0..n-1.

    In 1D an interval with d earlier intervals in :func:`_interval_sweep`
    closes C(d, j) intersecting (j+1)-subsets."""
    if F.dimension == 1:
        degrees = [len(earlier) for _, earlier in _interval_sweep(F._nerve.ranks)]
        return tuple(sum(comb(d, j) for d in degrees) for j in range(len(F)))
    counts = [0] * len(F)
    for chosen, _, ext in _walk(F._nerve, 1, len(F)):
        counts[len(chosen)] += ext.bit_count()
    return tuple(counts)


def _cliques(m: int, t: int, q: int) -> int:
    """The fewest q-subsets that lie inside one of t groups holding m
    members in all: C(size, q) summed over t near-equal sizes, since
    C(., q) is convex."""
    size, big = divmod(m, t)
    return big * comb(size + 1, q) + (t - big) * comb(size, q)


def _fewest_flagged(F: Family, p: int, q: int, links, floor: int, what: str,
                    ranks: _Ranks | None = None) -> tuple[int, tuple[int, ...]]:
    """The lexicographically first p-subset of F holding the fewest
    flagged q-tuples, as (count, subset).  ``links()`` gives the flagged
    tuples as (root, later), in the shape that :func:`_build_links` reads
    off the subfamily walk; neither is changed.  The scan stops at the
    first subset whose count falls below ``floor`` (r, at least 1);
    ``links`` is called only once the C(n,p) * C(p,q) + C(n,q) steps are
    found within DEFAULT_WORK_BUDGET, read once per call.

    Depth-first over p-subsets in lexicographic order, with an explicit
    stack because p may exceed the recursion limit.  A flagged q-tuple is
    counted at its last index.  Each prefix P keeps, for every later index
    j, inc(j, P): the flagged q-tuples whose last index is j and whose
    other members lie in P.  Adding j to P then adds inc(j, P), and the
    child's increments are the parent's plus the tuples whose last two
    members are j and j' and whose rest lies in P: a bit count of the link
    mask of (j, j') against P for q = 2 and 3, a test of each member mask
    for q >= 4, and none for q = 1.

    Increments only grow as the prefix grows, so a leaf under child j
    holds at least count(P) + inc(j, P) plus the sum of the ``need - 1``
    smallest inc(j', P) over j' > j, where ``need`` picks remain.  A child
    whose bound reaches the best count so far is skipped: every subset
    under it counts at least as many, and the only subsets that replace
    the best are strictly smaller ones (a later subset of equal count is
    not the lexicographically first; one below ``floor`` is below the
    best too, since the scan is still running).  So the answer is the
    one a full scan in lexicographic order would give.

    ``ranks``, when given for q >= 2, ranks intervals (the bodies, or their
    traces on a line) whose flagged q-tuples are exactly the meeting ones,
    and adds a third term to child j's bound.  The ``need`` picks from
    index j on split into at most t_j = ``ranks.taus[j]`` groups, each
    sharing a point, since t_j points pierce that suffix (any upper bound
    on the piercing number would do; a body missing the line is a group
    of its own).  Every q-tuple inside a group is flagged, so the picks
    hold at least ``_cliques(need, t_j, q)`` flagged q-tuples among
    themselves.  None of these has a member in P, while every tuple that
    count(P) and the increments count has all members but its last in P,
    so the three terms count disjoint tuples and their sum is still a
    lower bound.  For q = 1 a pick's own singleton is the tuple an
    increment counts, so the term is not added.
    """
    n = len(F)
    if floor < 1:
        raise ArityError(f"r must be >= 1, got {floor}")
    if q < 1 or p < 1:
        raise ArityError(f"p and q must be positive, got p={p}, q={q}")
    if q > p:
        raise ArityError(f"q={q} exceeds p={p}")
    if p > n:
        raise ArityError(f"p={p} exceeds family size {n}")
    work = comb(n, p) * comb(p, q) + comb(n, q)
    if work > DEFAULT_WORK_BUDGET:
        raise BudgetExceededError(
            f"{what} enumeration needs {work} steps, budget is {DEFAULT_WORK_BUDGET}")
    # root is the increments of the empty prefix; the search copies it
    # before any update
    root, later = links()
    # cliques[need][j]: the flagged q-tuples that need picks from index j
    # on hold among themselves, where a bound applies; need = 1 is the
    # leaf branch, so only rows need >= 2 are read
    cliques = [[0] * n] * (p + 1)
    if ranks is not None and q >= 2:
        taus = ranks.taus
        for need in range(2, p + 1):
            row = {t: _cliques(need, t, q) for t in set(taus)}
            cliques[need] = [row[t] for t in taus]
    best = comb(p, q) + 1  # above every count, so the first subset replaces it
    best_mask = 0
    # (lower bound, prefix size, prefix mask, its count, last index, the
    # parent's increments); the prefix's own increments are made on pop
    stack = [(0, 0, 0, 0, -1, root)]
    while stack:
        bound, size, mask, count, last, inc = stack.pop()
        if bound >= best:
            continue
        if last >= 0 and later[last]:
            inc = inc.copy()
            if q <= 3:
                for j, link in later[last].items():
                    inc[j] += (link & mask).bit_count()
            else:
                for j, links in later[last].items():
                    inc[j] += sum(1 for m in links if m & mask == m)
        need = p - size
        if need == 1:  # the children are leaves: take them in place
            for j in range(last + 1, n):
                if count + inc[j] < best:
                    best, best_mask = count + inc[j], mask | 1 << j
                    if best < floor:
                        stack.clear()
                        break
            continue
        # children last index first, so the smallest pops next; pool holds
        # the need - 1 smallest increments after the child, and rest their sum
        pool = sorted(inc[n - need + 1:])
        rest = sum(pool)
        within = cliques[need]
        for j in range(n - need, last, -1):
            child = count + inc[j]
            low = child + rest + within[j]
            if low < best:
                stack.append((low, size + 1, mask | 1 << j, child, j, inc))
            if inc[j] < pool[-1]:
                rest += inc[j] - pool.pop()
                insort(pool, inc[j])
    return best, tuple(j for j in range(n) if best_mask >> j & 1)


def _fewest_meeting(F: Family, p: int, q: int, floor: int) -> tuple[int, tuple[int, ...]]:
    """:func:`_fewest_flagged` on the links of F's nerve, memoised for q <= 3:
    in 1D the endpoint ranks, which also give the piercing bound; in 2D
    the pair and triple flags, which give no cheap piercing number."""
    ranks = F._nerve.ranks if F.dimension == 1 else None
    nerve = F._nerve if ranks is None else ranks
    build = _intersecting_qtuples if q <= 3 else _build_links
    return _fewest_flagged(F, p, q, lambda: build(nerve, q), floor, "max_r", ranks)


def max_r(F: Family, p: int, q: int) -> PQRReport:
    """The largest r such that every p-subset of F contains at least r
    intersecting q-tuples (0 means the plain (p,q) property fails)."""
    best, witness = _fewest_meeting(F, p, q, 1)
    return PQRReport(p=p, q=q, max_r=best, witness_subset=witness)


def satisfies_pqr(F: Family, p: int, q: int, r: int) -> bool:
    """Whether among any p members at least r of the q-tuples intersect."""
    return _fewest_meeting(F, p, q, r)[0] >= r


def satisfies_pqr_through_line(F: Family, line: Line, p: int, q: int, r: int) -> bool:
    """Whether among any p members at least r q-tuples intersect *on* the
    given line, i.e. their common region meets it."""
    if F.dimension != 2:
        raise DimensionMismatchError("through-line property is 2D only")
    return _satisfies_pqr_on_traces(F, _Ranks([line_trace(body, line) for body in F.bodies]),
                                    p, q, r)


def _satisfies_pqr_on_traces(F: Family, ranks: _Ranks, p: int, q: int, r: int) -> bool:
    """The through-line property from the ranks of the bodies' traces on
    the line, None for a body that misses it: members meet on the line
    exactly when their traces do."""
    best, _ = _fewest_flagged(F, p, q, lambda: _build_links(ranks, q), r, "through-line", ranks)
    return best >= r


def _candidates(F: Family) -> list[tuple[int, int, int]]:
    """The 2D candidate points, as primitive vertex triples: the lexmax of
    every body and of every meeting pair's region, each once (a point has
    one primitive triple), in the lexicographic order of the points, which
    is the order of the integer pairs (X, Y) over the lcm of every W."""
    triples = {_lexmax(region._hom) for region in (*F.bodies, *F.pair_regions.values())}
    scale = lcm(*(W for _, _, W in triples))
    return sorted(triples, key=lambda v: (v[0] * (scale // v[2]), v[1] * (scale // v[2])))


def _covers(F: Family):
    """Yield (triple, mask) for each of :func:`_candidates`, in order and
    lazily: bit i is set when body i's integer halfplanes hold the point."""
    for v in _candidates(F):
        yield v, sum(1 << i for i, body in enumerate(F.bodies) if _contains_hom(body, v))


def degeneracy_level(F: Family):
    """Smallest t such that one point pierces all but t members, with a
    point attaining it.  Decided over the finite candidate-point set,
    which is sufficient for optimal piercing; the point is the first
    candidate of greatest depth.

    In 1D the candidates are the right endpoints, and the depth of x is
    the number of left endpoints at most x less the number of right
    endpoints below it, read off the two sorted lists of endpoint ranks.
    In 2D the depths are the bit counts of :func:`_covers`' masks, and
    only the winner becomes a Point; no point lies in more bodies than one
    body meets, itself included, so the scan stops at the first candidate
    that reaches that count."""
    if F.dimension == 1:
        ranks = F._nerve.ranks
        los, his = sorted(ranks.lo), sorted(ranks.hi)

        def depth(x):
            return bisect_right(los, x) - bisect_left(his, x)

        point = max(his, key=depth)  # max keeps the first of equal depths
        return len(F) - depth(point), ranks.values[point]
    bound = 1 + max(map(int.bit_count, F._nerve.adj))
    best_count, best = -1, None
    for v, mask in _covers(F):
        if mask.bit_count() > best_count:
            best_count, best = mask.bit_count(), v
            if best_count == bound:  # no later candidate can be deeper
                break
    return len(F) - best_count, _point(best)


def is_t_degenerate(F: Family, t: int):
    """Whether some single point pierces at least |F| - t members.

    Returns (answer, witness point or None).
    """
    if t < 0:
        raise ArityError(f"t must be nonnegative, got {t}")
    level, point = degeneracy_level(F)
    if level <= t:
        return True, point
    return False, None
