"""Independent checkers for every output the benchmark receives.

Nothing here imports ``pqpierce``: each checker recomputes what the
method must satisfy from the benchmark's own inputs with its own exact
arithmetic, so a fault in the program cannot hide in its own checker.
A failed check raises ``CheckFailed``.

Bodies are plain data: a 1D body is a pair ``(lo, hi)``, a 2D body is a
list of ``(x, y)`` Fraction pairs in any order (the convex hull of the
list).  Subsets of a family are bit masks over body indices.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import factorial, gcd, lcm


class CheckFailed(AssertionError):
    """An output of the program disagrees with the independent check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Own exact planar geometry, on integers
# ---------------------------------------------------------------------------
#
# A family's coordinates are multiplied by the least common multiple of
# their denominators, so body vertices are integers.  A point that is not
# a vertex is kept in homogeneous form (X, Y, W): the point (X/W, Y/W),
# W > 0, with gcd(X, Y, W) = 1 so that equal points compare equal.

def _cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull(points) -> list:
    """Convex hull by gift wrapping, counter-clockwise from the smallest
    point, no collinear vertices; a point or a segment for degenerate
    input."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    start = pts[0]
    out = [start]
    current = start
    while True:
        candidate = pts[0] if pts[0] != current else pts[1]
        for p in pts:
            if p == current:
                continue
            turn = _cross(current, candidate, p)
            # p is clockwise of candidate, or collinear and farther
            if turn < 0 or (turn == 0 and _sq(current, p) > _sq(current, candidate)):
                candidate = p
        if candidate == start:
            return out
        out.append(candidate)
        current = candidate


def _sq(a, b) -> int:
    return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2


def _homogeneous(x, y, w) -> tuple[int, int, int]:
    if w < 0:
        x, y, w = -x, -y, -w
    g = gcd(gcd(x, y), w)
    return x // g, y // g, w // g


class Body:
    """A compact convex body with integer hull vertices."""

    __slots__ = ("verts", "edges", "box")

    def __init__(self, points):
        self.verts = hull(points)
        v = self.verts
        if len(v) == 1:
            self.edges = []
        elif len(v) == 2:
            self.edges = [(v[0], v[1])]
        else:
            self.edges = [(v[i], v[(i + 1) % len(v)]) for i in range(len(v))]
        xs = [p[0] for p in v]
        ys = [p[1] for p in v]
        self.box = (min(xs), min(ys), max(xs), max(ys))

    def contains(self, point) -> bool:
        """Membership of the homogeneous point (X, Y, W)."""
        X, Y, W = point
        x0, y0, x1, y1 = self.box
        if not (x0 * W <= X <= x1 * W and y0 * W <= Y <= y1 * W):
            return False
        v = self.verts
        if len(v) == 1:
            return True  # the box is the point
        if len(v) == 2:
            (ax, ay), (bx, by) = v
            return (bx - ax) * (Y - ay * W) == (by - ay) * (X - ax * W)
        return all((bx - ax) * (Y - ay * W) - (by - ay) * (X - ax * W) >= 0
                   for (ax, ay), (bx, by) in self.edges)

    def meets_line(self, a, b, c) -> bool:
        sides = [a * x + b * y - c for x, y in self.verts]
        return min(sides) <= 0 <= max(sides)


def _boxes_meet(b1, b2) -> bool:
    return b1[0] <= b2[2] and b2[0] <= b1[2] and b1[1] <= b2[3] and b2[1] <= b1[3]


def _segment_crossing(p1, p2, p3, p4):
    """The crossing of two non-parallel segments, homogeneous, or None."""
    d1x, d1y = p2[0] - p1[0], p2[1] - p1[1]
    d2x, d2y = p4[0] - p3[0], p4[1] - p3[1]
    den = d1x * d2y - d1y * d2x
    if den == 0:
        return None  # parallel: any shared extreme point is an endpoint
    wx, wy = p3[0] - p1[0], p3[1] - p1[1]
    t = wx * d2y - wy * d2x  # parameter on the first segment is t / den
    u = wx * d1y - wy * d1x  # on the second, u / den
    if den < 0:
        den, t, u = -den, -t, -u
    if 0 <= t <= den and 0 <= u <= den:
        return _homogeneous(p1[0] * den + t * d1x, p1[1] * den + t * d1y, den)
    return None


class Nerve2D:
    """Own exact pair and triple tests for a planar family.

    The points considered are every body vertex and every crossing of
    two bodies' edges, each with the mask of the bodies holding it.  The
    lexicographic maximum of a nonempty intersection of bodies is an
    extreme point, so it is a body vertex or the crossing of two
    non-parallel edges, and it lies in all those bodies.  Hence a set of
    bodies meets iff one of these points lies in all of them, and the
    points are a sufficient candidate set for piercing.  The pair and
    triple tables come from that; by Helly's theorem in the plane a
    subfamily meets iff all its pairs and triples do."""

    def __init__(self, bodies):
        coords = [c for body in bodies for point in body for c in point]
        self.scale = lcm(*(Fraction(c).denominator for c in coords))
        s = self.scale
        self.bodies = [Body([(int(x * s), int(y * s)) for x, y in body]) for body in bodies]
        n = self.n = len(self.bodies)
        pts = {(x, y, 1) for body in self.bodies for x, y in body.verts}
        for i, j in itertools.combinations(range(n), 2):
            bi, bj = self.bodies[i], self.bodies[j]
            if not _boxes_meet(bi.box, bj.box):
                continue
            for e in bi.edges:
                for f in bj.edges:
                    x = _segment_crossing(e[0], e[1], f[0], f[1])
                    if x is not None:
                        pts.add(x)
        self.masks = {p: self.pierced(p) for p in pts}
        self.maximal = _maximal_masks(set(self.masks.values()))
        self.pair = [0] * n  # bit j of pair[i]: bodies i and j meet
        for i, j in itertools.combinations(range(n), 2):
            if self.meets_mask((1 << i) | (1 << j)):
                self.pair[i] |= 1 << j
                self.pair[j] |= 1 << i
        self.triple = {m for m in (
            (1 << i) | (1 << j) | (1 << k) for i, j, k in itertools.combinations(range(n), 3))
            if self.meets_mask(m)}

    def point(self, x, y) -> tuple[int, int, int]:
        """The homogeneous scaled form of a point given in input units."""
        x, y = Fraction(x) * self.scale, Fraction(y) * self.scale
        w = lcm(x.denominator, y.denominator)
        return _homogeneous(int(x * w), int(y * w), w)

    def pierced(self, point) -> int:
        mask = 0
        for k, body in enumerate(self.bodies):
            if body.contains(point):
                mask |= 1 << k
        return mask

    def meets_mask(self, subset: int) -> bool:
        return any(subset & m == subset for m in self.maximal)

    def meets(self, members) -> bool:
        members = list(members)
        for i, j in itertools.combinations(members, 2):
            if not self.pair[i] >> j & 1:
                return False
        return all((1 << i) | (1 << j) | (1 << k) in self.triple
                   for i, j, k in itertools.combinations(members, 3))

    def f_vector(self) -> list[int]:
        counts = [0] * self.n

        def extend(members: list[int], start: int) -> None:
            for j in range(start, self.n):
                if all(self.pair[i] >> j & 1 for i in members) and all(
                    (1 << a) | (1 << b) | (1 << j) in self.triple
                    for a, b in itertools.combinations(members, 2)
                ):
                    counts[len(members)] += 1
                    extend(members + [j], j + 1)

        extend([], 0)
        return counts


def _maximal_masks(masks) -> list[int]:
    ordered = sorted(masks, key=lambda m: -bin(m).count("1"))
    kept: list[int] = []
    for m in ordered:
        if not any(m & k == m for k in kept):
            kept.append(m)
    return kept


# ---------------------------------------------------------------------------
# 1D
# ---------------------------------------------------------------------------

class Nerve1D:
    """Intervals meet iff the largest left end is at most the smallest
    right end.  Endpoints are scaled to integers, as in the plane."""

    def __init__(self, intervals):
        self.scale = lcm(*(Fraction(c).denominator for iv in intervals for c in iv))
        self.iv = [(int(lo * self.scale), int(hi * self.scale)) for lo, hi in intervals]
        self.n = len(self.iv)

    def meets(self, members) -> bool:
        members = list(members)
        return max(self.iv[i][0] for i in members) <= min(self.iv[i][1] for i in members)

    def f_vector(self) -> list[int]:
        """A meeting k-set is counted once, at its member with the
        largest left end (ties: largest index); the other k-1 members
        are intervals holding that left end, earlier in that order."""
        counts = [0] * self.n
        order = sorted(range(self.n), key=lambda i: (self.iv[i][0], i))
        for pos, i in enumerate(order):
            lo = self.iv[i][0]
            m = sum(1 for j in order[:pos] if self.iv[j][1] >= lo)
            for k in range(1, self.n + 1):
                counts[k - 1] += binom(m, k - 1)
        return counts

    def depth(self, x) -> int:
        """How many intervals hold the point x, given in input units."""
        x = Fraction(x) * self.scale
        return sum(1 for lo, hi in self.iv if lo <= x <= hi)

    def max_depth(self) -> int:
        return max(sum(1 for lo, hi in self.iv if lo <= x <= hi) for x, _ in self.iv)


# ---------------------------------------------------------------------------
# Family properties
# ---------------------------------------------------------------------------

def binom(n: int, k: int) -> int:
    """C(n, k) from factorials; zero outside 0 <= k <= n."""
    if k < 0 or n < 0 or k > n:
        return 0
    return factorial(n) // (factorial(k) * factorial(n - k))


def kalai(p: int, q: int, s: int, d: int) -> int:
    """sum_{i=0}^{d} C(s, q-i) * C(p-s, i)."""
    return sum(binom(s, q - i) * binom(p - s, i) for i in range(d + 1))


def check_f_vector(got, nerve) -> list[int]:
    want = nerve.f_vector()
    require(list(got) == want, f"f_vector {list(got)} != independent {want}")
    return want


def check_kalai(fvec: list[int], d: int) -> None:
    """Kalai's bound: if no (d+s+1)-tuple meets, every f_{q-1} is at most
    kalai(n, q, s, d)."""
    n = len(fvec)
    for s in range(0, n - d):
        if fvec[d + s] != 0:
            continue
        for q in range(1, n + 1):
            bound = kalai(n, q, s, d)
            require(fvec[q - 1] <= bound,
                    f"f_{q - 1}={fvec[q - 1]} exceeds Kalai bound {bound} (s={s})")


def count_in(nerve, subset, q: int) -> int:
    return sum(1 for tup in itertools.combinations(subset, q) if nerve.meets(tup))


def check_max_r(max_r: int, witness, nerve, p: int, q: int,
                rng: random.Random, samples: int = 12) -> None:
    """The witness p-subset carries exactly max_r meeting q-tuples and no
    sampled p-subset carries fewer."""
    witness = tuple(witness)
    require(len(set(witness)) == p and all(0 <= i < nerve.n for i in witness),
            f"max_r witness {witness} is not a {p}-subset")
    got = count_in(nerve, witness, q)
    require(got == max_r, f"max_r({p},{q})={max_r} but its witness carries {got}")
    for _ in range(samples):
        subset = rng.sample(range(nerve.n), p)
        fewer = count_in(nerve, subset, q)
        require(fewer >= max_r, f"max_r({p},{q})={max_r} but {sorted(subset)} carries {fewer}")


def check_degeneracy_2d(level: int, point, nerve: Nerve2D) -> None:
    hit = bin(nerve.pierced(nerve.point(point.x, point.y))).count("1")
    require(hit == nerve.n - level, f"degeneracy point pierces {hit}, level says {nerve.n - level}")
    best = max(bin(m).count("1") for m in nerve.maximal)
    require(best == hit, "some point pierces more bodies than the degeneracy point")


def check_degeneracy_1d(level: int, point, nerve: Nerve1D) -> None:
    hit = nerve.depth(point)
    require(hit == nerve.n - level, f"degeneracy point pierces {hit}, level says {nerve.n - level}")
    require(nerve.max_depth() == hit, "some point pierces more intervals than the degeneracy point")


# ---------------------------------------------------------------------------
# Piercing
# ---------------------------------------------------------------------------

def check_pierces_1d(points, intervals) -> None:
    for lo, hi in intervals:
        require(any(lo <= x <= hi for x in points), f"interval [{lo}, {hi}] not pierced")


def check_pierces_2d(points, nerve: Nerve2D) -> None:
    """Every body holds one of the points (given in input units)."""
    covered = 0
    for x, y in points:
        covered |= nerve.pierced(nerve.point(x, y))
    missed = [k for k in range(nerve.n) if not covered >> k & 1]
    require(not missed, f"bodies {missed} not pierced")


def disjoint_packing_1d(intervals) -> int:
    """Largest set of pairwise disjoint intervals, by earliest right end."""
    count, last = 0, None
    for lo, hi in sorted(intervals, key=lambda iv: iv[1]):
        if last is None or lo > last:
            count, last = count + 1, hi
    return count


def check_min_piercing_1d(points, intervals) -> None:
    check_pierces_1d(points, intervals)
    packing = disjoint_packing_1d(intervals)
    require(len(points) == packing,
            f"1D piercing of size {len(points)} but a disjoint packing has {packing}")


def max_disjoint_packing(nerve: Nerve2D) -> int:
    """Largest pairwise disjoint subfamily, exhaustively."""
    best = 0

    def extend(size: int, allowed: int) -> None:
        nonlocal best
        best = max(best, size)
        if size + bin(allowed).count("1") <= best:
            return
        while allowed:
            j = allowed.bit_length() - 1
            allowed &= ~(1 << j)
            extend(size + 1, allowed & ~nerve.pair[j])

    extend(0, (1 << nerve.n) - 1)
    return best


def has_cover(masks: list[int], full: int, size: int) -> bool:
    """Whether ``size`` of the masks cover ``full``: branch on the lowest
    uncovered body over the masks containing it."""
    if full == 0:
        return True
    if size == 0:
        return False
    low = full & -full
    return any(has_cover(masks, full & ~m, size - 1) for m in masks if m & low)


def check_min_piercing_2d(points, nerve: Nerve2D) -> None:
    check_pierces_2d(points, nerve)
    k = len(points)
    if max_disjoint_packing(nerve) == k:
        return
    full = (1 << nerve.n) - 1
    require(not has_cover(nerve.maximal, full, k - 1),
            f"exact piercing of size {k} but {k - 1} candidate points suffice")


def check_ms_line(witness, nerve: Nerve2D) -> None:
    """Every body meeting both A and B meets the witness line."""
    a, b = witness.A_index, witness.B_index
    require(a != b, "ms_line pair is not two bodies")
    line = witness.line
    la, lb, lc = Fraction(line.a), Fraction(line.b), Fraction(line.c) * nerve.scale
    for k, body in enumerate(nerve.bodies):
        meets_a = k == a or nerve.pair[k] >> a & 1
        meets_b = k == b or nerve.pair[k] >> b & 1
        if meets_a and meets_b:
            require(body.meets_line(la, lb, lc), f"body {k} meets A={a} and B={b} but misses the line")


# ---------------------------------------------------------------------------
# Thresholds: the paper's closed forms
# ---------------------------------------------------------------------------

def ceil_pow(p: int, num: int, den: int) -> int:
    """Smallest integer m with m >= p^(num/den), i.e. m^den >= p^num."""
    return ceil_root(p ** num, den)


def ceil_root(x: int, k: int) -> int:
    """Smallest m >= 0 with m^k >= x, by bisection on the bit length."""
    lo, hi = 0, 1 << -(-x.bit_length() // k)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid ** k >= x:
            hi = mid
        else:
            lo = mid + 1
    return lo


def implied_r(p: int, q: int, d: int) -> int:
    """The paper's r = ceil(C(p,q) / p^(q/(2d))): smallest r with
    r^(2d) * p^q >= C(p,q)^(2d)."""
    c = binom(p, q)
    x = -(-(c ** (2 * d)) // p ** q)
    return ceil_root(x, 2 * d)


def expected_thresholds(args: dict) -> dict:
    """Every theorem's output as the paper's closed forms give it."""
    p, q, d = args["p"], args["q"], args["d"]
    out = {}
    ms = binom(p, q) - binom(p + 1 - d, q + 1 - d) + 1
    out["thm1"] = (ms, p - q + 1)
    eps = Fraction(args["epsilon"])
    e = Fraction(d - 1, d) + eps
    m = ceil_pow(p, e.numerator, e.denominator)
    if q > m:
        out["thm2"] = (kalai(p, q, q - d, d) + 1, p - q + 1)
    else:
        k = m - q
        out["thm2"] = (kalai(p, q, q + k - d - 1, d) + 1, p - (q + k) + 2)
    for key, k in (("thm3", args["k"]), ("thm3-top", p - q - 1)):
        target = (p - q - k - 1) * (p - q + k + 2) // 2 + 1
        m0 = 1
        while binom(m0 + 1, 2) < target:
            m0 += 1
        out[key] = (ms + binom(q - d - 2 + m0, q - d) + binom(q - d - 1 + m0, q - d + 1), k + 2)
    f = args["f"]
    out["lemma-r0"] = (kalai(p, q, p - f - d, d) + 1, f)
    out["remark"] = (kalai(p, q, p - f + 1 - d, d) + 1, f)
    out["kalai"] = kalai(p, q, args["s"], d)
    out["hd-region"] = p - q + 1 if d * q > (d - 1) * p + d else None
    return out


def check_thresholds(args: dict, outputs: dict) -> None:
    """Compare every CLI payload with the closed forms; thm3 at
    k = p-q-1 must equal thm1; implied-q's q' must be the largest value
    whose Kalai inequality r > kalai(p, q, q'-1-d, d) holds."""
    p, q, d, r = args["p"], args["q"], args["d"], args["r"]
    want = expected_thresholds(args)
    for key in ("thm1", "thm2", "thm3", "thm3-top", "lemma-r0", "remark"):
        got = outputs[key]
        threshold, pierce = want[key]
        require(int(got["threshold_r"]) == threshold and got["pierce_bound"] == pierce,
                f"{key}: got {got['threshold_r']}/{got['pierce_bound']}, "
                f"closed form {threshold}/{pierce}")
    require(want["thm3-top"][0] == want["thm1"][0], "closed forms: thm3 at k=p-q-1 != thm1")
    require(int(outputs["thm3-top"]["threshold_r"]) == int(outputs["thm1"]["threshold_r"]),
            "thm3 at k=p-q-1 differs from thm1")
    require(int(outputs["kalai"]["value"]) == want["kalai"], "kalai value differs")
    require(outputs["hd-region"]["piercing_number"] == want["hd-region"], "hd-region differs")
    qp = outputs["implied-q"]["q_prime"]
    require(q <= qp <= p, f"implied q' = {qp} outside [{q}, {p}]")
    if qp > q:
        require(r > kalai(p, q, qp - 1 - d, d), f"implied q' = {qp} not certified by r")
    if qp < p:
        require(r <= kalai(p, q, qp - d, d), f"implied q' = {qp} is not the largest")
