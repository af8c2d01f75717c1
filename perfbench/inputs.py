"""Seeded inputs for the benchmark.

Every input comes from ``random.Random`` streams named after the workload,
the seed and the operation index, never from ``pqpierce.generators``, so
no change to the program can alter what the benchmark feeds it.
Coordinates have small denominators, so the exact arithmetic under test
stays at the sizes the workloads were tuned for.

The functions here return plain Python data (tuples of Fractions); the
workloads turn it into program objects with the program's constructors,
which is part of the measured set-up.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb


def stream(workload: str, seed: int, tag: str) -> random.Random:
    """An independent generator for one named input of one run."""
    return random.Random(f"{workload}/{seed}/{tag}")


def radical_inverse(n: int, base: int) -> float:
    """The n-th term of the van der Corput sequence in the given base:
    its first m terms spread evenly over [0, 1) for every m."""
    out, scale = 0.0, 1.0 / base
    while n:
        n, digit = divmod(n, base)
        out += digit * scale
        scale /= base
    return out


# ---------------------------------------------------------------------------
# 1D
# ---------------------------------------------------------------------------

def dense_intervals(rng: random.Random, n: int) -> list[tuple[Fraction, Fraction]]:
    """n long intervals over [0, 100]: interval i has its centre in the
    i-th of n equal cells and the i-th of n evenly spaced half-lengths
    from 15 to 35 (both jittered), in shuffled order.  Every family then
    has the same depth profile up to the jitter, so the work of an
    operation varies little with the seed."""
    halves = [15 + Fraction(20 * i, n) + Fraction(rng.randrange(0, 4), 2) for i in range(n)]
    rng.shuffle(halves)
    out = []
    for i, half in enumerate(halves):
        center = Fraction(100 * i + rng.randrange(0, 100), n)
        out.append((center - half, center + half))
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# 2D
# ---------------------------------------------------------------------------

def _ring_offset(rng: random.Random, quadrant: int, r_in: int, r_out: int) -> tuple[int, int]:
    """An integer offset in the quadrant with r_in <= |v| <= r_out, at
    an angle of 26.6 to 63.4 degrees (y <= 2x and x <= 2y) to its axes,
    so the body's edges keep a distance of at least 0.45 * r_in from
    its centre."""
    sx = 1 if quadrant in (0, 3) else -1
    sy = 1 if quadrant in (0, 1) else -1
    while True:
        x, y = rng.randrange(1, r_out + 1), rng.randrange(1, r_out + 1)
        if r_in * r_in <= x * x + y * y <= r_out * r_out and y <= 2 * x and x <= 2 * y:
            return sx * x, sy * y


def polygon_around(rng: random.Random, cx, cy, r_in: int, r_out: int,
                   extra: int = 1) -> list[tuple[Fraction, Fraction]]:
    """Vertices of a convex body holding (cx, cy) in its interior: one
    point in each open quadrant around the centre (so the centre lies
    inside their hull) plus up to ``extra`` more."""
    pts = []
    for quadrant in range(4):
        dx, dy = _ring_offset(rng, quadrant, r_in, r_out)
        pts.append((Fraction(cx) + dx, Fraction(cy) + dy))
    for _ in range(rng.randrange(0, extra + 1)):
        dx, dy = _ring_offset(rng, rng.randrange(4), r_in, r_out)
        pts.append((Fraction(cx) + dx, Fraction(cy) + dy))
    return pts


def dense_polygons(rng: random.Random, n: int) -> list[list[tuple[Fraction, Fraction]]]:
    """n - 1 bodies of radius 9 to 16 with centres within 2 of the
    origin, and one body 40 to the right of them.  Each body holds the
    disc of radius 4 around its centre (see ``_ring_offset``), so the
    n - 1 all hold the origin: every subfamily of them meets, clipping
    chains run n - 1 deep, and the far body meets none.  The nerve is the
    same in every family, so only the shapes vary with the seed.  Bodies
    have four vertices."""
    out = [polygon_around(rng, rng.randrange(-2, 3), rng.randrange(-2, 3), 9, 16, extra=0)
           for i in range(n - 1)]
    out.append(polygon_around(rng, 40, rng.randrange(-10, 11), 9, 16, extra=0))
    rng.shuffle(out)
    return out


def clustered_polygons(rng: random.Random, clusters: int, per_cluster: int):
    """Bodies in ``clusters`` groups on a jittered grid with spacing 40;
    bodies of one group mostly meet, neighbouring groups sometimes do."""
    out = []
    cols = 3
    for c in range(clusters):
        gx, gy = 40 * (c % cols), 40 * (c // cols)
        for _ in range(per_cluster):
            cx = gx + rng.randrange(-8, 9)
            cy = gy + rng.randrange(-8, 9)
            out.append(polygon_around(rng, cx, cy, 6, 14))
    rng.shuffle(out)
    return out


def hd_family(rng: random.Random, core: int, outliers: int):
    """``core`` bodies through one common point plus ``outliers`` bodies
    placed anywhere: every p-subset holds p - outliers bodies through the
    common point, so the (p, q) property holds for q <= p - outliers."""
    px, py = rng.randrange(-3, 4), rng.randrange(-3, 4)
    out = [polygon_around(rng, px, py, 8, 14) for _ in range(core)]
    for _ in range(outliers):
        cx, cy = rng.randrange(-60, 61), rng.randrange(-60, 61)
        out.append(polygon_around(rng, cx, cy, 4, 10))
    rng.shuffle(out)
    return out


def line_family(rng: random.Random, groups: int, per_group: int, missing: int):
    """A line a*x + b*y = c, bodies in ``groups`` groups each through a
    common point of the line, and ``missing`` bodies strictly off it.

    Returns (line coefficients, bodies, group sizes)."""
    a, b = rng.randrange(-3, 4), rng.randrange(1, 4)
    c = rng.randrange(-10, 11)
    # points on the line: x = t, y = (c - a t) / b
    xs = sorted(rng.sample(range(-40, 41, 20), groups))
    bodies = []
    for x in xs:
        px, py = Fraction(x), Fraction(c - a * x, b)
        for _ in range(per_group):
            bodies.append(polygon_around(rng, px, py, 4, 9))
    for _ in range(missing):
        # 60 above the line: a body of radius 9 then has
        # a*x + b*y - c >= -3*9 + 1*(60 - 9) > 0 at every vertex
        x = rng.randrange(-40, 41)
        px, py = Fraction(x), Fraction(c - a * x, b) + 60
        bodies.append(polygon_around(rng, px, py, 4, 9))
    rng.shuffle(bodies)
    return (a, b, c), bodies, [per_group] * groups


def min_line_pairs(p: int, group_sizes: list[int], missing: int) -> int:
    """Fewest same-group pairs any p-subset of a line family can hold:
    the subset takes every missing body, then spreads the rest as evenly
    as the groups allow (the pair count is convex in each group)."""
    take = [0] * len(group_sizes)
    left = p - min(p, missing)
    while left:
        i = min((i for i in range(len(take)) if take[i] < group_sizes[i]),
                key=lambda i: take[i])
        take[i] += 1
        left -= 1
    return sum(comb(t, 2) for t in take)
