"""Extremal and seeded-random family constructions for the test suites.

Random families are fully determined by their spec (kind, parameters,
seed).  Coordinates live on a bounded rational grid so that pair
intersections keep modest bit-lengths.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import ArityError, BudgetExceededError, _number, _shown
from .family import Family
from .geometry import ConvexPolygon, Interval, Point

KINDS = ("extremal_dim1", "disjoint_plus_container", "random_intervals", "random_polygons")


@dataclass(frozen=True)
class GeneratorSpec:
    """Deterministic recipe for a family.

    ``kind`` selects the construction; the remaining fields are read per
    kind: extremal_dim1 uses (p, k); disjoint_plus_container uses
    (a, b, dimension); the random kinds use (n, seed, span, extent, grid,
    min_vertices, max_vertices).
    """

    kind: str
    p: int | None = None
    k: int | None = None
    a: int | None = None
    b: int | None = None
    dimension: int | None = None
    n: int | None = None
    seed: int = 0
    span: int = 12
    extent: int = 8
    grid: int = 4
    min_vertices: int = 3
    max_vertices: int = 8

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ArityError(f"unknown generator kind {_shown(self.kind)}")
        # random.Random(None) would seed from the OS, a new family per call
        if type(self.seed) is not int:
            raise ArityError(f"seed must be an int, got {_shown(self.seed)}")
        if self.grid < 1:  # coordinates are multiples of 1/grid
            raise ArityError(f"grid must be >= 1, got {_number(self.grid)}")
        # the least value of each range a random kind draws from
        lows = {"random_intervals": {"span": 0, "extent": 1},
                "random_polygons": {"span": 0, "extent": 0, "min_vertices": 1,
                                    "max_vertices": self.min_vertices}}
        for name, low in lows.get(self.kind, {}).items():
            if getattr(self, name) < low:
                raise ArityError(f"{name} must be >= {low}, got {_number(getattr(self, name))}")


def extremal_dim1(p: int, k: int) -> Family:
    """k+2 singleton intervals at 1..k+2 plus p-k-2 copies of [0, k+3].

    The family that shows the 1D threshold is tight: it carries one less
    than the threshold count of intersecting q-tuples yet needs k+2
    points.  p = k+2 is allowed and yields only the singletons.
    """
    if not p >= k + 2 >= 2:
        raise ArityError(f"need p >= k+2 >= 2, got p={p}, k={k}")
    singletons = [Interval(i, i) for i in range(1, k + 3)]
    container = Interval(0, k + 3)
    return Family(1, tuple(singletons + [container] * (p - k - 2)))


def disjoint_plus_container(a: int, b: int, dimension: int) -> Family:
    """a pairwise-disjoint unit bodies inside one big body, plus b copies
    of the big body."""
    if a < 0 or b < 0 or a + b < 1:
        raise ArityError(f"need a, b >= 0 and a+b >= 1, got a={a}, b={b}")
    if dimension == 1:
        small = [Interval(2 * i, 2 * i + 1) for i in range(a)]
        big = Interval(0, max(2 * a - 1, 1))
        return Family(1, tuple(small + [big] * b))
    if dimension == 2:
        def box(x0, x1):  # the rectangle [x0, x1] x [0, 1]
            return ConvexPolygon.from_points([Point(x, y) for x in (x0, x1) for y in (0, 1)])

        small = [box(2 * i, 2 * i + 1) for i in range(a)]
        return Family(2, tuple(small + [box(0, max(2 * a - 1, 1))] * b))
    raise ArityError(f"dimension must be 1 or 2, got {dimension}")


def _grid_fraction(rng: random.Random, lo: int, hi: int, grid: int) -> Fraction:
    return Fraction(rng.randint(lo * grid, hi * grid), grid)


def random_family(spec: GeneratorSpec) -> Family:
    """Deterministic pseudo-random family drawn from the spec."""
    if spec.kind == "extremal_dim1":
        if spec.p is None or spec.k is None:
            raise ArityError(f"extremal_dim1 needs p and k, got p={spec.p}, k={spec.k}")
        return extremal_dim1(spec.p, spec.k)
    if spec.kind == "disjoint_plus_container":
        if spec.a is None or spec.b is None:
            raise ArityError(f"disjoint_plus_container needs a and b, got a={spec.a}, b={spec.b}")
        return disjoint_plus_container(spec.a, spec.b, spec.dimension)
    if spec.n is None or spec.n < 1:
        raise ArityError(f"random kinds need n >= 1, got {spec.n}")
    rng = random.Random(spec.seed)
    if spec.kind == "random_intervals":
        bodies = []
        for _ in range(spec.n):
            lo = _grid_fraction(rng, 0, spec.span, spec.grid)
            length = _grid_fraction(rng, 1, spec.extent, spec.grid)
            bodies.append(Interval(lo, lo + length))
        return Family(1, tuple(bodies))
    # random_polygons: convex hulls of small grid-point samples
    bodies = []
    for _ in range(spec.n):
        cx = rng.randint(0, spec.span)
        cy = rng.randint(0, spec.span)
        count = rng.randint(spec.min_vertices, spec.max_vertices)
        pts = [
            Point(
                Fraction(cx) + _grid_fraction(rng, -spec.extent, spec.extent, spec.grid) / 2,
                Fraction(cy) + _grid_fraction(rng, -spec.extent, spec.extent, spec.grid) / 2,
            )
            for _ in range(count)
        ]
        bodies.append(ConvexPolygon.from_points(pts))
    return Family(2, tuple(bodies))


def sample_until(spec: GeneratorSpec, predicate, max_tries: int = 200) -> Family:
    """Resample with consecutive seeds until the predicate accepts a
    family; raises BudgetExceededError after max_tries rejections."""
    from dataclasses import replace

    for attempt in range(max_tries):
        fam = random_family(replace(spec, seed=spec.seed + attempt))
        if predicate(fam):
            return fam
    raise BudgetExceededError(
        f"no accepted family within {max_tries} tries from seed {spec.seed}"
    )
