"""The four workloads: how each builds its inputs, runs one operation
and checks the operation's output.

An operation is built from its own seeded stream (``inputs.stream``), so
operation ``i`` of a run is the same whatever was built before it.  The
operations of a run come in rounds: slot ``i % len(SLOTS)`` fixes the
shape of operation ``i`` (its size, strategy or parameter stratum), so
every run has the same mix of shapes and only the random placement
changes with the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction
from math import comb

import checks
import inputs
from pqpierce import cli, family, geometry, piercing


class Op:
    """One operation: the benchmark's plain data, the program objects
    built from it, and what ``run`` returned."""

    __slots__ = ("index", "slot", "data", "built")

    def __init__(self, index: int, slot, data, built):
        self.index, self.slot, self.data, self.built = index, slot, data, built


class Failed(Exception):
    """The program refused a valid input: a failed operation."""


def _family_1d(intervals):
    return family.Family(1, tuple(geometry.Interval(lo, hi) for lo, hi in intervals))


def _family_2d(bodies):
    return family.Family(2, tuple(
        geometry.ConvexPolygon.from_points([geometry.Point(x, y) for x, y in body])
        for body in bodies))


def _key_2d(bodies):
    """Equal keys for equal families: each body as the checker's own hull."""
    return tuple(tuple(checks.hull(body)) for body in bodies)


def _rat(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value.numerator)


def _write_document(path: str, bodies) -> None:
    """A family document written by the benchmark itself, in the format
    the CLI documents (vertices in generation order, not canonical)."""
    doc = {
        "format_version": "1",
        "dimension": 2,
        "bodies": [{"type": "polygon", "vertices": [[_rat(x), _rat(y)] for x, y in body]}
                   for body in bodies],
    }
    with open(path, "w") as handle:
        json.dump(doc, handle)


def _cli(argv: list[str]) -> str:
    """One in-process CLI call; a nonzero exit is a failed operation."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise Failed(f"exit {code}: {out.getvalue().strip()}")
    return out.getvalue()


class Workload:
    """Base: subclasses set SLOTS and the rates, and implement
    make/program_input/run/check."""

    name = ""
    SLOTS: tuple = ()
    #: whole rounds a timed run completes per second of --seconds today
    ROUNDS_PER_SECOND: float
    #: rounds per second of --seconds in a traced run, which runs every
    #: operation twice and so lasts about half of --seconds
    TRACE_ROUNDS_PER_SECOND: float

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.seen: set = set()

    def plan(self, index: int, tag: str = "op") -> Op:
        """Operation ``index`` as plain data: the benchmark's own work
        (drawing, family documents, derived arguments), done outside
        every timer.  A family equal to one already planned in this run
        is redrawn, so no answer can be carried over by a cache keyed on
        the family."""
        slot = self.SLOTS[index % len(self.SLOTS)]
        # warm-up inputs do not depend on the seed, so set-up does the
        # same work in every run
        seed = self.seed if tag == "op" else "warm"
        attempt = 0
        while True:
            rng = inputs.stream(self.name, seed, f"{tag}{index}.{attempt}")
            data, key = self.make(rng, slot, f"{tag}{index}", index // len(self.SLOTS), seed)
            if key not in self.seen:
                self.seen.add(key)
                return Op(index, slot, data, None)
            attempt += 1

    def construct(self, op: Op) -> Op:
        """Build the operation's program objects with the program's own
        constructors: the part of making an input that set-up times."""
        op.built = self.program_input(op)
        return op

    def build(self, index: int, tag: str = "op") -> Op:
        return self.construct(self.plan(index, tag))

    def bytes_out(self, result) -> int:
        return 0


# ---------------------------------------------------------------------------

class Analyze1D(Workload):
    """Dense interval families: the (p,q) grid of max_r, the f-vector,
    the degeneracy level and the exact 1D piercing."""

    name = "analyze-1d"
    # one size only: with n = 13, 14 and 15 in a round the median fell
    # between the sizes' clusters of operation times and moved with them
    SLOTS = (14,)
    ROUNDS_PER_SECOND, TRACE_ROUNDS_PER_SECOND = 12.0, 1.5
    GRID = ((6, 2), (6, 3), (7, 2), (7, 3))

    def make(self, rng, n, tag, round_no, seed):
        data = inputs.dense_intervals(rng, n)
        return data, tuple(data)

    def program_input(self, op):
        return _family_1d(op.data)

    def run(self, op):
        F = op.built
        reports = [family.max_r(F, p, q) for p, q in self.GRID]
        return reports, family.f_vector(F), family.degeneracy_level(F), piercing.min_piercing(F)

    def check(self, op, result):
        reports, fvec, (level, point), pierced = result
        nerve = checks.Nerve1D(op.data)
        rng = random.Random(op.index)
        for (p, q), rep in zip(self.GRID, reports):
            checks.check_max_r(rep.max_r, rep.witness_subset, nerve, p, q, rng)
        want = checks.check_f_vector(fvec, nerve)
        checks.check_kalai(want, 1)
        checks.check_degeneracy_1d(level, point, nerve)
        checks.check_min_piercing_1d(pierced.points, op.data)


class Analyze2D(Workload):
    """Dense polygon families: max_r(5,3), the 4-tuple count, the
    f-vector and the degeneracy level; clipping chains five deep."""

    name = "analyze-2d"
    SLOTS = (6,)
    ROUNDS_PER_SECOND, TRACE_ROUNDS_PER_SECOND = 5.5, 1.0
    P, Q, COUNT_Q = 5, 3, 4

    def make(self, rng, n, tag, round_no, seed):
        data = inputs.dense_polygons(rng, n)
        return data, _key_2d(data)

    def program_input(self, op):
        return _family_2d(op.data)

    def run(self, op):
        F = op.built
        return (family.max_r(F, self.P, self.Q), family.count_intersecting_qtuples(F, self.COUNT_Q),
                family.f_vector(F), family.degeneracy_level(F))

    def check(self, op, result):
        report, count, fvec, (level, point) = result
        nerve = checks.Nerve2D(op.data)
        checks.check_max_r(report.max_r, report.witness_subset, nerve, self.P, self.Q,
                           random.Random(op.index))
        want = checks.check_f_vector(fvec, nerve)
        checks.require(count == want[self.COUNT_Q - 1],
                       f"{self.COUNT_Q}-tuple count {count} != {want[self.COUNT_Q - 1]}")
        checks.check_kalai(want, 2)
        checks.check_degeneracy_2d(level, point, nerve)


# ---------------------------------------------------------------------------

def _dim1_r0(p: int, k: int) -> int:
    """The tight 1D (p,2) threshold r0 = C(p-k-2, 2) + (k+2)(p-k-2) + 1."""
    m = p - k - 2
    return comb(m, 2) + (k + 2) * m + 1


class Pierce2D(Workload):
    """CLI pierce calls (exact on clustered families, hd and line on
    families built so that the strategy's premise holds) and library
    ms_line calls on pairwise-meeting and on sparse families."""

    name = "pierce-2d"
    SLOTS = ("exact4", "exact5", "hd", "line", "ms_meet", "ms_sparse")
    ROUNDS_PER_SECOND, TRACE_ROUNDS_PER_SECOND = 2.0, 0.3
    HD_P, HD_Q, HD_CORE, HD_OUT = 7, 5, 6, 2
    LINE_P, LINE_GROUPS, LINE_PER, LINE_MISSING = 6, 3, 3, 1

    def make(self, rng, slot, tag, round_no, seed):
        if slot.startswith("ms"):
            if slot == "ms_meet":
                bodies = inputs.hd_family(rng, 7, 0)
            else:
                bodies = inputs.clustered_polygons(rng, 4, 2)
            return {"bodies": bodies}, _key_2d(bodies)
        if slot.startswith("exact"):
            bodies = inputs.clustered_polygons(rng, int(slot[-1]), 2)
            argv_tail = ["--strategy", "exact"]
            data = {"bodies": bodies}
        elif slot == "hd":
            bodies = inputs.hd_family(rng, self.HD_CORE, self.HD_OUT)
            argv_tail = ["--strategy", "hd", "--p", str(self.HD_P), "--q", str(self.HD_Q)]
            data = {"bodies": bodies}
        else:
            (a, b, c), bodies, groups = inputs.line_family(
                rng, self.LINE_GROUPS, self.LINE_PER, self.LINE_MISSING)
            pairs = inputs.min_line_pairs(self.LINE_P, groups, self.LINE_MISSING)
            k = next(k for k in range(self.LINE_MISSING, self.LINE_P - 1)
                     if _dim1_r0(self.LINE_P, k) <= pairs)
            # "--line=..." because argparse reads a value that starts with
            # "-" and is not a plain number as an option name
            argv_tail = ["--strategy", "line", "--p", str(self.LINE_P), "--k", str(k),
                         f"--line={a},{b},{c}"]
            data = {"bodies": bodies, "k": k, "line": (a, b, c)}
        path = os.path.join(self.workdir, f"{self.name}-{self.seed}-{tag}.json")
        _write_document(path, bodies)
        data["argv"] = ["pierce", path] + argv_tail
        return data, _key_2d(bodies)

    def program_input(self, op):
        # a CLI call parses its document while it is timed
        if op.slot.startswith("ms"):
            return _family_2d(op.data["bodies"])
        return op.data["argv"]

    def run(self, op):
        if op.slot.startswith("ms"):
            return piercing.ms_line(op.built)
        return _cli(op.built)

    def bytes_out(self, result) -> int:
        return len(result) if isinstance(result, str) else 0

    def check(self, op, result):
        nerve = checks.Nerve2D(op.data["bodies"])
        if op.slot.startswith("ms"):
            checks.check_ms_line(result, nerve)
            return
        payload = json.loads(result)
        points = [(Fraction(x), Fraction(y)) for x, y in payload["points"]]
        checks.require(payload["size"] == len(points), "size field differs from point count")
        if op.slot.startswith("exact"):
            checks.check_min_piercing_2d(points, nerve)
        elif op.slot == "hd":
            checks.check_pierces_2d(points, nerve)
            checks.require(len(points) <= self.HD_P - self.HD_Q + 1,
                           f"hd used {len(points)} > p-q+1 points")
        else:
            checks.check_pierces_2d(points, nerve)
            checks.require(len(points) <= op.data["k"] + 1,
                           f"line used {len(points)} > k+1 points")


# ---------------------------------------------------------------------------

class Thresholds(Workload):
    """Every bounds theorem at one (p, q, d) through the CLI, p from 100
    to 2000, q from 2p/5 to 3p/5, d in {2, 3}."""

    name = "thresholds"
    #: ten log-spaced p bins from 100 to 2000, each with d = 2 and d = 3:
    #: the round covers the p range evenly, so the seed moves each
    #: operation's cost only within its narrow bin
    BINS = tuple(round(100 * 20 ** (i / 10)) for i in range(11))
    SLOTS = tuple((lo, hi, d) for lo, hi in zip(BINS, BINS[1:]) for d in (2, 3))
    ROUNDS_PER_SECOND, TRACE_ROUNDS_PER_SECOND = 0.8, 0.12
    EPSILONS = (Fraction(1, 10), Fraction(1, 8), Fraction(1, 6))

    def make(self, rng, slot, tag, round_no, seed):
        # p and q/p run through their bins by a shifted van der Corput
        # sequence over the rounds, so any number of rounds spreads them
        # evenly; the seed picks the shift
        lo, hi, d = slot
        shift = inputs.stream(self.name, seed, f"shift{slot}")
        u = (inputs.radical_inverse(round_no, 2) + shift.random()) % 1
        v = (inputs.radical_inverse(round_no, 3) + shift.random()) % 1
        p = lo + int(u * (hi - lo))
        q = round(p * (2 + v) / 5)
        eps = rng.choice(self.EPSILONS)
        e = Fraction(d - 1, d) + eps
        m = checks.ceil_pow(p, e.numerator, e.denominator)
        args = {
            "p": p, "q": q, "d": d, "epsilon": str(eps),
            "k": rng.randrange(0, p - q),
            "f": rng.randrange(1, min(p // d - 1, p - m + 2) + 1),
            "s": rng.randrange(q - d, p + 1),
            "r": checks.implied_r(p, q, d),
        }
        base = ["bounds", None, "--p", str(p), "--q", str(q), "--d", str(d)]
        calls = {
            "thm1": [],
            "thm2": ["--epsilon", args["epsilon"]],
            "thm3": ["--k", str(args["k"])],
            "thm3-top": ["--k", str(p - q - 1)],
            "lemma-r0": ["--f", str(args["f"])],
            "remark": ["--f", str(args["f"]), "--epsilon", args["epsilon"]],
            "kalai": ["--s", str(args["s"])],
            "hd-region": [],
            "implied-q": ["--r", str(args["r"])],
        }
        argvs = []
        for key, extra in calls.items():
            argv = list(base) + extra
            argv[1] = "thm3" if key == "thm3-top" else key
            argvs.append((key, argv))
        # no family, so nothing for a cache to carry over
        return {"args": args, "argvs": argvs}, tag

    def program_input(self, op):
        return op.data["argvs"]  # the CLI parses its arguments while it is timed

    def run(self, op):
        return {key: _cli(argv) for key, argv in op.built}

    def bytes_out(self, result) -> int:
        return sum(len(text) for text in result.values())

    def check(self, op, result):
        outputs = {key: json.loads(text) for key, text in result.items()}
        checks.check_thresholds(op.data["args"], outputs)


WORKLOADS = {cls.name: cls for cls in (Analyze1D, Analyze2D, Pierce2D, Thresholds)}
