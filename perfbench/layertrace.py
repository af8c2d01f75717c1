"""Per-layer spans, recorded by wrapping the program's public functions.

``Tracer.install`` replaces module attributes of ``pqpierce`` at run time
(including the names ``family`` and ``piercing`` import from ``geometry``,
and methods of the geometry classes) with wrappers that record a span:
name, operation id, parent span, start and end on the process CPU clock.
No file of the program changes, and ``uninstall`` puts every original
back.  Spans stay in memory until ``write``; a span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import time
from array import array

from pqpierce import bounds, cli, family, geometry, piercing

_THRESHOLDS = ("ms_threshold", "thm2_threshold", "thm3_threshold", "lemma_r0_threshold",
               "remark_threshold", "dim1_threshold", "hd_exact_region")

#: span name -> the (owner, attribute) pairs it wraps; ``install`` fails
#: if the program no longer has one, so the benchmark moves with it.
TARGETS = {
    "geometry.intersect": [(m, "intersect_bodies") for m in (geometry, family, piercing)],
    "geometry.hull": [(geometry, "convex_hull")],
    "geometry.polygon_init": [(geometry.ConvexPolygon, "__post_init__")],
    "geometry.contains": [(geometry.ConvexPolygon, "contains"), (geometry.Interval, "contains")],
    "geometry.separating_line": [(geometry, "separating_line"), (piercing, "separating_line")],
    "family.max_r": [(family, "max_r")],
    "family.f_vector": [(family, "f_vector")],
    "family.degeneracy": [(family, "degeneracy_level")],
    "family.through_line": [(family, "satisfies_pqr_through_line")],
    "family.count_qtuples": [(family, "count_intersecting_qtuples")],
    "piercing.candidate_points": [(piercing, "candidate_points")],
    "piercing.min_piercing": [(piercing, "min_piercing")],
    "piercing.hd_pierce": [(piercing, "hd_pierce")],
    "piercing.ms_line": [(piercing, "ms_line")],
    "piercing.line_pierce": [(piercing, "line_pierce")],
    "cli.main": [(cli, "main")],
    "cli.load_family": [(cli, "load_family")],
    "bounds.implied_q": [(bounds, "implied_q")],
    "bounds.kalai_bound": [(bounds, "kalai_bound")],
    "bounds.threshold": [(bounds, name) for name in _THRESHOLDS] + [(piercing, "dim1_threshold")],
}

#: (metric, unit, better); "calls" and "self_ms" read span totals.
METRICS = [
    ("geometry.intersect_calls", "count", "lower"),
    ("geometry.intersect_self_ms", "ms", "lower"),
    ("geometry.intersect_nonempty_ratio", "ratio", "higher"),
    ("geometry.hull_calls", "count", "lower"),
    ("geometry.hull_self_ms", "ms", "lower"),
    ("geometry.polygon_init_calls", "count", "lower"),
    ("geometry.polygon_init_self_ms", "ms", "lower"),
    ("geometry.contains_calls", "count", "lower"),
    ("geometry.contains_self_ms", "ms", "lower"),
    ("geometry.separating_line_self_ms", "ms", "lower"),
    ("family.max_r_calls", "count", "lower"),
    ("family.max_r_self_ms", "ms", "lower"),
    ("family.f_vector_self_ms", "ms", "lower"),
    ("family.degeneracy_self_ms", "ms", "lower"),
    ("family.through_line_self_ms", "ms", "lower"),
    ("family.count_qtuples_self_ms", "ms", "lower"),
    ("piercing.candidate_points_calls", "count", "lower"),
    ("piercing.candidate_points_self_ms", "ms", "lower"),
    ("piercing.candidates_returned", "count", "lower"),
    ("piercing.min_piercing_self_ms", "ms", "lower"),
    ("piercing.hd_pierce_self_ms", "ms", "lower"),
    ("piercing.hd_max_r_calls", "count", "lower"),
    ("piercing.ms_line_self_ms", "ms", "lower"),
    ("piercing.line_pierce_self_ms", "ms", "lower"),
    ("cli.main_calls", "count", "lower"),
    ("cli.main_self_ms", "ms", "lower"),
    ("cli.load_family_self_ms", "ms", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("bounds.implied_q_self_ms", "ms", "lower"),
    ("bounds.kalai_bound_calls", "count", "lower"),
    ("bounds.kalai_bound_self_ms", "ms", "lower"),
    ("bounds.threshold_self_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


def clear_caches() -> None:
    """Empty the program's memo of q-tuple sets, so that two passes over
    the same operations do the same work."""
    family._intersecting_qtuples.cache_clear()


class Tracer:
    def __init__(self):
        self.names = list(TARGETS)
        self.name_ids = {name: i for i, name in enumerate(self.names)}
        self.name = array("b")
        self.op = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.self_ns = array("q")
        self.stack: list[list[int]] = []  # [span index, children's ns]
        self.current_op = -1
        self.nonempty = 0
        self.candidates = 0
        self.saved: list[tuple] = []

    def begin_op(self, op_id: int) -> None:
        """Label the spans recorded from now on with this operation."""
        self.current_op = op_id

    def _wrap(self, span: str, fn):
        name_id = self.name_ids[span]
        count_nonempty = span == "geometry.intersect"
        count_candidates = span == "piercing.candidate_points"
        # the hull that ConvexPolygon.__post_init__ rebuilds is its
        # canonical check: it stays in polygon_init's self time
        fold_under = self.name_ids["geometry.polygon_init"] if span == "geometry.hull" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if fold_under is not None and self.stack and self.name[self.stack[-1][0]] == fold_under:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name.append(name_id)
            self.op.append(self.current_op)
            self.parent.append(self.stack[-1][0] if self.stack else -1)
            self.end.append(0)
            self.self_ns.append(0)
            frame = [idx, 0]
            self.stack.append(frame)
            start = time.process_time_ns()
            self.start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.process_time_ns()
                self.stack.pop()
                self.end[idx] = end
                self.self_ns[idx] = end - start - frame[1]
                if self.stack:
                    self.stack[-1][1] += end - start
            if count_nonempty and result is not None:
                self.nonempty += 1
            if count_candidates:
                self.candidates += len(result)
            return result

        return wrapper

    def install(self) -> None:
        for span, owners in TARGETS.items():
            for owner, attr in owners:
                original = owner.__dict__.get(attr)
                if original is None:
                    self.uninstall()
                    raise AttributeError(f"{span}: the program has no {owner.__name__}.{attr}")
                self.saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(span, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()

    def metrics(self, output_bytes: int) -> dict:
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for name_id, ns in zip(self.name, self.self_ns):
            calls[name_id] += 1
            self_ns[name_id] += ns
        maxr = self.name_ids["family.max_r"]
        hd = self.name_ids["piercing.hd_pierce"]
        hd_max_r = sum(1 for i, name_id in enumerate(self.name)
                       if name_id == maxr and self.parent[i] >= 0 and self.name[self.parent[i]] == hd)
        values = {}
        for i, name in enumerate(self.names):
            values[name + "_calls"] = calls[i]
            values[name + "_self_ms"] = self_ns[i] / 1e6
        intersects = calls[self.name_ids["geometry.intersect"]]
        values["geometry.intersect_nonempty_ratio"] = self.nonempty / intersects if intersects else 0.0
        values["piercing.candidates_returned"] = self.candidates
        values["piercing.hd_max_r_calls"] = hd_max_r
        values["cli.output_bytes"] = output_bytes
        return {name: (values[name], unit) for name, unit, _ in METRICS if name in values}

    def write(self, path: str) -> None:
        """The spans as gzip-compressed CSV, one line per span."""
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("span,name,op,parent,start_ns,end_ns,self_ns\n")
            for i in range(len(self.start)):
                handle.write(f"{i},{self.names[self.name[i]]},{self.op[i]},{self.parent[i]},"
                             f"{self.start[i]},{self.end[i]},{self.self_ns[i]}\n")
