"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload analyze-2d --seed 1 --seconds 25 --trace 0

Run from the root of a checkout: the program is imported from ``src``.
With ``--trace 0`` the operations are timed on the process CPU clock,
scaled to a reference speed (see ``reference_ms``), and the end-to-end
metrics are printed; with ``--trace 1`` a fixed number of
operations runs once untraced and once traced, and the per-layer
metrics are printed.  See README.md in this directory.
"""

import time

_T0 = time.process_time()  # set-up is counted from here, before any other import

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
from fractions import Fraction
from math import comb

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

MIN_OPS = 100     # so that ten samples lie beyond the 90th percentile
SETUP_REPEATS = 5
WARMUP_OPS = 6    # one operation of each of the first slots of a round
#: CPU ms of ``reference_work`` at the reference speed: every timing is
#: reported as if the machine ran that work in exactly this time
REFERENCE_MS = 2.5
#: reference samples on each side of an operation that set its scale
REFERENCE_WINDOW = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", choices=("last", "none"), default="last",
                        help="pin this process to one CPU (default: the last one allowed)")
    return parser.parse_args(argv)


def pin(mode: str) -> None:
    if mode == "none" or not hasattr(os, "sched_setaffinity"):
        return
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def reference_work():
    """Fixed work that uses nothing of the program: Fraction and small-int
    arithmetic, tuples, a dict, a sort, and a big binomial's decimal
    string, the kinds of work the program does.  It takes about 2.5 ms."""
    acc, table = Fraction(0), {}
    for i in range(6):
        for j in range(1, 12):
            x = Fraction(i * 7 + j, j + 3)
            acc += x * x - Fraction(j, 5)
            table[i, j] = (x, i - j)
            if x < acc:
                acc -= Fraction(1, j)
        acc += sorted(table.values())[len(table) // 2][0]
    big = comb(3000, 1500)
    return acc, len(str(big * big))


def reference_ms() -> float:
    """CPU ms of one ``reference_work``.  On a shared virtual machine the
    CPU time of fixed work drifts by a third or more over seconds and
    minutes (the host's steal time is partly charged to the process, and
    a busy sibling core slows it), and the drift falls alike on the
    program and on this work run next to it.  A time t measured where
    this work took c ms is reported as t * REFERENCE_MS / c."""
    start = time.process_time_ns()
    reference_work()
    return (time.process_time_ns() - start) / 1e6


def scales(refs):
    """Scale of operation i, which ran between refs[i] and refs[i + 1]:
    REFERENCE_MS over the median of the REFERENCE_WINDOW samples on each
    side of it."""
    w = REFERENCE_WINDOW
    return [REFERENCE_MS / statistics.median(refs[max(0, i - w + 1):i + w + 1])
            for i in range(len(refs) - 1)]


def quantile(values, share):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def plan_pool(wl, count: int):
    wl.seen.clear()
    return [wl.plan(i) for i in range(count)]


def warm_up(wl, ops) -> None:
    for op in ops:
        execute(wl, wl.construct(op))


def execute(wl, op):
    """Run one operation; (result or None, CPU ns, wall ns, failed?)."""
    wall = time.perf_counter_ns()
    start = time.process_time_ns()
    try:
        result = wl.run(op)
        failed = False
    except Exception as exc:  # the program refused or broke: a failed operation
        print(f"failed op {op.index} ({op.slot}): {type(exc).__name__}: {exc}", file=sys.stderr)
        result, failed = None, True
    return result, time.process_time_ns() - start, time.perf_counter_ns() - wall, failed


def timed_run(wl, args, setup_start):
    """Set-up (repeated, median reported), then whole rounds until
    --seconds of wall time have passed and at least MIN_OPS ran.  The
    input pool holds 1.5 times the rounds a run does at today's speed;
    a faster program draws further rounds, built outside the timer.
    Set-up times the imports, the program's constructors and the
    warm-up; the benchmark's own input drawing is planned untimed."""
    rounds = len(wl.SLOTS)
    min_rounds = -(-MIN_OPS // rounds)
    pool_rounds = max(min_rounds, int(1.5 * args.seconds * wl.ROUNDS_PER_SECOND))
    import_s = time.process_time() - setup_start
    pool = plan_pool(wl, pool_rounds * rounds)
    # warm-up inputs are outside the timed list, and differ per repeat
    warm = [[wl.plan(j, f"warm{rep}.") for j in range(min(WARMUP_OPS, rounds))]
            for rep in range(SETUP_REPEATS)]
    # each part is scaled by the reference samples taken next to it
    setup_refs = [[reference_ms() for _ in range(REFERENCE_WINDOW)]]
    import_s *= REFERENCE_MS / statistics.median(setup_refs[0])
    repeats = []
    for warm_ops in warm:
        start = time.process_time()
        for op in pool:
            wl.construct(op)
        warm_up(wl, warm_ops)
        gc.collect()
        seconds = time.process_time() - start
        setup_refs.append([reference_ms() for _ in range(REFERENCE_WINDOW)])
        repeats.append(seconds * REFERENCE_MS / statistics.median(setup_refs[-2] + setup_refs[-1]))
    setup_s = import_s + statistics.median(repeats)

    raw, walls, failed, correct = [], [], 0, True
    refs = [reference_ms()]
    wall_start = time.monotonic()
    i = 0
    while i < min_rounds * rounds or i % rounds or time.monotonic() - wall_start < args.seconds:
        op = pool[i] if i < len(pool) else wl.build(i)
        result, ns, wall_ns, bad = execute(wl, op)
        if bad:
            failed += 1
            raw.append(None)
        else:
            raw.append(ns / 1e6)
            walls.append(wall_ns / 1e6)
            try:
                wl.check(op, result)
            except checks.CheckFailed as exc:
                print(f"wrong output, op {op.index} ({op.slot}): {exc}", file=sys.stderr)
                correct = False
        if i < len(pool):
            pool[i] = None
        gc.collect()
        refs.append(reference_ms())
        i += 1
    op_scales = scales(refs)
    times = [ms * scale for ms, scale in zip(raw, op_scales) if ms is not None]
    total_ms = sum(times)
    metrics = {
        "ops_per_cpu_s": (len(times) / (total_ms / 1e3) if total_ms else 0.0, "1/s"),
        "op_cpu_p50_ms": (statistics.median(times) if times else 0.0, "ms"),
        "op_cpu_p90_ms": (quantile(times, 0.9) if times else 0.0, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    unscaled = [ms for ms in raw if ms is not None]
    print(f"{wl.name}: {i} ops in {time.monotonic() - wall_start:.1f} s wall, "
          f"{sum(unscaled) / 1e3:.2f} s CPU; set-up repeats {[round(r, 4) for r in repeats]}; "
          f"reference work {min(refs):.3f} to {max(refs):.3f} ms, median {statistics.median(refs):.3f}",
          file=sys.stderr)
    if unscaled:
        print(f"unscaled cpu: ops_per_s={len(unscaled) / (sum(unscaled) / 1e3):.4f} "
              f"op_p50_ms={statistics.median(unscaled):.4f} "
              f"op_p90_ms={quantile(unscaled, 0.9):.4f}", file=sys.stderr)
    if walls:
        print(f"wall: ops_per_s={len(walls) / (sum(walls) / 1e3):.4f} "
              f"op_p50_ms={statistics.median(walls):.4f} op_p90_ms={quantile(walls, 0.9):.4f}",
              file=sys.stderr)
    return correct, i, failed, metrics


def traced_run(wl, args):
    """A fixed number of operations, each run once untraced and then once
    traced, so call counts repeat exactly and the overhead compares two
    CPU totals over equal work done at nearly the same moment."""
    rounds = len(wl.SLOTS)
    count = rounds * max(1, round(args.seconds * wl.TRACE_ROUNDS_PER_SECOND))
    ops = [wl.construct(op) for op in plan_pool(wl, count)]
    warm_up(wl, [wl.plan(j, "warm") for j in range(min(WARMUP_OPS, rounds))])
    tracer = layertrace.Tracer()
    plain_ns = traced_ns = failed = out_bytes = 0
    correct = True
    for op in ops:
        layertrace.clear_caches()
        gc.collect()
        plain_ns += execute(wl, op)[1]
        layertrace.clear_caches()
        gc.collect()
        tracer.begin_op(op.index)
        tracer.install()
        try:
            result, ns, _, bad = execute(wl, op)
        finally:
            tracer.uninstall()
        traced_ns += ns
        failed += bad
        if not bad:
            out_bytes += wl.bytes_out(result)
            try:
                wl.check(op, result)
            except checks.CheckFailed as exc:
                print(f"wrong output, op {op.index} ({op.slot}): {exc}", file=sys.stderr)
                correct = False
    metrics = tracer.metrics(out_bytes)
    metrics["trace.overhead_pct"] = (100.0 * (traced_ns - plain_ns) / plain_ns, "%")
    spans_path = os.path.join(OUT, f"{wl.name}-seed{args.seed}.spans.csv.gz")
    tracer.write(spans_path)
    print(f"{wl.name}: {count} ops traced, untraced {plain_ns / 1e9:.2f} s CPU, "
          f"traced {traced_ns / 1e9:.2f} s CPU; spans in {spans_path}", file=sys.stderr)
    return correct, count, failed, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "pqpierce")):
        print(f"no program source at {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]
    global workloads, checks, layertrace
    import checks
    import layertrace
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    pin(args.pin)
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"docs-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            correct, attempted, failed, metrics = traced_run(wl, args)
        else:
            correct, attempted, failed, metrics = timed_run(wl, args, _T0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    line = json.dumps(result)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as handle:
        handle.write(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
