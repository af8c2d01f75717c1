"""Run the workloads with several seeds and report how steady they are.

    python3 perfbench/spread.py --seeds 1-10 --sets 2
    python3 perfbench/spread.py --workloads thresholds --seeds 1-5

Each run lasts BENCHMARK.json's ``run_seconds``.  Runs go one after
another, never in parallel, and the workloads alternate within each seed,
so a change in the machine's speed falls on all of them alike.  Every
set runs every seed once.  For every workload and end-to-end metric it
prints each set's median and the distance between its first and third
quartiles (``statistics.quantiles(n=4)``) as a share of the median,
next to the metric's bound; with two sets or more, also the largest
difference between two sets' medians, as a share of the first set's.
The per-operation wall-clock and unscaled CPU figures that run.py
writes to standard error are summarised the same way.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("inf")


def run_once(workload: str, seed: int, seconds: int):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for line in proc.stderr.splitlines():
        label, _, rest = line.partition(": ")
        if label in ("wall", "unscaled cpu"):
            for key, value in re.findall(r"(\w+)=([0-9.]+)", rest):
                values[f"{label} {key}"] = float(value)
    return result, values


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args()

    # runs[workload][set] -> list of (result, values)
    runs = {w: [[] for _ in range(args.sets)] for w in args.workloads}
    for s in range(args.sets):
        for seed in args.seeds:
            for workload in args.workloads:
                result, values = run_once(workload, seed, spec["run_seconds"])
                runs[workload][s].append((result, values))
                print(f"set {s + 1} {workload} seed {seed}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']} "
                      + " ".join(f"{k}={v:.6g}" for k, v in values.items() if k in bounds),
                      flush=True)

    if len(args.seeds) < 2:
        return 0
    for workload, sets in runs.items():
        print(f"\n{workload}: {args.sets} set(s) of {len(args.seeds)} runs")
        for name in sets[0][0][1]:
            meds, rels = zip(*(spread([v[name] for _, v in runs_]) for runs_ in sets))
            bound = bounds.get(name)
            line = f"  {name:22s} medians " + " ".join(f"{m:10.5g}" for m in meds)
            line += "  spreads " + " ".join(f"{100 * r:5.1f}%" for r in rels)
            if len(meds) > 1:
                line += f"  median diff {100 * (max(meds) - min(meds)) / meds[0]:5.1f}%"
            if bound:
                line += f"  bound {100 * bound:.0f}% (spread {max(rels) / bound:.2f} of it)"
            print(line)
        shares = {r["failed"] / r["attempted"] for runs_ in sets for r, _ in runs_}
        correct = all(r["correct"] for runs_ in sets for r, _ in runs_)
        print(f"  failed shares: {sorted(shares)}; all correct: {correct}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
