"""Exhaustive checks on every small family, past tier-1's sizes; pytest
does not collect this file.  With no argument every check runs at the
size CI runs it at (``CHECKS``), and prints one summary line with its CPU
time.  A new exhaustive check is one ``CHECKS`` entry plus its tier-1 slice.

    PYTHONPATH=src python tests/exhaustive.py [check [n]]

- ``intervals``: the 1D links and the pruned p-subset search against the
  full scan, and ``bounds.dim1_threshold``'s piercing claim, on every
  family of n intervals up to relabelling, the (2n-1)!! perfect matchings
  of 2n endpoint positions (10,395 for n = 6; tier-1
  ``TestEveryIntervalFamily``, n <= 5).
- ``triples``: the 2D nerve's triple flags (``geometry._pair_region_meets``
  and ``_Nerve.fits``) against the clip chain on every triple of lattice
  hulls of an n by n grid (213 hulls and 3,739,985 pairwise-meeting
  triples for n = 3; tier-1 ``test_every_lattice_triple``, 2 by 3).
- ``walks``: the 2D mask walk against the tuple walk, its oracle, in both
  widths, on every family of 1 to n of the 15 lattice hulls of a 2 by 2
  grid, repeats allowed (54,263 for n = 6; tier-1 ``test_nerve.py``'s
  ``TestEveryLatticeFamily``, n <= 4).
- ``claims``: every claimed 2D bound (``conftest.check_2d_claims``) on
  every family of n such hulls (38,760 for n = 6; tier-1 ``test_bounds.py``'s
  ``TestEveryLatticeFamily``, n <= 4); each claim's row is printed too: its
  threshold and claimed points, the most points a family there needs,
  and whether the row is tight.
"""

import sys
import time

if not __debug__:  # the checks are asserts, which -O strips
    sys.exit("run without -O: every check of this script is an assert")

from conftest import (ASSERTED_2D_CLAIMS, assert_1d_search_matches_scan, assert_walks_match_tuple_walk,
                      check_1d_claims, check_2d_claims, check_triple_flags, dim1_claims, lattice_families,
                      lattice_hulls, matched_families)


def intervals(n: int) -> str:
    count = 0
    tight: set = set()
    at_r0: set = set()
    for F in matched_families(n):
        assert_1d_search_matches_scan(F)
        check_1d_claims(F, tight, at_r0)
        count += 1
    claims = dim1_claims(n)
    q2 = {claim for claim in claims if claim[1] == 2}
    # some family below each threshold needs k + 2 points, and for q = 2
    # one at exactly r0 - 1 does
    assert tight == claims, sorted(claims - tight)
    assert q2 <= at_r0, sorted(q2 - at_r0)
    return (f"{count} families match the full scan and break no 1D claim; "
            f"{len(tight)} of {len(claims)} (p, q, k) tight, {len(q2 & at_r0)} of {len(q2)} "
            "q = 2 at r0 - 1")


def triples(n: int) -> str:
    hulls = lattice_hulls(n, n)
    checked, missed = check_triple_flags(hulls)
    return (f"{len(hulls)} lattice hulls, {checked} pairwise-meeting triples match the "
            f"clip chain, {missed} of them disjoint")


def walks(n: int) -> str:
    count = 0
    for size in range(1, n + 1):
        for F in lattice_families(size):
            assert_walks_match_tuple_walk(F)
            count += 1
    return (f"{count} lattice families walk the tuple walk's tuples, counts and links, "
            "asking a subset of its questions")


def claims(n: int) -> str:
    rows: dict = {}
    count = 0
    for F in lattice_families(n):
        check_2d_claims(F, rows)
        count += 1
    broken = {key: row.broken[0] for key, row in rows.items() if key[0] in ASSERTED_2D_CLAIMS and row.broken}
    assert not broken, broken
    for (name, p, q, parameter), row in sorted(rows.items(), key=lambda item: (item[0][:3], str(item[0][3]))):
        state = "tight" if row.tight else "loose" if row.worst else "unreached"
        reported = "" if name in ASSERTED_2D_CLAIMS else f", reported only, {len(row.broken)} break it"
        print(f"{name} p={p} q={q} {'-' if parameter is None else parameter}: r >= {row.threshold} "
              f"claims at most {row.bound}, the worst family there needs {row.worst}, {state}{reported}")
    return f"{count} lattice families break no asserted 2D claim, Kalai's bound or implied_q"


#: check name -> (the check, a function of n that returns its summary;
#: the n that CI runs it at)
CHECKS = {"intervals": (intervals, 6), "triples": (triples, 3), "walks": (walks, 6), "claims": (claims, 6)}


def main(argv: list[str]) -> None:
    if len(argv) > 2 or (argv and argv[0] not in CHECKS):
        sys.exit(f"usage: tests/exhaustive.py [check [n]], where check is one of {', '.join(CHECKS)}")
    for name in argv[:1] or CHECKS:
        check, size = CHECKS[name]
        n = int(argv[1]) if len(argv) > 1 else size
        start = time.process_time()
        summary = check(n)
        print(f"n = {n}: {summary} ({time.process_time() - start:.1f} s CPU)", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
