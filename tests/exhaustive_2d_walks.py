"""Check the 2D mask walk against the tuple walk kept as its oracle, in
both widths (``conftest.assert_walks_match_tuple_walk``), on every family
of 1 to n members drawn, repeats allowed, from the 15 lattice hulls of a
2 by 2 grid (54,263 families for n = 6).  Tier-1 runs n = 4
(``TestEveryLatticeFamily``); this script runs a larger n, by hand or in
CI (n = 6), and pytest does not collect it.

    PYTHONPATH=src python tests/exhaustive_2d_walks.py [n]
"""

import sys
import time

from conftest import assert_walks_match_tuple_walk, lattice_families


def main(n: int) -> None:
    if not __debug__:  # the checks are asserts, which -O strips
        sys.exit("run without -O: every check of this script is an assert")
    start = time.process_time()
    count = 0
    for size in range(1, n + 1):
        for F in lattice_families(size):
            assert_walks_match_tuple_walk(F)
            count += 1
    print(f"n = {n}: {count} lattice families walk the tuple walk's tuples, counts and links, "
          f"asking a subset of its questions ({time.process_time() - start:.1f} s CPU)")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 6)
