"""Check the triple flag of the 2D nerve, ``geometry._pair_region_meets``
and ``_Nerve.fits``, against the clip chain on every triple of lattice
hulls of an n by n grid (213 hulls and 3,739,985 pairwise-meeting triples
for n = 3).  Tier-1 runs the 2 by 3 grid
(``TestPairRegionMeets::test_every_lattice_triple``); this script runs a
larger grid, by hand or in CI (n = 3), and pytest does not collect it.

    PYTHONPATH=src python tests/exhaustive_2d_triples.py [n]
"""

import sys
import time

from conftest import check_triple_flags, lattice_hulls


def main(n: int) -> None:
    if not __debug__:  # the checks are asserts, which -O strips
        sys.exit("run without -O: every check of this script is an assert")
    start = time.process_time()
    hulls = lattice_hulls(n, n)
    checked, missed = check_triple_flags(hulls)
    print(f"n = {n}: {len(hulls)} lattice hulls, {checked} pairwise-meeting triples match the "
          f"clip chain, {missed} of them disjoint ({time.process_time() - start:.1f} s CPU)")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 3)
