"""Check the 1D links and the pruned p-subset search against the full
scan on every family of n interval members, up to relabelling: the
(2n-1)!! perfect matchings of 2n endpoint positions (10,395 families for
n = 6).  Tier-1 runs n <= 5 (``TestEveryIntervalFamily``); this script
runs a larger n, by hand or in CI (n = 6), and pytest does not collect it.

    PYTHONPATH=src python tests/exhaustive_1d.py [n]
"""

import sys
import time

from conftest import assert_1d_search_matches_scan, matched_families


def main(n: int) -> None:
    start = time.process_time()
    count = 0
    for F in matched_families(n):
        assert_1d_search_matches_scan(F)
        count += 1
    print(f"n = {n}: {count} families match the full scan "
          f"({time.process_time() - start:.1f} s CPU)")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 6)
