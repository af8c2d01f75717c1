"""Check the 1D links and the pruned p-subset search against the full
scan, and ``bounds.dim1_threshold``'s piercing claim, on every family of
n interval members, up to relabelling: the (2n-1)!! perfect matchings of
2n endpoint positions (10,395 families for n = 6).  Tier-1 runs n <= 5
(``TestEveryIntervalFamily``); this script runs a larger n, by hand or in
CI (n = 6), and pytest does not collect it.

    PYTHONPATH=src python tests/exhaustive_1d.py [n]
"""

import sys
import time

from conftest import assert_1d_search_matches_scan, check_1d_claims, dim1_claims, matched_families


def main(n: int) -> None:
    if not __debug__:  # the checks are asserts, which -O strips
        sys.exit("run without -O: every check of this script is an assert")
    start = time.process_time()
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
    print(f"n = {n}: {count} families match the full scan and break no 1D claim; "
          f"{len(tight)} of {len(claims)} (p, q, k) tight, {len(q2 & at_r0)} of {len(q2)} "
          f"q = 2 at r0 - 1 ({time.process_time() - start:.1f} s CPU)")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 6)
