"""Check every claimed 2D bound (``conftest.check_2d_claims``) on every
family of n members drawn, repeats allowed, from the 15 lattice hulls of a
2 by 2 grid (38,760 families for n = 6), and print each claim's row:
its threshold and claimed points, the most points a family at the
threshold needs, and whether the row is tight.  Tier-1 runs one to four
members (``TestEveryLatticeFamily`` in ``test_bounds.py``); this script
runs a larger n, by hand or in CI (n = 6), and pytest does not collect it.

    PYTHONPATH=src python tests/exhaustive_2d_claims.py [n]
"""

import sys
import time

from conftest import ASSERTED_2D_CLAIMS, check_2d_claims, lattice_families


def main(n: int) -> None:
    if not __debug__:  # the checks are asserts, which -O strips
        sys.exit("run without -O: every check of this script is an assert")
    start = time.process_time()
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
    print(f"n = {n}: {count} lattice families break no asserted 2D claim, Kalai's bound or "
          f"implied_q ({time.process_time() - start:.1f} s CPU)")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 6)
