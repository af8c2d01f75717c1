"""The README's library quick start runs and prints what its comments
promise."""

import contextlib
import io
import pathlib
import re
from fractions import Fraction

from pqpierce.bounds import BoundResult
from pqpierce.family import PQRReport

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start():
    text = README.read_text()
    block = re.search(r"## Library quick start\n+```python\n(.*?)```", text, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    names = {"Fraction": Fraction, "PQRReport": PQRReport, "BoundResult": BoundResult}
    report, optimum, constructed, threshold = (eval(line, names) for line in out.getvalue().splitlines())
    assert report == PQRReport(p=3, q=2, max_r=1, witness_subset=(0, 1, 2))
    assert optimum == (1, 4)                            # exact optimum: (1, 4)
    assert len(constructed) <= 3 - 2 + 1                # at most p-q+1 points
    assert (threshold.threshold_r, threshold.pierce_bound) == (16, 2)  # r >= 16 certifies 2 points
