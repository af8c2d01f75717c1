"""The CLI's stdout and exit codes, and the library's answers, byte for
byte, against recorded transcripts.

``tests/golden/cli.jsonl`` holds one JSON object per call: its argv, in
which ``{tmp}`` stands for a scratch directory, its exit code and its
stdout.  The families are made by ``generate`` from fixed specs at the
start of the transcript, and the hand-written documents in ``DOCUMENTS``
are written next to them, so the replay needs no fixture files.

``tests/golden/library.jsonl`` holds one JSON object per library query on
seeded families and the extremal constructors: the query and the repr of
its answer, or the type and message of the error it raises.

To record both again after a deliberate change of output, run
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import json
import pathlib

from pqpierce.cli import main
from pqpierce.errors import PQPierceError
from pqpierce.family import (count_intersecting_qtuples, degeneracy_level, f_vector, max_r,
                             satisfies_pqr, satisfies_pqr_through_line)
from pqpierce.generators import GeneratorSpec, disjoint_plus_container, extremal_dim1, random_family
from pqpierce.geometry import Line
from pqpierce.piercing import candidate_points, hd_pierce, line_pierce, min_piercing, ms_line

TRANSCRIPT = pathlib.Path(__file__).parent / "golden" / "cli.jsonl"
LIBRARY = pathlib.Path(__file__).parent / "golden" / "library.jsonl"

#: name -> generate options; polygons with a small span meet densely
FAMILIES = {
    **{f"dense{seed}": ["random-polygons", "--n", "6", "--seed", str(seed), "--span", "3"]
       for seed in range(6)},
    **{f"mid{seed}": ["random-polygons", "--n", "7", "--seed", str(seed), "--span", "5"]
       for seed in range(3)},
    **{f"sparse{seed}": ["random-polygons", "--n", "6", "--seed", str(seed)] for seed in range(2)},
    "ints0": ["random-intervals", "--n", "8", "--seed", "0"],
    "ints1": ["random-intervals", "--n", "9", "--seed", "1", "--span", "6"],
    "extremal": ["extremal-dim1", "--p", "7", "--k", "1"],
    "container": ["disjoint-plus-container", "--a", "3", "--b", "2", "--dimension", "2"],
}

#: experiment configs, written next to the families
CONFIGS = {
    "kalai2d": {"theorem": "kalai", "dimension": 2, "n": 6, "seeds": [0, 1]},
    "kalai1d": {"theorem": "kalai", "dimension": 1, "n": 7, "seeds": 2},
    "thm5": {"theorem": "thm5", "dimension": 2, "n": 6, "seeds": [0], "grid": {"p": [4, 5]}},
    "propdim1": {"theorem": "prop-dim1"},
    # k = 5 is out of range for p = 5 in both extremal_dim1 and
    # dim1_threshold; the error of the one that runs first is printed
    "propdim1-range": {"theorem": "prop-dim1", "grid": {"p": [5, 6], "k": [0, 3, 5]}},
    # 30 intervals at p = 15 overrun the work budget of max_r
    "thm5-budget": {"theorem": "thm5", "dimension": 1, "n": 30, "seeds": [0],
                    "grid": {"p": [15], "q": [7, 15]}},
}



def _polygons(*bodies) -> dict:
    return {"format_version": "1", "dimension": 2,
            "bodies": [{"type": "polygon", "vertices": vertices} for vertices in bodies]}


def _intervals(*bodies) -> dict:
    return {"format_version": "1", "dimension": 1,
            "bodies": [{"type": "interval", "lo": lo, "hi": hi} for lo, hi in bodies]}


BIG = "1234567890123456789012345678901234567890"

#: hand-written family documents, written next to the families; they pin
#: the rational grammar a document accepts and the error it reports
DOCUMENTS = {
    # JSON ints: unsorted, duplicate and collinear vertices, a point, a
    # segment with its midpoint and a point given twice
    "doc-ints": _polygons(
        [[4, 0], [0, 0], [4, 4], [2, 0], [0, 4], [0, 0], [0, 2]],
        [[3, 1], [6, 1], [6, 1], [3, 5]],
        [[2, 2]],
        [[1, 6], [5, 2], [3, 4]],
        [[-1, 3], [7, 3]],
        [[5, 5], [5, 5]]),
    # strings that Fraction reads: decimals, exponents, spaces, signs,
    # leading zeros, unreduced fractions; JSON floats
    "doc-strings": _polygons(
        [["0.5", "1e2"], [" 1/2", "+3"], ["007/010", "-3/4"], ["2.25", " 5 "]],
        [["1E1", "1/3"], ["-0", "0/7"], ["+1/2", "2/4"], ["-1.5e1", "12.5"]],
        [[0.25, 3], ["3/6", 1.5e1]]),
    # 40-digit coordinates and mixed denominators
    "doc-big": _polygons(
        [[BIG, "1/3"], ["-" + BIG + "/7", "5/6"], ["0", "-" + BIG]],
        [["1/3", "1/4"], ["2/5", "7/12"], ["-11/9", "13/15"]],
        [[BIG + "/" + BIG[::-1], "1"], ["1", BIG + "/" + BIG[::-1]]]),
    # rejected values; the first is reported, body by body, x before y
    "doc-zero-den": _polygons([[0, 0], [1, 1]], [[0, "1/0"], ["abc", 1]]),
    "doc-abc": _polygons([[0, 0]], [["abc", "1/0"]]),
    "doc-true": _polygons([[0, 0], [1, 0]], [[1, True]]),
    # 4300 digits, CPython's default int-to-str limit, read and printed in
    # full; past it, the message names the limit in words that differ
    # between Python versions, so tests/test_cli.py checks that case
    "doc-long": _polygons([[0, 0], [1, 0]], [["9" * 4300, 1]], [[2, 2], [3, 2], [2, 3]]),
    # the 1D twins: the same grammar and the same first reported value,
    # body by body, lo before hi
    "doc-strings-1d": _intervals(
        ["0.5", "1e2"], [" 1/2", "+3"], ["-3/4", "007/010"], ["2.25", " 5 "],
        ["1/3", "1E1"], ["-0", "0/7"], ["-1.5e1", "2/4"], [0.25, 3], ["3/6", 1.5e1]),
    "doc-zero-den-1d": _intervals([0, 1], [0, "1/0"], ["abc", 1]),
    "doc-abc-1d": _intervals([0, 0], ["abc", "1/0"], [1, 2]),
    "doc-true-1d": _intervals([0, 1], [1, True], [2, 3]),
    # lo > hi, reported with the body's index
    "doc-empty-1d": _intervals([0, 1], ["3", "5/2"], [1, 2]),
    # JSON ints past 2000 bits, off the short path for ints
    "doc-wide-1d": _intervals([0, 2 ** 2001], [1, 2], [-(2 ** 2001), 0], [2 ** 2001, 2 ** 2002]),
}

ANALYZE = ((2, 1), (3, 2), (4, 3), (5, 3), (6, 2))
HD = ((3, 3), (5, 4), (6, 5), (4, 4))
LINES = ("1,-1,0", "0,1,1")


def calls():
    """The argv of every call, with ``{tmp}`` for the scratch directory."""
    for name, options in FAMILIES.items():
        yield ["generate", *options, "--output", f"{{tmp}}/{name}.json"]
    for name, options in FAMILIES.items():
        path = f"{{tmp}}/{name}.json"
        for p, q in ANALYZE:
            yield ["analyze", path, "--p", str(p), "--q", str(q)]
        yield ["pierce", path]
        for p, q in HD:
            yield ["pierce", path, "--strategy", "hd", "--p", str(p), "--q", str(q)]
        if name.startswith(("dense", "mid", "sparse")):
            for line in LINES:
                for p, k in ((5, 2), (6, 4)):
                    yield ["pierce", path, "--strategy", "line", "--p", str(p), "--k", str(k),
                           "--line", line]
    for name in DOCUMENTS:
        path = f"{{tmp}}/{name}.json"
        yield ["analyze", path, "--p", "3", "--q", "2"]
        yield ["pierce", path]
        yield ["pierce", path, "--strategy", "hd", "--p", "3", "--q", "3"]
        yield ["pierce", path, "--strategy", "line", "--p", "3", "--k", "1", "--line", "1,-1,0"]
    for theorem, extra in (("thm1", []), ("thm2", ["--epsilon", "1/6"]), ("thm3", ["--k", "3"]),
                           ("prop-dim1", ["--k", "2"]), ("lemma-r0", ["--f", "3"]),
                           ("remark", ["--f", "3", "--epsilon", "1/8"]), ("kalai", ["--s", "12"]),
                           ("hd-region", []), ("implied-q", ["--r", "5000"])):
        for p, q, d in ((40, 18, 2), (120, 55, 3)):
            yield ["bounds", theorem, "--p", str(p), "--q", str(q), "--d", str(d), *extra]
    for p, q, d in ((40, 18, 2), (120, 55, 3)):
        for k in (0, p - q - 1):  # the ends of thm3's range
            yield ["bounds", "thm3", "--p", str(p), "--q", str(q), "--d", str(d), "--k", str(k)]
    # ceil(40^(1/2 + 1)) = 253 > p + 1: no f is admissible
    yield ["bounds", "thm2", "--p", "40", "--q", "18", "--d", "2", "--epsilon", "1"]
    for theorem in ("thm2", "remark"):
        yield ["bounds", theorem, "--p", "40", "--q", "18", "--d", "2", "--f", "3",
               "--epsilon", "abc"]
    # --epsilon in each form Fraction reads, each the same 1/10
    for epsilon in ("0.1", "1e-1", " 1/10 "):
        yield ["bounds", "thm2", "--p", "40", "--q", "18", "--d", "2", "--epsilon", epsilon]
        yield ["bounds", "remark", "--p", "40", "--q", "18", "--d", "2", "--f", "3",
               "--epsilon", epsilon]
    # --line coefficients in forms only Fraction reads
    yield ["pierce", "{tmp}/dense0.json", "--strategy", "line", "--p", "5", "--k", "2",
           "--line", "0.5,1e0,1"]
    for name in CONFIGS:
        yield ["experiment", f"{{tmp}}/{name}.config"]
    # each option a theorem, strategy or generate requires, left out
    for theorem in ("thm2", "thm3", "prop-dim1", "lemma-r0", "remark", "kalai", "implied-q"):
        yield ["bounds", theorem, "--p", "40", "--q", "18", "--d", "2"]
    yield ["pierce", "{tmp}/dense0.json", "--strategy", "hd", "--p", "5"]
    yield ["pierce", "{tmp}/dense0.json", "--strategy", "line", "--p", "5", "--k", "2"]
    yield ["generate"]


def write_configs(tmp) -> None:
    for name, config in CONFIGS.items():
        pathlib.Path(tmp, f"{name}.config").write_text(json.dumps(config))
    for name, document in DOCUMENTS.items():
        pathlib.Path(tmp, f"{name}.json").write_text(json.dumps(document))


def run(argv, tmp) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([arg.replace("{tmp}", str(tmp)) for arg in argv])
    return code, out.getvalue()


def test_cli_transcript_is_unchanged(tmp_path):
    records = [json.loads(line) for line in TRANSCRIPT.read_text().splitlines()]
    assert [record["argv"] for record in records] == list(calls())
    write_configs(tmp_path)
    for record in records:
        code, stdout = run(record["argv"], tmp_path)
        assert (code, stdout) == (record["exit"], record["stdout"]), record["argv"]


def library_families():
    """(name, family): seeded interval and polygon families, sparse and
    dense, and the two extremal constructors."""
    for seed in range(4):
        for span in (4, 10):
            yield f"ints{seed}-{span}", random_family(
                GeneratorSpec("random_intervals", n=8, seed=seed, span=span))
            yield f"polys{seed}-{span}", random_family(
                GeneratorSpec("random_polygons", n=6, seed=seed, span=span // 2))
    yield "extremal", extremal_dim1(7, 1)
    for dimension in (1, 2):
        yield f"container{dimension}", disjoint_plus_container(3, 2, dimension)


def answer(query, *args) -> str:
    """The repr of query(*args), or the type and message of its error."""
    try:
        return repr(query(*args))
    except PQPierceError as exc:
        return f"{type(exc).__name__}: {exc}"


def library_answers():
    """Yield (query, answer) for every library query on every family."""
    for name, F in library_families():
        n = len(F)
        for p in range(1, n + 1):
            for q in range(1, p + 1):
                report = max_r(F, p, q)
                yield f"{name} max_r({p}, {q})", repr(report)
                for r in (report.max_r, report.max_r + 1):
                    yield f"{name} satisfies_pqr({p}, {q}, {r})", answer(satisfies_pqr, F, p, q, r)
        for q in range(1, n + 1):
            yield f"{name} count({q})", repr(count_intersecting_qtuples(F, q))
        for query in (f_vector, degeneracy_level, candidate_points, min_piercing):
            yield f"{name} {query.__name__}", repr(query(F))
        for p, q in HD:
            yield f"{name} hd_pierce({p}, {q})", answer(hd_pierce, F, p, q)
        if F.dimension == 2:
            yield f"{name} ms_line", repr(ms_line(F))
            for line in (Line(1, -1, 0), Line(0, 1, 1), Line(1, 0, 2)):
                for p, q, r in ((3, 2, 1), (4, 2, 2), (5, 3, 1), (n, 2, 3)):
                    yield (f"{name} through {line} ({p}, {q}, {r})",
                           answer(satisfies_pqr_through_line, F, line, p, q, r))
                for p, k in ((5, 2), (6, 4)):
                    yield f"{name} line_pierce {line} ({p}, {k})", answer(line_pierce, F, line, p, k)


def test_library_answers_are_unchanged():
    records = [json.loads(line) for line in LIBRARY.read_text().splitlines()]
    assert [[record["query"], record["answer"]] for record in records] == \
        [list(pair) for pair in library_answers()]


def record(tmp) -> None:
    write_configs(tmp)
    with TRANSCRIPT.open("w") as handle:
        for argv in calls():
            code, stdout = run(argv, tmp)
            handle.write(json.dumps({"argv": argv, "exit": code, "stdout": stdout}) + "\n")
    with LIBRARY.open("w") as handle:
        for query, result in library_answers():
            handle.write(json.dumps({"query": query, "answer": result}) + "\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record(tmp)
