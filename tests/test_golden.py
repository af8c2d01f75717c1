"""The CLI's stdout and exit codes, byte for byte, against a recorded
transcript.

``tests/golden/cli.jsonl`` holds one JSON object per call: its argv, in
which ``{tmp}`` stands for a scratch directory, its exit code and its
stdout.  The families are made by ``generate`` from fixed specs at the
start of the transcript, so the replay needs no fixture files.  To
record the transcript again after a deliberate change of output, run
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import json
import pathlib

from pqpierce.cli import main

TRANSCRIPT = pathlib.Path(__file__).parent / "golden" / "cli.jsonl"

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
    for name in CONFIGS:
        yield ["experiment", f"{{tmp}}/{name}.config"]


def write_configs(tmp) -> None:
    for name, config in CONFIGS.items():
        pathlib.Path(tmp, f"{name}.config").write_text(json.dumps(config))


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


def record(tmp) -> None:
    write_configs(tmp)
    with TRANSCRIPT.open("w") as handle:
        for argv in calls():
            code, stdout = run(argv, tmp)
            handle.write(json.dumps({"argv": argv, "exit": code, "stdout": stdout}) + "\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record(tmp)
