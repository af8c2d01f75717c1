"""CLI surface: round trips, exit codes, machine-readable outputs."""

import fractions
import json
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from pqpierce import bounds, piercing
from pqpierce.bounds import ms_threshold
from pqpierce import cli
from pqpierce.cli import (
    EXIT_BUDGET,
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_PREMISE,
    EXIT_VIOLATION,
    document_to_family,
    dump_family,
    family_to_document,
    main,
)
from pqpierce.errors import BudgetExceededError, ParseError
from pqpierce import family as familymod
from pqpierce.family import DEFAULT_WORK_BUDGET, Family
from pqpierce.generators import GeneratorSpec, extremal_dim1, random_family

from conftest import box, fraction_document_to_family


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out = capsys.readouterr().out if capsys else ""
    return code, out


#: JSON nested past the recursion limit, which the decoder refuses with
#: RecursionError
DEEP_JSON = "[" * 3000 + "]" * 3000


def assert_parse_error(code, out, prefix):
    assert code == EXIT_INPUT
    error = json.loads(out)["error"]
    assert error["type"] == "ParseError" and error["message"].startswith(prefix)


class TestDocumentRoundTrip:
    def test_intervals_exact(self):
        F = random_family(GeneratorSpec("random_intervals", n=7, seed=3))
        assert document_to_family(family_to_document(F)) == F

    def test_polygons_exact(self):
        F = random_family(GeneratorSpec("random_polygons", n=6, seed=9))
        doc = json.loads(dump_family(F))
        assert document_to_family(doc) == F

    def test_rationals_as_strings(self):
        F = extremal_dim1(4, 0)
        doc = family_to_document(F)
        assert doc["bodies"][0] == {"type": "interval", "lo": "1", "hi": "1"}
        assert doc["format_version"] == "1"

    def test_unknown_format_version(self, tmp_path, capsys):
        path = tmp_path / "v9.json"
        path.write_text(
            json.dumps({"format_version": "9", "dimension": 1,
                        "bodies": [{"type": "interval", "lo": "0", "hi": "1"}]})
        )
        code, out = run_cli("analyze", str(path), "--p", "1", "--q", "1", capsys=capsys)
        assert code == EXIT_INPUT
        assert "format_version" in json.loads(out)["error"]["message"]

    def test_malformed_rational_names_body(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "format_version": "1",
                    "dimension": 1,
                    "bodies": [
                        {"type": "interval", "lo": "0", "hi": "1"},
                        {"type": "interval", "lo": "1/0", "hi": "2"},
                    ],
                }
            )
        )
        code, out = run_cli("analyze", str(path), "--p", "1", "--q", "1", capsys=capsys)
        assert code == EXIT_INPUT
        payload = json.loads(out)
        assert "body 1" in payload["error"]["message"]

    @pytest.mark.parametrize("dimension, body", [
        (2, {"type": "polygon", "vertices": [5]}),
        (True, {"type": "interval", "lo": "0", "hi": "1"}),
    ], ids=["vertex-not-a-pair", "boolean-dimension"])
    def test_malformed_document_exit_2(self, dimension, body, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format_version": "1", "dimension": dimension,
                                    "bodies": [body]}))
        code, out = run_cli("pierce", str(path), capsys=capsys)
        assert code == EXIT_INPUT
        assert json.loads(out)["error"]["type"] == "ParseError"

    def test_integer_past_the_str_limit_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "long.json"
        path.write_text('{"format_version": "1", "dimension": 2, "bodies": '
                        '[{"type": "polygon", "vertices": [[1%s, 0]]}]}' % ("0" * 5000))
        code, out = run_cli("pierce", str(path), capsys=capsys)
        assert code == EXIT_INPUT
        error = json.loads(out)["error"]
        assert error["type"] == "ParseError"
        assert error["message"].startswith(f"invalid JSON in {path}: ")

    def test_deeply_nested_document_exit_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text(DEEP_JSON)
        code, out = run_cli("analyze", str(path), "--p", "1", "--q", "1", capsys=capsys)
        assert_parse_error(code, out, f"invalid JSON in {path}: ")


def rational_or_error(value, where="body 0"):
    """What the document path made of a coordinate before it parsed to
    ints: the Fraction, or the message of its ParseError, which cuts the
    value's repr and Fraction's message as ``cli._shown`` does.  A value
    in Fraction's own grammar with an exponent, whose digits and exponent
    add up to more than 4300, is refused before Fraction reads it."""
    form = fractions._RATIONAL_FORMAT.match(str(value))
    if form and form["exp"]:
        digits = [(form[name] or "").replace("_", "") for name in ("num", "decimal")]
        exponent = form["exp"].lstrip("+-").replace("_", "")
        if len(exponent) > 4300 or sum(map(len, digits)) + int(exponent) > 4300:
            return f"bad rational {cli._shown(value)} in {where}: more than 4300 digits"
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError) as exc:
        return f"bad rational {cli._shown(value)} in {where}: {cli._shown(exc, str)}"


#: JSON values a coordinate may hold: strings near the plain grammar, ints
#: near 2^64 and past 2000 bits, exponent forms at and past 4300 digits,
#: bools, floats, null
COORDINATE_VALUES = st.one_of(
    st.text(alphabet="0123456789-+/.e_ \n\u0661", max_size=8),
    st.from_regex(r"-?[0-9]{1,30}(/[0-9]{1,30})?", fullmatch=True),
    st.integers(-2 ** 70, 2 ** 70),
    st.sampled_from([10 ** 700, -(2 ** 2001), 2 ** 2000 - 1, "9" * 5000, "1/" + "7" * 4400,
                     "1e4299", "-.5E-4299", "1_0e4299", "1e999999999", "9" * 4300 + "e1"]),
    st.booleans(), st.floats(allow_nan=False), st.none())


#: a rational spelled as the writer spells it, unreduced, zero-padded, as
#: a JSON int or float, or in a form only Fraction reads
@st.composite
def spelled(draw):
    value = draw(st.fractions(min_value=-50, max_value=50, max_denominator=12))
    k = draw(st.integers(1, 4))
    forms = [str(value), f"{value.numerator * k}/{value.denominator * k}",
             f" {value} ", f"+{abs(value)}" if value >= 0 else str(value)]
    if value.numerator >= 0:
        forms.append(f"00{value.numerator}/0{value.denominator}")
    if value.denominator == 1:
        forms += [value.numerator, f"{value.numerator}.0", f"{value.numerator}e0"]
    if value.denominator in (1, 2, 4, 8):
        forms.append(float(value))
    return draw(st.sampled_from(forms))


class TestIntegerDocumentPath:
    @given(COORDINATE_VALUES)
    @settings(max_examples=200, deadline=None)
    def test_grammar_and_messages_match_fraction(self, value):
        try:
            num, den = cli._parse_ratio(value, "body 0")
        except ParseError as exc:
            got = str(exc)
        else:
            assert den > 0
            got = Fraction(num, den)
        assert got == rational_or_error(value)

    @given(st.lists(st.lists(st.tuples(spelled(), spelled()), min_size=1, max_size=6),
                    min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_family_matches_fraction_path(self, bodies):
        doc = {"format_version": "1", "dimension": 2,
               "bodies": [{"type": "polygon", "vertices": [list(v) for v in verts]}
                          for verts in bodies]}
        F, oracle = document_to_family(json.loads(json.dumps(doc))), fraction_document_to_family(doc)
        assert (F, hash(F), repr(F)) == (oracle, hash(oracle), repr(oracle))
        assert [body._hom for body in F.bodies] == [body._hom for body in oracle.bodies]

    def test_string_past_the_str_limit_exit_2(self, tmp_path, capsys):
        # the message is the runtime's own; its words differ between
        # Python versions, so it is not in the golden transcript
        path = tmp_path / "long.json"
        path.write_text(json.dumps({"format_version": "1", "dimension": 2, "bodies": [
            {"type": "polygon", "vertices": [[0, 0]]},
            {"type": "polygon", "vertices": [["9" * 5000, 1]]}]}))
        code, out = run_cli("pierce", str(path), capsys=capsys)
        assert code == EXIT_INPUT
        assert json.loads(out)["error"] == {"type": "ParseError",
                                            "message": rational_or_error("9" * 5000, "body 1")}

    def test_first_bad_value_reported(self):
        doc = {"format_version": "1", "dimension": 2, "bodies": [
            {"type": "polygon", "vertices": [[0, 0], ["1", "2/0"], ["x", 1]]},
            {"type": "polygon", "vertices": [["abc", 0]]}]}
        with pytest.raises(ParseError) as got:
            document_to_family(doc)
        assert str(got.value) == rational_or_error("2/0")


LONG = "x" * 5000


def cut(text):
    return text[:cli.SHOWN] + "..."


#: how a long rejected value, and Fraction's message that repeats it, show
CUT, FRACTION_CUT = cut(repr(LONG)), cut("Invalid literal for Fraction: " + repr(LONG))


def document(**fields):
    """A one-interval family document with ``fields`` replaced."""
    return {"format_version": "1", "dimension": 1,
            "bodies": [{"type": "interval", "lo": "0", "hi": "1"}], **fields}


class TestLongRejectedValues:
    """A long rejected value is cut, or a container named by its type, so
    the error line stays short; a short value is shown whole (the golden
    transcript pins those messages)."""

    @pytest.mark.parametrize("doc, shown", [
        (document(dimension=list(range(1000))), "got list"),
        (document(format_version=LONG), "format_version " + CUT),
        (document(bodies=[{"type": LONG}]), "unknown body type " + CUT),
        (document(bodies=[{"type": "interval", "lo": LONG, "hi": "1"}]),
         f"bad rational {CUT} in body 0: {FRACTION_CUT}"),
    ], ids=["dimension", "format-version", "body-type", "interval-lo"])
    def test_document(self, doc, shown, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        self.check(run_cli("analyze", str(path), "--p", "1", "--q", "1", capsys=capsys), shown)

    @pytest.mark.parametrize("argv, shown", [
        (["generate", "--spec-json", json.dumps({"kind": "random_intervals", "n": list(range(1000))})],
         "spec field n must be an int, got list"),
        (["bounds", "thm2", "--p", "6", "--q", "3", "--epsilon", LONG],
         f"bad rational {CUT} in --epsilon: {FRACTION_CUT}"),
        (["pierce", "{doc}", "--strategy", "line", "--p", "5", "--k", "2", "--line", LONG],
         "--line expects 'a,b,c', got " + CUT),
        (["pierce", "{doc}", "--strategy", "line", "--p", "5", "--k", "2", "--line", "1,1," + LONG],
         f"bad rational {CUT} in --line: {FRACTION_CUT}"),
    ], ids=["spec-json", "epsilon", "line", "line-part"])
    def test_option(self, argv, shown, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"format_version": "1", "dimension": 2,
                                    "bodies": [{"type": "polygon", "vertices": [[0, 0]]}]}))
        self.check(run_cli(*(arg.replace("{doc}", str(path)) for arg in argv), capsys=capsys), shown)

    @pytest.mark.parametrize("spec, error, shown", [
        ({"kind": LONG}, "ArityError", "unknown generator kind " + CUT),
        ({"kind": list(range(1000))}, "ArityError", "unknown generator kind list"),
        ({"kind": 10 ** 100}, "ArityError", "unknown generator kind " + cut(str(10 ** 100))),
        ({"kind": "random_intervals", LONG: 1}, "ParseError",
         "unknown spec fields: " + cut(str([LONG]))),
        ({"kind": "random_intervals", **{f"x{i:04}": 1 for i in range(1000)}}, "ParseError",
         "unknown spec fields: " + cut(str([f"x{i:04}" for i in range(1000)]))),
    ], ids=["long-kind", "list-kind", "int-kind", "long-field", "many-fields"])
    def test_spec_json(self, spec, error, shown, capsys):
        self.check(run_cli("generate", "--spec-json", json.dumps(spec), capsys=capsys), shown, error)

    @pytest.mark.parametrize("spec, error, message", [
        ({"kind": "mystery"}, "ArityError", "unknown generator kind 'mystery'"),
        ({"kind": 7}, "ArityError", "unknown generator kind 7"),
        ({"kind": "random_intervals", "zz": 1, "a0": 2}, "ParseError",
         "unknown spec fields: ['a0', 'zz']"),
        ({"kind": "mystery", "n": "x"}, "ParseError", "spec field n must be an int, got 'x'"),
    ], ids=["kind", "int-kind", "fields", "field-type-first"])
    def test_short_spec_json_values_shown_whole(self, spec, error, message, capsys):
        code, out = run_cli("generate", "--spec-json", json.dumps(spec), capsys=capsys)
        assert code == EXIT_INPUT
        assert json.loads(out)["error"] == {"type": error, "message": message}

    @staticmethod
    def check(result, shown, error="ParseError"):
        code, out = result
        assert code == EXIT_INPUT and len(out.encode()) < 200
        got = json.loads(out)["error"]
        assert got["type"] == error and got["message"].endswith(shown)


#: Fraction would build 10^999999999 and not finish
HUGE = "1e999999999"


class TestExponentPastTheDigitLimit:
    """A value in exponent form whose digits and exponent add up to more
    than 4300, the limit CPython puts on plain numerals, is refused before
    Fraction builds it, at every entry point that reads a rational."""

    @pytest.mark.parametrize("argv, where, value", [
        (["bounds", "thm2", "--p", "10", "--q", "6", "--d", "2", "--epsilon", HUGE],
         "--epsilon", HUGE),
        (["bounds", "remark", "--p", "10", "--q", "6", "--d", "2", "--f", "3",
          "--epsilon=-" + HUGE], "--epsilon", "-" + HUGE),
        (["pierce", "{2d}", "--strategy", "line", "--p", "2", "--k", "0", "--line", "1,1," + HUGE],
         "--line", HUGE),
        (["analyze", "{1d}", "--p", "1", "--q", "1"], "body 1", HUGE),
        (["pierce", "{2d-huge}"], "body 0", " " + HUGE),
    ], ids=["thm2-epsilon", "remark-epsilon", "line-part", "interval-end", "polygon-coordinate"])
    def test_entry_points_refuse_at_once(self, argv, where, value, tmp_path, capsys):
        docs = {
            "{2d}": {"format_version": "1", "dimension": 2,
                     "bodies": [{"type": "polygon", "vertices": [[0, 0], [1, 1]]}] * 2},
            "{1d}": {"format_version": "1", "dimension": 1,
                     "bodies": [{"type": "interval", "lo": "0", "hi": "1"},
                                {"type": "interval", "lo": "0", "hi": HUGE}]},
            "{2d-huge}": {"format_version": "1", "dimension": 2,
                          "bodies": [{"type": "polygon", "vertices": [[0, 0], [" " + HUGE, 1]]}]},
        }
        for name, doc in docs.items():
            (tmp_path / name).write_text(json.dumps(doc))
        argv = [str(tmp_path / arg) if arg in docs else arg for arg in argv]
        start = time.process_time()
        code, out = run_cli(*argv, capsys=capsys)
        assert time.process_time() - start < 0.5
        assert code == EXIT_INPUT
        assert json.loads(out)["error"] == {"type": "ParseError", "message":
                                            f"bad rational {value!r} in {where}: more than 4300 digits"}

    def test_library_refuses_at_once(self):
        start = time.process_time()
        with pytest.raises(ParseError, match="more than 4300 digits"):
            document_to_family({"format_version": "1", "dimension": 1,
                                "bodies": [{"type": "interval", "lo": "-" + HUGE, "hi": "0"}]})
        assert time.process_time() - start < 0.5

    @pytest.mark.parametrize("text, value", [
        ("1e4299", Fraction(10 ** 4299)),
        ("-12.5e-4297", Fraction(-125, 10 ** 4298)),
        ("1_2.3_4E+4_296", Fraction(1234 * 10 ** 4294)),
        ("9" * 4300, Fraction(int("9" * 4300))),
        ("1" * 4300 + ".5", Fraction(int("1" * 4300) * 10 + 5, 10)),
    ])
    def test_at_the_limit_read(self, text, value):
        assert cli._parse_rational(text, "x") == value

    @pytest.mark.parametrize("text", ["1e4300", "-12.5e-4298", "1_2.3_4E+4_297",
                                      "9" * 4300 + "e1", "1e" + "0" * 4301])
    def test_past_the_limit_refused(self, text):
        with pytest.raises(ParseError, match=r"more than 4300 digits$"):
            cli._parse_rational(text, "x")

    def test_budget_error_past_the_str_limit_prints(self, capsys):
        # epsilon = 10^-4000 makes the power's exponent a 4001-digit
        # numerator; the budget error gives its size and exits 4
        code, out = run_cli("bounds", "thm2", "--p", "10", "--q", "6", "--d", "2",
                            "--epsilon", "1e-4000", capsys=capsys)
        assert code == EXIT_BUDGET and len(out.encode()) < 200
        assert json.loads(out)["error"]["type"] == "BudgetExceededError"


class TestBoundsCommand:
    def test_thm3_anchor(self, capsys):
        code, out = run_cli(
            "bounds", "thm3", "--p", "6", "--q", "3", "--d", "2", "--k", "0", capsys=capsys
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["threshold_r"] == "16" and payload["pierce_bound"] == 2

    def test_thm1_anchor(self, capsys):
        code, out = run_cli("bounds", "thm1", "--p", "6", "--q", "3", "--d", "2", capsys=capsys)
        payload = json.loads(out)
        assert code == EXIT_OK and payload["threshold_r"] == "11"

    def test_kalai_value(self, capsys):
        code, out = run_cli(
            "bounds", "kalai", "--p", "6", "--q", "3", "--s", "2", "--d", "2", capsys=capsys
        )
        assert code == EXIT_OK and json.loads(out) == {"value": "16"}

    def test_invalid_params_exit_2(self, capsys):
        code, out = run_cli("bounds", "thm1", "--p", "2", "--q", "3", "--d", "2", capsys=capsys)
        assert code == EXIT_INPUT
        assert "error" in json.loads(out)

    @pytest.mark.parametrize("theorem", ["thm2", "remark"])
    def test_zero_denominator_epsilon_exit_2(self, theorem, capsys):
        code, out = run_cli("bounds", theorem, "--p", "6", "--q", "3", "--f", "1",
                            "--epsilon", "1/0", capsys=capsys)
        assert code == EXIT_INPUT
        assert json.loads(out)["error"]["type"] == "ParseError"

    @pytest.mark.parametrize("epsilon", ["abc", ""])
    @pytest.mark.parametrize("theorem", ["thm2", "remark"])
    def test_malformed_epsilon_exit_2(self, theorem, epsilon, capsys):
        code, out = run_cli("bounds", theorem, "--p", "6", "--q", "3", "--f", "1",
                            "--epsilon", epsilon, capsys=capsys)
        assert code == EXIT_INPUT
        error = json.loads(out)["error"]
        assert error["type"] == "ParseError"
        assert error["message"].startswith(f"bad rational {epsilon!r} in --epsilon: ")

    @pytest.mark.parametrize("argv, code", [
        (["thm2", "--p", "100", "--q", "50", "--d", "2", "--epsilon", "1/1000003"], EXIT_BUDGET),
        (["thm2", "--p", "100", "--q", "50", "--d", "2", "--epsilon", "1/10000019"], EXIT_BUDGET),
        (["thm2", "--p", "100", "--q", "50", "--d", "2", "--epsilon", "10000019"], EXIT_BUDGET),
        (["remark", "--p", "10", "--q", "5", "--d", "2", "--f", "1", "--epsilon", "1/10000019"],
         EXIT_BUDGET),
        (["thm2", "--p", "10", "--q", "5", "--d", "1", "--epsilon", "1/1000000007"], EXIT_OK),
    ])
    def test_extreme_epsilon_ends_quickly(self, argv, code, capsys):
        start = time.process_time()
        assert run_cli("bounds", *argv, capsys=capsys)[0] == code
        assert time.process_time() - start < 1

    def test_thm2_outside_its_domain_exit_2(self, capsys):
        code, out = run_cli("bounds", "thm2", "--p", "40", "--q", "18", "--d", "2",
                            "--epsilon", "1", capsys=capsys)
        assert code == EXIT_INPUT
        assert json.loads(out)["error"] == {
            "type": "ArityError",
            "message": "need M = ceil(p^((d-1)/d+eps)) <= p+1, got M=253, p=40",
        }

    @pytest.mark.parametrize("argv, message", [
        (["bounds", "foo", "--p", "6", "--q", "3"], "argument theorem: invalid choice: 'foo'"),
        (["bounds", "thm1", "--p", "x", "--q", "3"], "argument --p: invalid int value: 'x'"),
        (["bounds", "thm1", "--p", "6"], "the following arguments are required: --q"),
        (["bounds", "thm1", "--p", "6", "--q", "3", "--zz"], "unrecognized arguments: --zz"),
        (["pierce"], "the following arguments are required: family"),
        ([], "the following arguments are required: command"),
    ], ids=["unknown-theorem", "non-int", "missing-option", "unknown-option",
            "missing-positional", "no-command"])
    def test_usage_error_exit_2(self, argv, message, capsys):
        code, out = run_cli(*argv, capsys=capsys)
        assert code == EXIT_INPUT and out.count("\n") == 1
        error = json.loads(out)["error"]
        assert error["type"] == "ParseError" and error["message"].startswith(message)

    @pytest.mark.parametrize("argv", [["--help"], ["bounds", "--help"]])
    def test_help_exit_0(self, argv, capsys):
        code, out = run_cli(*argv, capsys=capsys)
        assert code == EXIT_OK and out.startswith("usage: pqpierce")

    def test_unwritable_output_exit_2(self, tmp_path, capsys):
        code, out = run_cli("bounds", "thm1", "--p", "6", "--q", "3",
                            "--output", str(tmp_path / "missing" / "out.json"), capsys=capsys)
        assert code == EXIT_INPUT
        error = json.loads(out)["error"]
        assert error["type"] == "ParseError"
        assert error["message"].startswith(f"cannot write {tmp_path / 'missing' / 'out.json'}: [Errno 2]")

    @pytest.mark.parametrize("command", [["analyze", "--p", "1", "--q", "1"], ["experiment"]],
                             ids=["family", "experiment-config"])
    def test_unreadable_input_exit_2(self, command, tmp_path, capsys):
        path = str(tmp_path / "missing.json")
        code, out = run_cli(command[0], path, *command[1:], capsys=capsys)
        assert code == EXIT_INPUT
        assert json.loads(out)["error"] == {
            "type": "ParseError", "message": f"cannot read {path}: [Errno 2] No such file or directory: {path!r}"}

    def test_reused_parser_leaks_no_options(self, capsys):
        fresh = subprocess.run(
            [sys.executable, "-m", "pqpierce.cli", "bounds", "thm1", "--p", "6", "--q", "3"],
            capture_output=True, text=True, check=True,
        ).stdout
        run_cli("bounds", "thm3", "--p", "6", "--q", "3", "--d", "2", "--k", "2", capsys=capsys)
        code, out = run_cli("bounds", "thm1", "--p", "6", "--q", "3", capsys=capsys)
        assert code == EXIT_OK and out == fresh

    def test_big_integers_decimal(self, capsys):
        code, out = run_cli(
            "bounds", "thm2", "--p", "60", "--q", "30", "--d", "2",
            "--epsilon", "1/2", capsys=capsys,
        )
        payload = json.loads(out)
        assert code == EXIT_OK
        assert payload["threshold_r"].isdigit()
        assert int(payload["threshold_r"]) > 10**9  # far beyond float-safe range

    def test_threshold_beyond_int_str_limit(self, capsys):
        # C(20000, 10000) has about 6000 digits, past CPython's 4300-digit
        # int-to-str default
        code, out = run_cli("bounds", "thm1", "--p", "20000", "--q", "10000", "--d", "2",
                            capsys=capsys)
        assert code == EXIT_OK
        digits = json.loads(out)["threshold_r"]
        assert len(digits) > 4300 and digits.isdigit()
        assert Decimal(digits) == Decimal(ms_threshold(20000, 10000, 2).threshold_r)


class TestAnalyzeCommand:
    def test_extremal_file(self, tmp_path, capsys):
        path = tmp_path / "fam.json"
        path.write_text(dump_family(extremal_dim1(6, 1)))
        code, out = run_cli("analyze", str(path), "--p", "6", "--q", "3", capsys=capsys)
        payload = json.loads(out)
        assert code == EXIT_OK
        assert payload["max_r"] == "10"
        assert payload["degeneracy_level"] == 2

    def test_single_body(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        path.write_text(dump_family(extremal_dim1(2, 0)))
        code, out = run_cli("analyze", str(path), "--p", "1", "--q", "1", capsys=capsys)
        assert code == EXIT_OK and json.loads(out)["max_r"] == "1"

    def test_arity_exit_2(self, tmp_path, capsys):
        path = tmp_path / "fam.json"
        path.write_text(dump_family(extremal_dim1(4, 0)))
        code, _ = run_cli("analyze", str(path), "--p", "9", "--q", "3", capsys=capsys)
        assert code == EXIT_INPUT

    def test_over_work_budget_exit_4(self, tmp_path, capsys):
        F = random_family(GeneratorSpec("random_intervals", n=24, seed=2))
        assert comb(24, 12) * comb(12, 6) > DEFAULT_WORK_BUDGET
        path = tmp_path / "big.json"
        path.write_text(dump_family(F))
        code, out = run_cli("analyze", str(path), "--p", "12", "--q", "6", capsys=capsys)
        assert code == EXIT_BUDGET and out.count("\n") == 1
        error = json.loads(out)["error"]
        assert error["type"] == "BudgetExceededError"
        assert f"budget is {DEFAULT_WORK_BUDGET}" in error["message"]


class TestPierceCommand:
    def test_exact(self, tmp_path, capsys):
        path = tmp_path / "fam.json"
        path.write_text(dump_family(extremal_dim1(5, 1)))
        code, out = run_cli("pierce", str(path), "--strategy", "exact", capsys=capsys)
        payload = json.loads(out)
        assert code == EXIT_OK and payload["certified"] and payload["size"] == 3

    def test_hd_1d_example(self, tmp_path, capsys):
        doc = {
            "format_version": "1",
            "dimension": 1,
            "bodies": [
                {"type": "interval", "lo": "0", "hi": "1"},
                {"type": "interval", "lo": "1/2", "hi": "2"},
                {"type": "interval", "lo": "3", "hi": "4"},
            ],
        }
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli(
            "pierce", str(path), "--strategy", "hd", "--p", "3", "--q", "2", capsys=capsys
        )
        payload = json.loads(out)
        assert code == EXIT_OK and payload["points"] == ["1", "4"]

    def test_premise_violation_exit_3(self, tmp_path, capsys):
        path = tmp_path / "fam.json"
        path.write_text(dump_family(random_family(GeneratorSpec("random_polygons", n=4, seed=2))))
        code, out = run_cli(
            "pierce", str(path), "--strategy", "line", "--p", "4", "--k", "0",
            "--line", "0,1,1000", capsys=capsys,
        )
        assert code == EXIT_PREMISE
        assert json.loads(out)["error"]["type"] == "PremiseViolationError"

    def test_line_with_leading_minus(self, tmp_path, capsys):
        squares = [[["0", "0"], ["2", "0"], ["2", "2"], ["0", "2"]],
                   [["1", "1"], ["3", "1"], ["3", "3"], ["1", "3"]]]
        doc = {"format_version": "1", "dimension": 2,
               "bodies": [{"type": "polygon", "vertices": v} for v in squares]}
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli(
            "pierce", str(path), "--strategy", "line", "--p", "2", "--k", "0",
            "--line", "-1,1,0", capsys=capsys,
        )
        assert code == EXIT_OK
        assert json.loads(out)["points"] == [["2", "2"]]

    @pytest.mark.parametrize("F, p, k, lines, differ", [
        (random_family(GeneratorSpec("random_polygons", n=5, seed=1)), "5", "2",
         ["1,1,1", "-1,1,0"], False),
        (Family.of([box(0, 0, 2, 2), box(1, 1, 3, 3)]), "2", "0", ["0,1,1", "-1,1,0"], True),
        (Family.of([box(0, 0, 2, 2), box(1, 1, 3, 3)]), "2", "0", ["-1,1,0", "0,1,1"], True),
    ], ids=["random-polygons", "squares", "squares-reversed"])
    def test_last_of_two_lines_is_kept(self, F, p, k, lines, differ, tmp_path, capsys):
        # argparse keeps an option's last value: every --line is joined to
        # its value, so a leading minus in either is no option name
        path = tmp_path / "fam.json"
        path.write_text(dump_family(F))
        argv = ["pierce", str(path), "--strategy", "line", "--p", p, "--k", k]
        alone = [run_cli(*argv, "--line", line, capsys=capsys) for line in lines]
        assert run_cli(*argv, "--line", lines[0], "--line", lines[1], capsys=capsys) == alone[1]
        assert (alone[0] != alone[1]) == differ

    @pytest.mark.parametrize("p, k, message", [
        ("1", "0", "need p >= q >= 2, got p=1, q=2"),
        ("5", "-1", "need 0 <= k <= p-q, got k=-1, p=5, q=2"),
        ("5", "4", "need 0 <= k <= p-q, got k=4, p=5, q=2"),
    ], ids=["p-1", "k-minus-1", "k-p-minus-1"])
    def test_line_range_exit_2(self, p, k, message, tmp_path, capsys):
        # dim1_threshold(p, 2, k) is the one check of the range of (p, k)
        path = tmp_path / "fam.json"
        path.write_text(dump_family(random_family(GeneratorSpec("random_polygons", n=5, seed=2))))
        code, out = run_cli("pierce", str(path), "--strategy", "line", "--p", p, f"--k={k}",
                            "--line", "0,1,0", capsys=capsys)
        assert code == EXIT_INPUT
        assert json.loads(out)["error"] == {"type": "ArityError", "message": message}


class TestGenerateCommand:
    def test_extremal_document(self, capsys):
        code, out = run_cli("generate", "extremal-dim1", "--p", "4", "--k", "0", capsys=capsys)
        payload = json.loads(out)
        assert code == EXIT_OK and len(payload["bodies"]) == 4
        assert payload["metadata"]["kind"] == "extremal_dim1"

    def test_byte_identical(self, capsys):
        _, first = run_cli("generate", "random-polygons", "--n", "5", "--seed", "7", capsys=capsys)
        _, second = run_cli("generate", "random-polygons", "--n", "5", "--seed", "7", capsys=capsys)
        assert first == second

    def test_round_trip_through_analyze(self, tmp_path, capsys):
        code, out = run_cli(
            "generate", "disjoint-plus-container", "--a", "2", "--b", "4",
            "--dimension", "2", capsys=capsys,
        )
        assert code == EXIT_OK
        path = tmp_path / "f.json"
        path.write_text(out)
        code, out = run_cli("analyze", str(path), "--p", "6", "--q", "2", capsys=capsys)
        assert code == EXIT_OK and json.loads(out)["max_r"] == "14"

    def test_spec_json(self, capsys):
        code, out = run_cli(
            "generate", "--spec-json",
            '{"kind": "random_intervals", "n": 4, "seed": 11}', capsys=capsys,
        )
        assert code == EXIT_OK and len(json.loads(out)["bodies"]) == 4

    def test_deeply_nested_spec_json_exit_2(self, capsys):
        code, out = run_cli("generate", "--spec-json", DEEP_JSON, capsys=capsys)
        assert_parse_error(code, out, "invalid spec JSON: ")

    @pytest.mark.parametrize("argv", [
        ["--spec-json", '{"kind": "random_polygons", "n": 2, "seed": 3, '
                        '"min_vertices": 1, "max_vertices": 2}'],
        ["--spec-json", '{"kind": "random_intervals", "n": 5, "seed": 4, "span": 3}'],
        ["extremal-dim1", "--p", "5", "--k", "1"],
        ["disjoint-plus-container", "--a", "2", "--b", "1", "--dimension", "2"],
    ], ids=["polygons-vertex-counts", "intervals-span", "extremal", "container"])
    def test_metadata_regenerates_document(self, argv, capsys):
        # metadata values are strings in the document; the spec takes ints
        code, out = run_cli("generate", *argv, capsys=capsys)
        assert code == EXIT_OK
        meta = json.loads(out)["metadata"]
        spec = {name: value if name == "kind" else int(value) for name, value in meta.items()}
        code, again = run_cli("generate", "--spec-json", json.dumps(spec), capsys=capsys)
        assert code == EXIT_OK and again == out

    def test_invalid_spec_exit_2(self, capsys):
        code, _ = run_cli("generate", "extremal-dim1", "--p", "2", "--k", "3", capsys=capsys)
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("argv, error", [
        (["extremal-dim1"], "ArityError"),
        (["extremal-dim1", "--p", "4"], "ArityError"),
        (["disjoint-plus-container", "--a", "1"], "ArityError"),
        (["--spec-json", '{"kind": "random_intervals", "n": "x"}'], "ParseError"),
        # a null seed would draw from the OS, a new family on every run
        (["--spec-json", '{"kind": "random_intervals", "n": 3, "seed": null}'], "ParseError"),
        (["--spec-json", '{"kind": "random_intervals", "n": true}'], "ParseError"),
        # coordinates are multiples of 1/grid
        (["random-intervals", "--n", "3", "--grid", "0"], "ArityError"),
        (["random-polygons", "--n", "3", "--grid", "0"], "ArityError"),
        (["random-intervals", "--n", "3", "--grid", "-1"], "ArityError"),
        (["--spec-json", '{"kind": "random_polygons", "n": 3, "grid": 0}'], "ArityError"),
        (["--spec-json", '{"kind": "random_intervals", "n": 3, "grid": -2}'], "ArityError"),
    ], ids=["no-p-or-k", "no-k", "no-b", "string-n", "null-seed", "boolean-n", "intervals-grid-0",
            "polygons-grid-0", "intervals-grid-minus-1", "spec-grid-0", "spec-grid-minus-2"])
    def test_incomplete_or_mistyped_spec_exit_2(self, argv, error, capsys):
        code, out = run_cli("generate", *argv, capsys=capsys)
        assert code == EXIT_INPUT
        assert json.loads(out)["error"]["type"] == error

    @pytest.mark.parametrize("argv, message", [
        (["random-intervals", "--n", "3", "--span", "-1"], "span must be >= 0, got -1"),
        (["random-polygons", "--n", "3", "--span", "-1"], "span must be >= 0, got -1"),
        (["random-intervals", "--n", "3", "--extent", "0"], "extent must be >= 1, got 0"),
        (["random-intervals", "--n", "3", "--extent", "-5"], "extent must be >= 1, got -5"),
        (["random-polygons", "--n", "3", "--extent", "-1"], "extent must be >= 0, got -1"),
        (["--spec-json", '{"kind": "random_intervals", "n": 3, "span": -2}'],
         "span must be >= 0, got -2"),
        (["--spec-json", '{"kind": "random_intervals", "n": 3, "extent": 0}'],
         "extent must be >= 1, got 0"),
        (["--spec-json", '{"kind": "random_polygons", "n": 3, "extent": -3}'],
         "extent must be >= 0, got -3"),
        (["--spec-json", '{"kind": "random_polygons", "n": 3, "min_vertices": 0}'],
         "min_vertices must be >= 1, got 0"),
        (["--spec-json", '{"kind": "random_polygons", "n": 3, "min_vertices": 5, '
                         '"max_vertices": 4}'], "max_vertices must be >= 5, got 4"),
    ], ids=["intervals-span", "polygons-span", "intervals-extent-0", "intervals-extent-minus-5",
            "polygons-extent", "spec-span", "spec-intervals-extent", "spec-polygons-extent",
            "spec-min-vertices", "spec-max-below-min"])
    def test_range_outside_the_draw_exit_2(self, argv, message, capsys):
        code, out = run_cli("generate", *argv, capsys=capsys)
        assert code == EXIT_INPUT
        assert json.loads(out)["error"] == {"type": "ArityError", "message": message}

    @pytest.mark.parametrize("argv", [
        ["random-intervals", "--n", "4", "--span", "0", "--extent", "1"],
        ["random-polygons", "--n", "4", "--span", "0", "--extent", "0"],
        ["--spec-json", '{"kind": "random_polygons", "n": 3, "min_vertices": 1, '
                        '"max_vertices": 1}'],
    ], ids=["intervals", "polygons", "one-vertex"])
    def test_range_ends_generate(self, argv, capsys):
        code, out = run_cli("generate", *argv, capsys=capsys)
        assert code == EXIT_OK and document_to_family(json.loads(out))


class TestExperimentCommand:
    def test_deeply_nested_config_exit_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(DEEP_JSON)
        code, out = run_cli("experiment", str(config), capsys=capsys)
        assert_parse_error(code, out, f"invalid JSON in {config}: ")

    def test_prop_dim1_grid(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"theorem": "prop-dim1", "grid": {"p": [5, 6]}}))
        out_path = tmp_path / "rows.csv"
        code, _ = run_cli("experiment", str(config), "--output", str(out_path), capsys=capsys)
        assert code == EXIT_OK
        lines = out_path.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header == [
            "seed", "n", "p", "q", "r_threshold", "max_r",
            "pierce_bound_claimed", "pierce_actual", "theorem_tag", "status",
        ]
        assert len(lines) > 5
        # extremal rows sit exactly one below the threshold and need k+2
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            assert int(row["max_r"]) == int(row["r_threshold"]) - 1
            assert int(row["pierce_actual"]) == int(row["pierce_bound_claimed"])
        assert (tmp_path / "rows.csv.config.json").exists()

    def test_thm5_dim1_grid(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"theorem": "thm5", "dimension": 1, "n": 6, "seeds": 5,
                        "grid": {"p": [3, 4]}})
        )
        out_path = tmp_path / "rows.csv"
        code, _ = run_cli("experiment", str(config), "--output", str(out_path), capsys=capsys)
        assert code == EXIT_OK
        lines = out_path.read_text().strip().splitlines()
        header = lines[0].split(",")
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            if row["status"] == "ok" and int(row["max_r"]) >= int(row["r_threshold"]):
                assert int(row["pierce_actual"]) <= int(row["pierce_bound_claimed"])

    def test_kalai_grid(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"theorem": "kalai", "dimension": 1, "n": 6, "seeds": 10}))
        code, out = run_cli("experiment", str(config), capsys=capsys)
        assert code == EXIT_OK
        lines = [line for line in out.splitlines() if line]
        assert len(lines) > 10

    def test_unknown_theorem_exit_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"theorem": "nope"}))
        code, _ = run_cli("experiment", str(config), capsys=capsys)
        assert code == EXIT_INPUT

    def test_kalai_grid_on_forty_intervals(self, tmp_path, capsys):
        # the f-vector of 40 intervals has terms up to C(40, 20): it must
        # come from the interval sweep, not from a subfamily walk
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"theorem": "kalai", "dimension": 1, "n": 40, "seeds": [0, 1]}))
        start = time.process_time()
        code, out = run_cli("experiment", str(config), capsys=capsys)
        assert time.process_time() - start < 10
        assert code == EXIT_OK
        header, *lines = out.strip().splitlines()
        rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
        assert {row["seed"] for row in rows} == {"0", "1"}
        for row in rows:
            assert int(row["max_r"]) <= int(row["r_threshold"])

    @staticmethod
    def _link_builds(config, tmp_path, capsys, monkeypatch):
        """The q of every links build that `experiment` on config makes."""
        built = []
        make = familymod._build_links

        def counting(nerve, q):
            built.append(q)
            return make(nerve, q)

        monkeypatch.setattr(familymod, "_build_links", counting)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, _ = run_cli("experiment", str(path), capsys=capsys)
        assert code == EXIT_OK
        return sorted(built)

    def test_thm5_walks_each_family_once_per_q(self, tmp_path, capsys, monkeypatch):
        # with n = 6 >= p, both p of a seed share one family, whose q <= 3
        # links the memo keeps on its nerve: 12 seeds x 3 q values build 36
        # links, not one per (seed, p, q) query
        config = {"theorem": "thm5", "dimension": 1, "n": 6, "seeds": 12, "grid": {"p": [3, 4]}}
        built = self._link_builds(config, tmp_path, capsys, monkeypatch)
        assert built == [2] * 12 + [3] * 12 + [4] * 12

    def test_thm5_2d_builds_links_past_q_3_per_query(self, tmp_path, capsys, monkeypatch):
        # the default grid asks q = 4 under p = 4 and 5, and q = 5 under
        # p = 5 and 6, of one shared family per seed: links past q = 3 are
        # not memoised, so each of those is built twice per seed
        config = {"theorem": "thm5", "dimension": 2, "n": 6, "seeds": 4}
        built = self._link_builds(config, tmp_path, capsys, monkeypatch)
        assert built == [3] * 4 + [4] * 8 + [5] * 8 + [6] * 4

    @pytest.mark.parametrize("field", [
        {"seeds": "x"}, {"seeds": [0, "1"]}, {"seeds": True},
        {"dimension": 3}, {"dimension": True},
        {"grid": [3]}, {"n": "x"}, {"grid": {"p": [3], "q": ["a"]}, "theorem": "prop-dim1"},
        [1, 2], {"seeds": -1},
    ])
    def test_malformed_config_exit_2(self, field, tmp_path, capsys):
        # a dict replaces fields of a valid config, anything else is the config
        base = {"theorem": "thm5", "n": 5, "grid": {"p": [3]}}
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**base, **field} if isinstance(field, dict) else field))
        code, out = run_cli("experiment", str(config), capsys=capsys)
        assert code == EXIT_INPUT
        assert json.loads(out)["error"]["type"] == "ParseError"
        named = next(iter(field)) if isinstance(field, dict) else "JSON object"
        assert named in json.loads(out)["error"]["message"]

    @pytest.mark.parametrize("config, shown", [
        (list(range(200_000)), "got list"),
        ({"theorem": "thm5", "grid": list(range(100_000))}, "got list"),
        ({"theorem": "thm5", "seeds": ["x"] * 100_000}, "got list"),
        ({"theorem": "thm5", "grid": {"p": ["x"] * 100_000}}, "got list"),
        ({"theorem": "thm5", "n": {str(i): i for i in range(100_000)}}, "got dict"),
        ({"theorem": "x" * 5000}, "theorem '" + "x" * (cli.SHOWN - 1) + "..."),
    ])
    def test_malformed_config_names_a_container_by_type(self, config, shown, tmp_path, capsys):
        # a rejected list or object is named, not echoed: the error line of
        # a config holding a million-byte list stays short
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, out = run_cli("experiment", str(path), capsys=capsys)
        assert code == EXIT_INPUT
        assert len(out.encode()) < 200
        assert json.loads(out)["error"]["message"].endswith(shown)


class TestExperimentClaims:
    def run(self, tmp_path, capsys, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out_path = tmp_path / "rows.csv"
        code = main(["experiment", str(path), "--output", str(out_path)])
        captured = capsys.readouterr()
        rows = out_path.read_text().splitlines() if out_path.exists() else []
        return code, captured, rows

    def test_thm5_rejects_q_outside_the_regime(self, tmp_path, capsys):
        # (5, 2) in the plane is outside the Hadwiger-Debrunner regime, so
        # no theorem claims p-q+1 = 4 for this family, which needs 5 points
        config = {"theorem": "thm5", "dimension": 2, "n": 8, "seeds": [8],
                  "grid": {"p": [5], "q": [2]}}
        code, captured, rows = self.run(tmp_path, capsys, config)
        assert code == EXIT_INPUT
        assert json.loads(captured.out)["error"] == {
            "type": "ArityError",
            "message": "thm5 needs q in the Hadwiger-Debrunner regime, got p=5, q=2, d=2",
        }
        assert not (tmp_path / "rows.csv.violation.json").exists()

    @pytest.mark.parametrize("dimension, q", [(1, 6), (1, 1), (2, 3), (2, 2)])
    def test_thm5_checks_every_grid_q_first(self, dimension, q, tmp_path, capsys):
        # a valid q comes first; no row is computed before the bad one is found
        config = {"theorem": "thm5", "dimension": dimension, "seeds": [0],
                  "grid": {"p": [5], "q": [5, q]}}
        code, captured, rows = self.run(tmp_path, capsys, config)
        assert code == EXIT_INPUT and rows == []
        error = json.loads(captured.out)["error"]
        assert error["type"] == "ArityError"
        assert f"p=5, q={q}, d={dimension}" in error["message"]

    @pytest.mark.parametrize("config, families", [
        ({"theorem": "thm5", "dimension": 1, "seeds": 4}, 4),
        ({"theorem": "thm5", "dimension": 2, "seeds": 3, "grid": {"p": [3, 5, 6]}}, 3),
        ({"theorem": "prop-dim1"}, 27),
    ], ids=["thm5-1d", "thm5-2d", "prop-dim1"])
    def test_each_family_pierced_once(self, config, families, tmp_path, capsys, monkeypatch):
        # with n = max(n, p) = 8 every p of a seed draws the same family;
        # prop-dim1 draws one extremal family per (p, k)
        calls = []

        def counting(F, *args, **kwargs):
            calls.append(F)
            return min_piercing(F, *args, **kwargs)

        min_piercing = piercing.min_piercing
        monkeypatch.setattr(piercing, "min_piercing", counting)
        code, _, rows = self.run(tmp_path, capsys, config)
        assert code == EXIT_OK and len(rows) - 1 > families
        assert len(calls) == len(set(calls)) == families

    def test_budget_rows(self, tmp_path, capsys):
        # 30 intervals at p = 15 overrun max_r's work budget
        config = {"theorem": "thm5", "dimension": 1, "n": 30, "seeds": [0],
                  "grid": {"p": [15], "q": [7, 15]}}
        code, _, rows = self.run(tmp_path, capsys, config)
        assert code == EXIT_OK
        assert rows[1:] == ["0,30,15,7,1,,9,,thm5,budget_exceeded",
                            "0,30,15,15,1,,1,,thm5,budget_exceeded"]

    def test_pierce_budget_row(self, tmp_path, capsys, monkeypatch):
        # a budget error of the piercing search also leaves its row marked
        def over_budget(F):
            raise BudgetExceededError("piercing search exceeded 1 nodes")

        monkeypatch.setattr(piercing, "min_piercing", over_budget)
        config = {"theorem": "thm5", "dimension": 1, "n": 6, "seeds": [0],
                  "grid": {"p": [4], "q": [3, 4]}}
        code, _, rows = self.run(tmp_path, capsys, config)
        assert code == EXIT_OK
        header = rows[0].split(",")
        for line in rows[1:]:
            row = dict(zip(header, line.split(",")))
            assert row["status"] == "budget_exceeded" and row["pierce_actual"] == ""
        assert len(rows) == 3

    def test_kalai_violation_exit_1(self, tmp_path, capsys, monkeypatch):
        # seed 0's intervals all meet, so it tests no s; seed 2's f-vector
        # is (5, 4, 1, 0, 0), so it tests s = 2, and q = 1 breaks a zero bound
        monkeypatch.setattr(bounds, "kalai_bound", lambda p, q, s, d: 0)
        config = {"theorem": "kalai", "dimension": 1, "n": 5, "seeds": [0, 2]}
        code, captured, rows = self.run(tmp_path, capsys, config)
        assert code == EXIT_VIOLATION and rows == [] and captured.out == ""
        dump = tmp_path / "rows.csv.violation.json"
        document = json.loads(dump.read_text())
        message = document["metadata"]["violation"]
        assert message == "f_(q-1)=5 exceeds bound 0 (seed 2, q=1, s=2)"
        assert document_to_family(document) == random_family(
            GeneratorSpec("random_intervals", n=5, seed=2))
        assert captured.err == f"violation: {message}; family dumped to {dump}\n"


class TestInternalFault:
    def test_uncaught_exception_exit_5(self, tmp_path, capsys, monkeypatch):
        def broken(F):
            raise AssertionError("piercing set misses body 0")

        monkeypatch.setattr(piercing, "min_piercing", broken)
        path = tmp_path / "fam.json"
        path.write_text(dump_family(extremal_dim1(4, 0)))
        code = main(["pierce", str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_INTERNAL
        assert json.loads(captured.out) == {
            "error": {"type": "AssertionError", "message": "piercing set misses body 0"}
        }
        assert captured.out.count("\n") == 1
        assert "Traceback" in captured.err

    def test_value_error_is_an_internal_fault(self, tmp_path, capsys, monkeypatch):
        # a ValueError no input check raised is a bug, not an input error
        def broken(F, p, q):
            raise ValueError("a bug")

        monkeypatch.setattr(familymod, "max_r", broken)
        path = tmp_path / "fam.json"
        path.write_text(dump_family(extremal_dim1(4, 0)))
        code = main(["analyze", str(path), "--p", "3", "--q", "2"])
        captured = capsys.readouterr()
        assert code == EXIT_INTERNAL
        assert captured.out == '{"error": {"message": "a bug", "type": "ValueError"}}\n'
        assert "Traceback" in captured.err and "ValueError: a bug" in captured.err


class TestNulPaths:
    """A NUL byte in a path makes open raise ValueError, not OSError: each
    path the CLI opens reports it as an input error."""

    @pytest.mark.parametrize("argv, message", [
        (["analyze", "a\0b", "--p", "1", "--q", "1"], "cannot read a\0b: embedded null byte"),
        (["experiment", "a\0b"], "cannot read a\0b: embedded null byte"),
        (["bounds", "thm1", "--p", "6", "--q", "3", "--output", "o\0x"],
         "cannot write o\0x: embedded null byte"),
    ], ids=["family", "experiment-config", "output"])
    def test_nul_path_exit_2(self, argv, message, capsys):
        code, out = run_cli(*argv, capsys=capsys)
        assert code == EXIT_INPUT and out.count("\n") == 1
        assert json.loads(out)["error"] == {"type": "ParseError", "message": message}


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pqpierce.cli", "bounds", "thm1",
             "--p", "6", "--q", "3", "--d", "2"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["threshold_r"] == "11"
