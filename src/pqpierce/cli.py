"""Command-line surface and file formats.

Subcommands: bounds, analyze, pierce, generate, experiment.  Families are
exchanged as JSON documents with rationals serialized as exact
"numerator/denominator" strings; experiment matrices are CSV.  One reader
takes every rational: the endpoints and coordinates of documents of both
dimensions, --epsilon and each --line coefficient.  JSON ints and plain "n"
and "n/d" strings are read as ints; any other form is read by `Fraction`,
whose grammar and messages apply.  Exit codes: 0 success, 1 theorem-claim
violation (experiment), 2 input error (a usage error too), 3 premise
violation, 4 budget exceeded, 5 internal fault (any other exception; its
traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import decimal
import functools
import json
import re
import sys
import traceback
from fractions import Fraction

from . import bounds as boundsmod
from . import family as familymod
from . import generators as genmod
from . import piercing as piercingmod
from .errors import (
    SHOWN,  # the length _shown cuts a value to, read as cli.SHOWN
    ArityError,
    BudgetExceededError,
    DimensionMismatchError,
    ParseError,
    PremiseViolationError,
    _shown,
)
from .family import Family
from .geometry import ConvexPolygon, Interval, Line, Point

FORMAT_VERSION = "1"

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_PREMISE = 3
EXIT_BUDGET = 4
EXIT_INTERNAL = 5

#: The exit code of each error type the CLI reports (OSError: a read or a
#: write that fails on a file once open); any other exception is an
#: internal fault.
ERROR_EXITS = (
    ((ParseError, ArityError, DimensionMismatchError, OSError), EXIT_INPUT),
    (PremiseViolationError, EXIT_PREMISE),
    (BudgetExceededError, EXIT_BUDGET),
)

#: The GeneratorSpec fields that ``generate`` takes as options.
GENERATOR_OPTIONS = ("p", "k", "a", "b", "dimension", "n", "seed", "span", "extent", "grid")

CSV_COLUMNS = [
    "seed",
    "n",
    "p",
    "q",
    "r_threshold",
    "max_r",
    "pierce_bound_claimed",
    "pierce_actual",
    "theorem_tag",
    "status",
]


# ---------------------------------------------------------------------------
# FamilyDocument serialization
# ---------------------------------------------------------------------------

#: the most digits of a value read by Fraction, CPython's limit on plain
#: numerals; Fraction's exponent form (integer digits, fraction digits,
#: exponent) escapes it, as Fraction builds 10^exponent before any check
MAX_DIGITS = 4300
_EXPONENT_FORM = re.compile(
    r"\s*[-+]?(?=\d|\.\d)(\d*|\d+(?:_\d+)*)(?:\.(\d*|\d+(?:_\d+)*))?[eE][-+]?(\d+(?:_\d+)*)\s*")


#: the forms every document this program writes uses
_PLAIN = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def _parse_ratio(value, where: str) -> tuple[int, int]:
    """The rational ``value`` as (numerator, denominator), the denominator
    positive but not reduced.  JSON ints and plain strings are read as
    ints; everything else by ``Fraction``, once the exponent-form guard
    has bounded its digits."""
    # 2000 bits is at most 603 digits, under the least int-to-str limit (640)
    if type(value) is int and value.bit_length() <= 2000:
        return value, 1
    if type(value) is str and _PLAIN.fullmatch(value):
        num, _, den = value.partition("/")
        try:
            num, den = int(num), int(den or 1)
        except ValueError:  # past the int-to-str digit limit
            den = 0
        if den:
            return num, den
    if form := _EXPONENT_FORM.fullmatch(str(value)):  # its digit counts bound the value's
        whole, part, exponent = (digits.replace("_", "") for digits in form.groups(""))
        if len(exponent) > MAX_DIGITS or len(whole) + len(part) + int(exponent) > MAX_DIGITS:
            raise ParseError(f"bad rational {_shown(value)} in {where}: more than {MAX_DIGITS} digits")
    try:
        value = Fraction(str(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {_shown(value)} in {where}: {_shown(exc, str)}") from None
    return value.numerator, value.denominator


def family_to_document(F: Family, metadata: dict | None = None) -> dict:
    bodies = [{"type": "interval", "lo": str(body.lo), "hi": str(body.hi)} if F.dimension == 1
              else {"type": "polygon", "vertices": [_serialize_point(v) for v in body.vertices]}
              for body in F.bodies]
    return {
        "format_version": FORMAT_VERSION,
        "dimension": F.dimension,
        "bodies": bodies,
        "metadata": {str(k): str(v) for k, v in (metadata or {}).items()},
    }


def document_to_family(doc: dict) -> Family:
    if not isinstance(doc, dict):
        raise ParseError("family document must be a JSON object")
    version = doc.get("format_version", FORMAT_VERSION)
    if str(version) != FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {_shown(version)}")
    dimension = doc.get("dimension")
    if type(dimension) is not int or dimension not in (1, 2):
        raise ParseError(f"dimension must be 1 or 2, got {_shown(dimension)}")
    raw_bodies = doc.get("bodies")
    if not isinstance(raw_bodies, list) or not raw_bodies:
        raise ParseError("bodies must be a nonempty list")
    bodies = []
    for idx, raw in enumerate(raw_bodies):
        where = f"body {idx}"
        if not isinstance(raw, dict) or "type" not in raw:
            raise ParseError(f"{where}: not an object with a type")
        kind = raw["type"]
        try:
            if kind == "interval":
                body = Interval(*(Fraction(*_parse_ratio(raw.get(end), where)) for end in ("lo", "hi")))
            elif kind == "polygon":
                verts = raw.get("vertices")
                if not isinstance(verts, list) or not verts:
                    raise ParseError(f"{where}: vertices must be a nonempty list")
                if not all(isinstance(v, list) and len(v) == 2 for v in verts):
                    raise ParseError(f"{where}: every vertex must be an [x, y] pair")
                body = ConvexPolygon._from_ratios(
                    [_parse_ratio(x, where) + _parse_ratio(y, where) for x, y in verts])
            else:
                raise ParseError(f"{where}: unknown body type {_shown(kind)}")
        except ValueError as exc:
            raise ParseError(f"{where}: {exc}") from None
        bodies.append(body)
    try:
        return Family(dimension, tuple(bodies))
    except DimensionMismatchError as exc:
        raise ParseError(str(exc)) from None


def dump_family(F: Family, metadata: dict | None = None) -> str:
    return json.dumps(family_to_document(F, metadata), sort_keys=True, indent=2) + "\n"


def _open(path: str, mode: str = "r"):
    """``open(path, mode)``; a path that open refuses, by an OSError or for
    a NUL byte, is a ParseError."""
    try:
        return open(path, mode)
    except (OSError, ValueError) as exc:
        raise ParseError(f"cannot {'read' if mode == 'r' else 'write'} {path}: {exc}") from None


def _read_json(path: str):
    try:
        with _open(path) as handle:
            return json.load(handle)
    except (ValueError, RecursionError) as exc:  # bad JSON, an int past the str limit, deep nesting
        raise ParseError(f"invalid JSON in {path}: {exc}") from None


def load_family(path: str) -> Family:
    return document_to_family(_read_json(path))


def _serialize_point(p) -> object:
    return [str(p.x), str(p.y)] if isinstance(p, Point) else str(p)


def _piercing_json(ps: piercingmod.PiercingSet, strategy: str) -> dict:
    return {
        "points": [_serialize_point(p) for p in ps.points],
        "size": len(ps),
        "certified": ps.certified,
        "strategy": strategy,
    }


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _emit(payload: dict, out) -> None:
    out.write(json.dumps(payload, sort_keys=True) + "\n")


def _digits(n: int) -> str:
    """Decimal digits of n at any length: ``str(n)`` stops at CPython's
    int-to-str limit (4300 digits by default), Decimal does not."""
    return str(decimal.Decimal(n))


def _bound_json(result) -> dict:
    return {
        "threshold_r": _digits(result.threshold_r),
        "pierce_bound": result.pierce_bound,
        "caveats": list(result.caveats),
    }


def _epsilon(args):
    """--epsilon as a Fraction, or None when it is not given."""
    return None if args.epsilon is None else Fraction(*_parse_ratio(args.epsilon, "--epsilon"))


#: Every theorem id of ``bounds``, in help order: the option it requires
#: (None for none) and its payload from the parsed arguments.
THEOREMS = {
    "thm1": (None, lambda a: _bound_json(boundsmod.ms_threshold(a.p, a.q, a.d))),
    "thm2": ("epsilon", lambda a: _bound_json(
        boundsmod.thm2_threshold(a.p, a.q, a.d, _epsilon(a)))),
    "thm3": ("k", lambda a: _bound_json(boundsmod.thm3_threshold(a.p, a.q, a.d, a.k))),
    "prop-dim1": ("k", lambda a: _bound_json(boundsmod.dim1_threshold(a.p, a.q, a.k))),
    "lemma-r0": ("f", lambda a: _bound_json(boundsmod.lemma_r0_threshold(a.p, a.q, a.d, a.f))),
    "remark": ("f", lambda a: _bound_json(
        boundsmod.remark_threshold(a.p, a.q, a.d, a.f, _epsilon(a)))),
    "kalai": ("s", lambda a: {"value": _digits(boundsmod.kalai_bound(a.p, a.q, a.s, a.d))}),
    "hd-region": (None, lambda a: {"piercing_number": boundsmod.hd_exact_region(a.p, a.q, a.d)}),
    "implied-q": ("r", lambda a: {"q_prime": boundsmod.implied_q(a.p, a.q, a.r, a.d)}),
}


def cmd_bounds(args, out) -> int:
    required, payload = THEOREMS[args.theorem]
    if required is not None and getattr(args, required) is None:
        raise ArityError(f"{args.theorem} requires --{required}")
    _emit(payload(args), out)
    return EXIT_OK


def cmd_analyze(args, out) -> int:
    F = load_family(args.family)
    report = familymod.max_r(F, args.p, args.q)
    level, _ = familymod.degeneracy_level(F)
    payload = {
        "p": args.p,
        "q": args.q,
        "max_r": str(report.max_r),
        "witness_subset": list(report.witness_subset),
        "f_q_minus_1": str(familymod.count_intersecting_qtuples(F, args.q)),
        "degeneracy_level": level,
        "n": len(F),
    }
    _emit(payload, out)
    return EXIT_OK


def _parse_line(text: str) -> Line:
    parts = text.split(",")
    if len(parts) != 3:
        raise ParseError(f"--line expects 'a,b,c', got {_shown(text)}")
    try:
        return Line(*(Fraction(*_parse_ratio(part.strip(), "--line")) for part in parts))
    except ValueError as exc:
        raise ParseError(f"--line: {exc}") from None


def cmd_pierce(args, out) -> int:
    F = load_family(args.family)
    if args.strategy == "exact":
        result = piercingmod.min_piercing(F)
    elif args.strategy == "hd":
        if args.p is None or args.q is None:
            raise ArityError("strategy hd requires --p and --q")
        result = piercingmod.hd_pierce(F, args.p, args.q)
    else:  # line
        if args.p is None or args.k is None or args.line is None:
            raise ArityError("strategy line requires --p, --k and --line")
        result = piercingmod.line_pierce(F, _parse_line(args.line), args.p, args.k)
    _emit(_piercing_json(result, args.strategy), out)
    return EXIT_OK


def _spec_from_args(args) -> genmod.GeneratorSpec:
    if args.spec_json is not None:
        try:
            raw = json.loads(args.spec_json)
        except (ValueError, RecursionError) as exc:  # as in _read_json
            raise ParseError(f"invalid spec JSON: {exc}") from None
        if not isinstance(raw, dict) or "kind" not in raw:
            raise ParseError("spec JSON must be an object with a 'kind'")
        allowed = set(genmod.GeneratorSpec.__dataclass_fields__)
        unknown = set(raw) - allowed
        if unknown:
            raise ParseError(f"unknown spec fields: {_shown(str(sorted(unknown)), str)}")
        for name, value in raw.items():
            if name != "kind" and type(value) is not int:
                raise ParseError(f"spec field {name} must be an int, got {_shown(value)}")
        return genmod.GeneratorSpec(**raw)
    if args.kind is None:
        raise ArityError("generate requires a kind or --spec-json")
    fields = {name: getattr(args, name) for name in GENERATOR_OPTIONS
              if getattr(args, name) is not None}
    return genmod.GeneratorSpec(kind=args.kind.replace("-", "_"), **fields)


def cmd_generate(args, out) -> int:
    spec = _spec_from_args(args)
    F = genmod.random_family(spec)
    # every field, so that the metadata read back as --spec-json is the spec
    meta = {name: value for name, value in dataclasses.asdict(spec).items()
            if value is not None}
    out.write(dump_family(F, metadata=meta))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def _int_list(value) -> bool:
    return type(value) is list and all(type(item) is int for item in value)


def _experiment_rows(config):
    """Check the whole config, then yield (row, family, violation or None)."""
    if not isinstance(config, dict):
        raise ParseError(f"experiment config must be a JSON object, got {_shown(config)}")
    seeds = config.get("seeds", 20)
    if type(seeds) is int and seeds >= 0:
        seeds = range(seeds)
    elif not _int_list(seeds):
        raise ParseError(f"seeds must be a nonnegative int or a list of ints, got {_shown(seeds)}")
    dimension = config.get("dimension", 1)
    if type(dimension) is not int or dimension not in (1, 2):
        raise ParseError(f"dimension must be 1 or 2, got {_shown(dimension)}")
    tag = config.get("theorem")
    if tag not in ("thm5", "prop-dim1", "kalai"):
        raise ParseError(f"unknown experiment theorem {_shown(tag)}")
    n = config.get("n", 8)
    if type(n) is not int:
        raise ParseError(f"n must be an int, got {_shown(n)}")
    grid = config.get("grid", {})
    if type(grid) is not dict:
        raise ParseError(f"grid must be an object, got {_shown(grid)}")
    for key in ("p", "q", "k"):
        if key in grid and not _int_list(grid[key]):
            raise ParseError(f"grid {key} must be a list of ints, got {_shown(grid[key])}")
    kind = "random_intervals" if dimension == 1 else "random_polygons"
    draw = lambda seed, size: genmod.random_family(genmod.GeneratorSpec(kind, n=size, seed=seed))
    piercing_number = lambda F: len(piercingmod.min_piercing(F))
    if tag == "thm5":
        queries = []  # (p, [(q, claimed)]); every grid q is checked before any row
        for p in grid.get("p", [3, 4, 5, 6]):
            claims = []
            for q in grid.get("q") or range(dimension + 1, p + 1):
                try:
                    claimed = boundsmod.hd_exact_region(p, q, dimension)
                except ArityError:  # q > p or q <= d: outside the regime too
                    claimed = None
                if claimed is not None:
                    claims.append((q, claimed))
                elif grid.get("q"):
                    raise ArityError(f"thm5 needs q in the Hadwiger-Debrunner regime, "
                                     f"got p={p}, q={q}, d={dimension}")
            queries.append((p, claims))
        for seed in seeds:
            # the seed's families, one per size, dropped with the seed: every p
            # with the same max(n, p) shares one, so the links of q <= 3 memoised
            # on its nerve, and its 2D pair regions, serve all of the seed's
            # queries; links past q = 3 are built again for each p that asks
            sized = functools.cache(functools.partial(draw, seed))
            pierced = functools.cache(piercing_number)
            for p, claims in queries:
                F = sized(max(n, p))
                for q, claimed in claims:
                    yield _finish_row(tag, seed, F, p, q, 1, claimed, pierced)
    elif tag == "prop-dim1":
        pierced = functools.cache(piercing_number)  # for the run: the grid bounds its families
        for p in grid.get("p", [4, 5, 6, 7, 8, 9]):
            for q in grid.get("q") or range(2, p + 1):
                for k in grid.get("k") or range(0, p - q):
                    # the family first: for a k out of range of both, its
                    # error is the one reported
                    F = genmod.extremal_dim1(p, k)
                    r = boundsmod.dim1_threshold(p, q, k).threshold_r
                    yield _finish_row(tag, 0, F, p, q, r, k + 2, pierced)
    else:  # kalai
        for seed in seeds:
            F = draw(seed, n)
            fvec = familymod.f_vector(F)
            for s in range(0, len(F) - dimension):
                if fvec[dimension + s] != 0:
                    continue
                for q in range(1, len(F) + 1):
                    bound = boundsmod.kalai_bound(len(F), q, s, dimension)
                    observed = fvec[q - 1]
                    row = _row(tag, seed, F, len(F), q, bound, len(F), max_r=observed, status="ok")
                    violation = f"f_(q-1)={observed} exceeds bound {bound} (seed {seed}, q={q}, s={s})"
                    yield row, F, violation if observed > bound else None
                break  # smallest s dominates; one row set per seed and q


def _row(tag: str, seed: int, F: Family, p: int, q: int, r, claimed: int, **columns) -> dict:
    """The columns every theorem's row fills, then ``columns``."""
    return {"seed": seed, "n": len(F), "p": p, "q": q, "r_threshold": r,
            "theorem_tag": tag, "pierce_bound_claimed": claimed, **columns}


def _finish_row(tag: str, seed: int, F: Family, p: int, q: int, r, claimed: int, pierced) -> tuple:
    """The row of one (p, q) query on F, with the family and a violation
    of the claimed piercing bound or None; pierced(F) is F's piercing number."""
    row = _row(tag, seed, F, p, q, r, claimed)
    try:
        row["max_r"] = found = familymod.max_r(F, p, q).max_r
        row["pierce_actual"] = actual = pierced(F)
    except BudgetExceededError:  # the CSV writer leaves unset columns empty
        row["status"] = "budget_exceeded"
        return row, F, None
    row["status"] = "ok"
    violation = None
    if found >= r and actual > claimed:
        violation = f"pierced by {actual} > claimed {claimed} (seed {seed}, p={p}, q={q})"
    return row, F, violation


def cmd_experiment(args, out) -> int:
    config = _read_json(args.config)
    rows = []
    for row, F, violation in _experiment_rows(config):
        rows.append(row)
        if violation is not None:
            dump_path = (args.output or "experiment") + ".violation.json"
            with _open(dump_path, "w") as handle:
                handle.write(dump_family(F, metadata={"violation": violation}))
            sys.stderr.write(f"violation: {violation}; family dumped to {dump_path}\n")
            return EXIT_VIOLATION
    rows.sort(key=lambda r: (str(r["theorem_tag"]), r["p"], r["q"], str(r["r_threshold"]), r["seed"]))

    writer = csv.DictWriter(out, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    writer.writerows(rows)
    if args.output:
        with _open(args.output + ".config.json", "w") as handle:
            json.dump(config, handle, sort_keys=True, indent=2)
            handle.write("\n")
    else:
        sys.stderr.write("config: " + json.dumps(config, sort_keys=True) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """A usage error raises ParseError (exit 2); subparsers share the class."""

    def error(self, message):
        raise ParseError(message)


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """Built once: building costs about fifteen parses."""
    parser = _Parser(
        prog="pqpierce",
        description="Exact piercing thresholds, property checks, and solvers "
        "for families of convex sets in dimensions 1 and 2.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bounds", help="evaluate a threshold or bound formula")
    b.add_argument("theorem", choices=list(THEOREMS))
    b.add_argument("--p", type=int, required=True)
    b.add_argument("--q", type=int, required=True)
    b.add_argument("--d", type=int, default=1)
    b.add_argument("--k", type=int)
    b.add_argument("--f", type=int)
    b.add_argument("--s", type=int)
    b.add_argument("--r", type=int)
    b.add_argument("--epsilon", type=str, help="rational like 1/2")
    b.set_defaults(func=cmd_bounds)

    a = sub.add_parser("analyze", help="report max_r and degeneracy of a family file")
    a.add_argument("family")
    a.add_argument("--p", type=int, required=True)
    a.add_argument("--q", type=int, required=True)
    a.set_defaults(func=cmd_analyze)

    p = sub.add_parser("pierce", help="compute a certified piercing set")
    p.add_argument("family")
    p.add_argument("--strategy", choices=["exact", "hd", "line"], default="exact")
    p.add_argument("--p", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--line", type=str, help="a,b,c for the line a*x+b*y=c")
    p.set_defaults(func=cmd_pierce)

    g = sub.add_parser("generate", help="emit a deterministic family document")
    g.add_argument("kind", nargs="?", choices=[kind.replace("_", "-") for kind in genmod.KINDS])
    g.add_argument("--spec-json", type=str, help="full GeneratorSpec as JSON")
    for name in GENERATOR_OPTIONS:
        g.add_argument("--" + name, type=int)
    g.set_defaults(func=cmd_generate)

    e = sub.add_parser("experiment", help="run a validation grid and write CSV")
    e.add_argument("config", help="JSON config file")
    e.set_defaults(func=cmd_experiment)

    for command in (b, a, p, g, e):
        command.add_argument("--output", type=str, help="write to this file instead of stdout")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    while "--line" in argv[:-1]:  # argparse reads a value such as "-1,1,0" as an option name
        i = argv.index("--line")
        argv[i:i + 2] = ["--line=" + argv[i + 1]]
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "output", None):
            with _open(args.output, "w") as handle:
                return args.func(args, handle)
        return args.func(args, sys.stdout)
    except SystemExit:  # only --help exits; usage errors raise ParseError
        return EXIT_OK
    except Exception as exc:
        code = next((code for types, code in ERROR_EXITS if isinstance(exc, types)), EXIT_INTERNAL)
        if code == EXIT_INTERNAL:
            traceback.print_exc()
        error = {"type": type(exc).__name__, "message": str(exc)}
        witness = getattr(exc, "witness", None)
        if witness is not None:
            error["witness"] = list(witness)
        _emit({"error": error}, sys.stdout)
        return code


if __name__ == "__main__":
    sys.exit(main())
