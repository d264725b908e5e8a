"""Command-line front end.

Subcommands
-----------
genus      q-expansion of the level-N genus from a Chern-number file,
           with per-coefficient integrality and a modularity verdict
f-rep      two-variable representative from a split Chern-number file
reduce-u   canonical class of a q-series in the one-variable quotient
reduce-w   canonical class of a (p, q)-series in the two-variable quotient
basis      certified q-expansion basis at the requested degree
selfcheck  run the built-in verification corpus

Levels: --level N >= 4 is accepted, but every command that builds a
modular basis (genus at positive dimension, reduce-u, reduce-w, basis)
needs the weight-1 dimension, which is known only when X_1(N) has
genus 0, i.e. N in {4, ..., 10, 12}; other levels exit 3.

Exit codes: 0 success, 2 span certification failure, 3 input/parse
error, 4 insufficient precision.  With --machine the report is a single
deterministic JSON document (sorted keys, no whitespace).
"""

from __future__ import annotations

import argparse
import json
import sys

from .cyclo import Cyclo, _exact, in_NZ
from .errors import BadChernData, BadSplitChernData, EllGenusError, \
    PrecisionInsufficient, SpanFailure, UnsupportedLevel
from .genus import ChernData, SplitChernData, genus, genus_bivariate
from .modforms import is_in_span, sturm_bound, weight_basis
from .reduce import reduce_Uq, reduce_Wtilde
from .selfcheck import format_report, run_checks
from .series import PQSeries, QSeries

EXIT_OK = 0
EXIT_SPAN = 2
EXIT_PARSE = 3
EXIT_PRECISION = 4


class ParseError(Exception):
    """Any malformed input file or key."""


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _integer(value) -> int:
    x = _exact(value)
    if x.denominator != 1:
        raise ValueError(f"{value!r} is not an integer")
    return x.numerator


def _coefficient(level: int, value) -> Cyclo:
    if not isinstance(value, list):
        raise ValueError(f"{value!r} is not a list of coordinates")
    return Cyclo.deserialize(level, value)


def _parse_partition(key: str) -> tuple[int, ...]:
    if key == "":
        return ()
    try:
        parts = tuple(int(t) for t in key.split(","))
    except ValueError as exc:
        raise ParseError(f"bad partition key {key!r}") from exc
    if any(p <= 0 for p in parts) or list(parts) != sorted(parts, reverse=True):
        raise ParseError(f"partition key {key!r} is not weakly decreasing positive")
    return parts


def _load_chern(path: str) -> ChernData:
    doc = _load_json(path)
    try:
        dim = _integer(doc["dim"])
        chern = {
            _parse_partition(k): _integer(v) for k, v in dict(doc["chern"]).items()
        }
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"{path}: malformed Chern data ({exc})") from exc
    try:
        return ChernData(dim, chern)
    except BadChernData as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _load_split(path: str) -> SplitChernData:
    doc = _load_json(path)
    try:
        dim0 = _integer(doc["dim0"])
        dim1 = _integer(doc["dim1"])
        chern = {}
        for key, value in dict(doc["chern"]).items():
            left, _, right = key.partition("|")
            chern[(_parse_partition(left), _parse_partition(right))] = _integer(value)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"{path}: malformed split Chern data ({exc})") from exc
    try:
        return SplitChernData(dim0, dim1, chern)
    except BadSplitChernData as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _series_level(value) -> int:
    level = _integer(value)
    if level < 1:
        raise ValueError(f"level {level} is not positive")
    return level


def _load_qseries(path: str) -> QSeries:
    doc = _load_json(path)
    try:
        level = _series_level(doc["level"])
        coeffs = [_coefficient(level, c) for c in doc["coeffs"]]
        return QSeries(level, len(coeffs), coeffs)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"{path}: malformed q-series ({exc})") from exc


def _load_pqseries(path: str) -> PQSeries:
    doc = _load_json(path)
    try:
        level = _series_level(doc["level"])
        rows = [[_coefficient(level, c) for c in row] for row in doc["rows"]]
        if any(len(row) != len(rows[0]) for row in rows):
            raise ValueError("rows differ in length")
        return PQSeries(level, len(rows), len(rows[0]), rows)
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        raise ParseError(f"{path}: malformed (p, q)-series ({exc})") from exc


def _emit(report: dict, human: str, args) -> None:
    text = (
        json.dumps(report, sort_keys=True, separators=(",", ":"))
        if args.machine
        else human
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_genus(args) -> int:
    data = _load_chern(args.input)
    weight = data.dim
    floor = sturm_bound(args.level, weight) if weight else 1
    prec = max(args.prec_q, floor)
    # the basis first: an unsupported level fails before the genus is built
    basis = weight_basis(args.level, weight, prec) if weight else None
    g = genus(data, args.level, prec)
    integral = [bool(in_NZ(c)) for c in g.coeffs]
    if weight:
        modular, _ = is_in_span(g, basis)
    else:
        modular = all(not c for c in g.coeffs[1:])
    report = {
        "command": "genus",
        "level": args.level,
        "dim": data.dim,
        "prec_q": prec,
        "sturm_floor": floor,
        "coeffs": g.serialize(),
        "integral": integral,
        "all_integral": all(integral),
        "modular": bool(modular),
    }
    lines = [f"level-{args.level} genus, dim {data.dim}, prec {prec} (sturm floor {floor})"]
    for n, (c, ok) in enumerate(zip(g.coeffs, integral)):
        lines.append(f"  q^{n}: {c!r}  [{'integral' if ok else 'NOT integral'}]")
    lines.append(f"  all coefficients integral: {all(integral)}")
    lines.append(f"  modular of weight {weight}: {modular}")
    _emit(report, "\n".join(lines), args)
    return EXIT_OK


def cmd_frep(args) -> int:
    data = _load_split(args.input)
    weight = (data.dim0 + data.dim1)
    floor = sturm_bound(args.level, weight) if weight else 1
    prec_p = max(args.prec_p, floor)
    prec_q = max(args.prec_q, floor)
    F = genus_bivariate(data, args.level, prec_p, prec_q)
    integral = all(in_NZ(F[i, j]) for i in range(prec_p) for j in range(prec_q))
    report = {
        "command": "f-rep",
        "level": args.level,
        "dims": [data.dim0, data.dim1],
        "prec_p": prec_p,
        "prec_q": prec_q,
        "sturm_floor": floor,
        "rows": F.serialize(),
        "all_integral": bool(integral),
    }
    lines = [
        f"two-variable representative, level {args.level}, dims "
        f"({data.dim0}, {data.dim1}), rectangle {prec_p} x {prec_q} (sturm floor {floor})",
        f"  all coefficients integral: {integral}",
    ]
    for i in range(min(prec_p, 4)):
        row = "  ".join(repr(F[i, j]) for j in range(min(prec_q, 4)))
        lines.append(f"  p^{i}: {row}")
    _emit(report, "\n".join(lines), args)
    return EXIT_OK


def _require_degree(args) -> int:
    if args.degree is None:
        raise ParseError("--degree is required for this command")
    if args.degree % 2 or args.degree < 2:
        raise ParseError("--degree must be even and positive")
    return args.degree


def cmd_reduce_u(args) -> int:
    degree = _require_degree(args)
    s = _load_qseries(args.input)
    cls = reduce_Uq(s, args.level, degree, min(args.prec_q, s.prec))
    report = {"command": "reduce-u", **cls.serialize()}
    lines = [
        f"one-variable reduction, level {args.level}, degree {degree}, "
        f"prec {cls.prec} (sturm floor {cls.modular_part['sturm']})",
        f"  trivial: {cls.trivial}",
        f"  residual: {cls.rep!r}",
    ]
    _emit(report, "\n".join(lines), args)
    return EXIT_OK


def cmd_reduce_w(args) -> int:
    degree = _require_degree(args)
    s = _load_pqseries(args.input)
    cls = reduce_Wtilde(s, args.level, degree)
    report = {"command": "reduce-w", **cls.serialize()}
    lines = [
        f"two-variable reduction, level {args.level}, degree {degree}, "
        f"rectangle {cls.prec_p} x {cls.prec_q}",
        f"  trivial: {cls.trivial}",
        f"  p^0 row trivial: {cls.row_class.trivial}",
        f"  q^0 column trivial: {cls.column_class.trivial}",
    ]
    _emit(report, "\n".join(lines), args)
    return EXIT_OK


def cmd_basis(args) -> int:
    degree = _require_degree(args)
    weight = degree // 2
    floor = sturm_bound(args.level, weight)
    prec = max(args.prec_q, floor)
    basis = weight_basis(args.level, weight, prec)
    report = {"command": "basis", **basis.serialize()}
    lines = [
        f"basis of weight {weight} at level {args.level}, prec {prec} "
        f"(sturm floor {floor})",
        f"  dimension {basis.certificate['dimension']}, "
        f"rank {basis.certificate['rank']}",
    ]
    for i, e in enumerate(basis.elements):
        lines.append(f"  [{i}] {e!r}")
    _emit(report, "\n".join(lines), args)
    return EXIT_OK


def cmd_selfcheck(args) -> int:
    results = run_checks()
    report = {
        "command": "selfcheck",
        "checks": [
            {
                "number": r.number,
                "name": r.name,
                "passed": r.passed,
                "detail": r.detail,
            }
            for r in results
        ],
        "passed": all(r.passed for r in results),
    }
    _emit(report, format_report(results), args)
    return EXIT_OK if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellgenus",
        description="exact level-N elliptic genus, modular bases, and quotient reductions",
    )
    parser.add_argument("--level", type=int, default=5, help="level N in 4..10 or 12 (default 5)")
    parser.add_argument("--prec-q", type=int, default=10, help="q-precision (default 10)")
    parser.add_argument("--prec-p", type=int, default=10, help="p-precision (default 10)")
    parser.add_argument("--degree", type=int, default=None,
                        help="even topological degree (weight = degree/2)")
    parser.add_argument("--out", default=None, help="write the report to a file")
    parser.add_argument("--machine", action="store_true",
                        help="deterministic JSON output")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, needs_input in (
        ("genus", cmd_genus, True),
        ("f-rep", cmd_frep, True),
        ("reduce-u", cmd_reduce_u, True),
        ("reduce-w", cmd_reduce_w, True),
        ("basis", cmd_basis, False),
        ("selfcheck", cmd_selfcheck, False),
    ):
        p = sub.add_parser(name)
        if needs_input:
            p.add_argument("input", help="input file")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.level < 4:
        print("error: level must be >= 4", file=sys.stderr)
        return EXIT_PARSE
    if args.prec_q < 1 or args.prec_p < 1:
        print("error: precisions must be positive", file=sys.stderr)
        return EXIT_PARSE
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SpanFailure as exc:
        print(f"error: span certification failed: {exc}", file=sys.stderr)
        return EXIT_SPAN
    except PrecisionInsufficient as exc:
        print(f"error: insufficient precision: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except (UnsupportedLevel, EllGenusError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
