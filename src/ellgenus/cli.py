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

The library types (ChernData, SplitChernData, QSeries, PQSeries) read
every input document; files and integer options follow one number rule.

Size bound: before it builds anything, each command estimates in closed
form how many integer entries it would build, and exits 3 when that is
above SIZE_BOUND = 10^7 (``errors.SIZE_BOUND``).  A basis counts the
candidate rows of every weight of its chain times the precision; genus
counts N phi(N) for the field, p(n) phi(N) prec for the class of
dimension n and phi(N) prec for the result; f-rep counts both classes and
the prec_p x prec_q rectangle.

Exit codes: 0 success, 1 a self-check failed, 2 span certification
failure, 3 input/parse or usage error (an output file that cannot be
written and a size estimate above the bound included), 4 insufficient
precision.  With --machine the report is a single deterministic JSON
document (sorted keys, no whitespace).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import SIZE_BOUND, EllGenusError, PrecisionInsufficient, SpanFailure
from .integers import _integer
from .modforms import ambient_field_level, is_in_span, sturm_bound, weight_basis

EXIT_OK = 0
EXIT_SPAN = 2
EXIT_PARSE = 3
EXIT_PRECISION = 4


class ParseError(Exception):
    """Any malformed input file or key."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors exit EXIT_PARSE, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def _object(pairs: list) -> dict:
    """A JSON object as a dict; a repeated key is refused, not overwritten."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"key {key!r} is repeated")
        out[key] = value
    return out


def _load(path: str, build):
    """``build`` applied to the JSON document at ``path``; any flaw is a ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return build(json.load(fh, object_pairs_hook=_object))
    except (OSError, ValueError, KeyError, TypeError, IndexError, ZeroDivisionError,
            EllGenusError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _emit(report: dict, human, args) -> None:
    """Write the report as JSON under --machine, else the text ``human()`` returns.

    ``human`` is a function of no arguments, so a --machine run never
    builds the text.
    """
    text = (
        json.dumps(report, sort_keys=True, separators=(",", ":"))
        if args.machine
        else human()
    )
    if args.out:
        try:
            args.out_file.truncate(0)
            args.out_file.write(text + "\n")
            args.out_file.flush()
        except OSError as exc:
            raise ParseError(f"{args.out}: {exc.strerror or exc}") from exc
    else:
        print(text)


def cmd_genus(args) -> int:
    from .cyclo import in_NZ
    from .genus import ChernData, _check_size, genus

    data = _load(args.input, lambda d: ChernData(d["dim"], dict(d["chern"])))
    weight = data.dim
    floor = sturm_bound(args.level, weight)
    prec = max(args.prec_q, floor)
    _check_size(args.level, [(weight, prec)], prec)
    # the basis next: an unsupported level fails before the genus is built.
    # Weight 0 needs no basis: M_0 is the constants.  is_in_span lifts only
    # the coefficients at the pivots to Q(zeta_L), L = lcm(N, exponent of
    # (Z/N)^*), but its first lift builds _power_table(L), about L rows of
    # phi(L) integers, which at large N costs far more than the genus itself
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

    def human():
        lines = [f"level-{args.level} genus, dim {data.dim}, prec {prec} (sturm floor {floor})"]
        for n, (c, ok) in enumerate(zip(g.coeffs, integral)):
            lines.append(f"  q^{n}: {c!r}  [{'integral' if ok else 'NOT integral'}]")
        lines.append(f"  all coefficients integral: {all(integral)}")
        lines.append(f"  modular of weight {weight}: {modular}")
        return "\n".join(lines)

    _emit(report, human, args)
    return EXIT_OK


def cmd_frep(args) -> int:
    from .cyclo import in_NZ
    from .genus import SplitChernData, _check_size, genus_bivariate

    data = _load(args.input, lambda d: SplitChernData(d["dim0"], d["dim1"], dict(d["chern"])))
    weight = (data.dim0 + data.dim1)
    floor = sturm_bound(args.level, weight)
    prec_p = max(args.prec_p, floor)
    prec_q = max(args.prec_q, floor)
    _check_size(args.level, [(data.dim0, prec_p), (data.dim1, prec_q)], prec_p * prec_q)
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

    def human():
        lines = [
            f"two-variable representative, level {args.level}, dims "
            f"({data.dim0}, {data.dim1}), rectangle {prec_p} x {prec_q} (sturm floor {floor})",
            f"  all coefficients integral: {integral}",
        ]
        for i in range(min(prec_p, 4)):
            row = "  ".join(repr(F[i, j]) for j in range(min(prec_q, 4)))
            lines.append(f"  p^{i}: {row}")
        return "\n".join(lines)

    _emit(report, human, args)
    return EXIT_OK


def _require_degree(args) -> int:
    if args.degree is None:
        raise ParseError("--degree is required for this command")
    if args.degree % 2 or args.degree < 2:
        raise ParseError("--degree must be even and positive")
    return args.degree


def _series_level(doc: dict, K: int) -> int:
    """The level of a series document, refused unless it divides K, before a coefficient exists."""
    level = _integer(doc["level"])
    if level >= 1 and K % level:  # a level below 1 is refused as its coefficients are read
        raise ValueError(f"series level {level} does not divide {K}")
    return level


def cmd_reduce_u(args) -> int:
    from .reduce import reduce_Uq
    from .series import QSeries

    degree = _require_degree(args)
    L = ambient_field_level(args.level)  # the level reduce_Uq lifts a series to
    s = _load(args.input, lambda d: QSeries.deserialize(_series_level(d, L), d["coeffs"]))
    cls = reduce_Uq(s, args.level, degree, min(args.prec_q, s.prec))
    report = {"command": "reduce-u", **cls.serialize()}
    _emit(report, lambda: "\n".join([
        f"one-variable reduction, level {args.level}, degree {degree}, "
        f"prec {cls.prec} (sturm floor {cls.modular_part['sturm']})",
        f"  trivial: {cls.trivial}",
        f"  residual: {cls.rep!r}",
    ]), args)
    return EXIT_OK


def cmd_reduce_w(args) -> int:
    from .reduce import reduce_Wtilde
    from .series import PQSeries

    degree = _require_degree(args)
    s = _load(args.input, lambda d: PQSeries.deserialize(_series_level(d, args.level), d["rows"]))
    cls = reduce_Wtilde(s, args.level, degree)
    report = {"command": "reduce-w", **cls.serialize()}
    _emit(report, lambda: "\n".join([
        f"two-variable reduction, level {args.level}, degree {degree}, "
        f"rectangle {cls.prec_p} x {cls.prec_q}",
        f"  trivial: {cls.trivial}",
        f"  p^0 row trivial: {cls.row_class.trivial}",
        f"  q^0 column trivial: {cls.column_class.trivial}",
    ]), args)
    return EXIT_OK


def cmd_basis(args) -> int:
    degree = _require_degree(args)
    weight = degree // 2
    floor = sturm_bound(args.level, weight)
    prec = max(args.prec_q, floor)
    basis = weight_basis(args.level, weight, prec)
    report = {"command": "basis", **basis.serialize()}

    def human():
        lines = [
            f"basis of weight {weight} at level {args.level}, prec {prec} "
            f"(sturm floor {floor})",
            f"  dimension {basis.certificate['dimension']}, "
            f"rank {basis.certificate['rank']}",
        ]
        for i, e in enumerate(basis.elements):
            lines.append(f"  [{i}] {e!r}")
        return "\n".join(lines)

    _emit(report, human, args)
    return EXIT_OK


def cmd_selfcheck(args) -> int:
    from .selfcheck import format_report, run_checks

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
    _emit(report, lambda: format_report(results), args)
    return EXIT_OK if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    integer = functools.partial(_integer, error=argparse.ArgumentTypeError)
    parser = _Parser(
        prog="ellgenus",
        description="exact level-N elliptic genus, modular bases, and quotient reductions",
        epilog=f"Each command first estimates the integer entries it would build and "
               f"exits 3 above {SIZE_BOUND}.  Exit codes: 0 success, 1 a self-check "
               f"failed, 2 span certification failure, 3 input, usage or size error, "
               f"4 insufficient precision.",
    )
    parser.add_argument("--level", type=integer, default=5, help="level N in 4..10 or 12 (default 5)")
    parser.add_argument("--prec-q", type=integer, default=10, help="q-precision (default 10)")
    parser.add_argument("--prec-p", type=integer, default=10, help="p-precision (default 10)")
    parser.add_argument("--degree", type=integer, default=None,
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
    try:
        if args.level < 4:
            raise ParseError("level must be >= 4")
        if args.prec_q < 1 or args.prec_p < 1:
            raise ParseError("precisions must be positive")
        if not args.out:
            return args.fn(args)
        # opened before the command runs, so a path that cannot be written
        # fails fast; "a" keeps an existing file until the report exists
        try:
            out_file = open(args.out, "a", encoding="utf-8")
        except OSError as exc:
            raise ParseError(f"{args.out}: {exc.strerror or exc}") from exc
        with out_file:
            args.out_file = out_file
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
    except (EllGenusError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
