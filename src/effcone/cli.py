"""Command-line interface: every library operation behind one executable.

All payloads are emitted as deterministic JSON (sorted keys, exact rationals
rendered as "num/den" strings, integers as integers); the tabular commands
(``gamma``, ``verify``) can emit CSV instead.  Exit codes: 0 success,
1 a data-level verification failure was found, 2 invalid input.  A call
builds its command's parser alone; the full tree only reports usage errors.

The JSON writer renders a record list whose plain dicts share one key set and
hold only exact ints and strs (margin rows, disagreement records) through one
cached ``%``-template per record, with any "%" in a key escaped; record lists
holding a Fraction, bool or None (reduction steps, gamma tables,
classifications) keep one C-encoder call, and the output is the same either way.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import re
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from json.encoder import c_make_encoder, encode_basestring_ascii
from operator import itemgetter

from . import __version__
from .ehrhart import coefficients
from .families import FamilyRequest, solve_family
from .fracsum import DELTA_POLICIES, ReductionChain, deficit, reduce_chain, standard_chain
from .lattice import count_points_pick, count_points_rowscan, triangle
from .surface import FAMILIES, FAMILY_B, FAMILY_C, DivisorSpec, WeightedSurface, h0, make_surface
from .threshold import classify, gamma_search, lower_bound_small_a, nu_from_h0
from .verify import CalibrationError, aggregate_sweep, calibrate_delta, sweep

__all__ = ["main"]

# Negative values ("-5,0", "-9/2,3", "-1.5,2", "-1e1") would be eaten by
# argparse as option strings, and no option starts with "-" and a digit or
# ".": a leading space defuses them and is stripped again by the value parsers.
# argv[0], the command or an option, is never a value and is left alone.
_NEGATIVE_VALUE = re.compile(r"^-[\d.]")


def _shield_negatives(argv: list[str]) -> list[str]:
    return argv[:1] + [" " + tok if _NEGATIVE_VALUE.match(tok) else tok for tok in argv[1:]]


# Value parsers raise ArgumentTypeError, whose message argparse prints as is:
# a ValueError it reports by the parser's name, a ZeroDivisionError not at all.
def _parse_int(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {token.strip()!r}") from None


def _parse_rational(token: str) -> Fraction:
    token = token.strip()
    try:
        return Fraction(token)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {token!r}") from None


def _parse_pair(token: str) -> tuple[Fraction, Fraction]:
    parts = token.strip().split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'x,y', got {token.strip()!r}")
    return (_parse_rational(parts[0]), _parse_rational(parts[1]))


def _parse_head(token: str) -> tuple[int, int]:
    alpha, beta = _parse_pair(token)
    if alpha.denominator != 1 or beta.denominator != 1:
        raise argparse.ArgumentTypeError(f"expected integers 'alpha,beta', got {token.strip()!r}")
    return int(alpha), int(beta)


def _parse_surface(token: str) -> WeightedSurface:
    parts = token.strip().split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected 'a,b,c', got {token.strip()!r}")
    try:
        return make_surface(*map(int, parts))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _fmt_rational(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _json_default(obj) -> str:
    if isinstance(obj, Fraction):
        return _fmt_rational(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


@lru_cache(maxsize=None)
def _json_encoder(depth: int):
    """C encoder for a scalar, or a container of scalars (or a list of flat
    dicts) whose innermost items sit at ``depth``; no cycle markers, as such
    a container cannot hold itself.  Record lists of exact ints and strs take
    a row template instead (``_template_rows``).  A record list holding a
    Fraction, bool or None still comes here, in one call: a template would
    need a Python conversion per such value, which costs more than the call
    on the short lists (reduction steps, classifications) that hold them."""
    return c_make_encoder(None, _json_default, encode_basestring_ascii, None,
                          ": ", ",\n" + "  " * depth, True, False, True)


# Types the C encoder renders by itself (Fraction through ``_json_default``).
_SCALARS = frozenset({str, int, bool, type(None), Fraction})
# Value types a record template takes: "%d" renders an int as the encoder
# does, and a str is passed through ``encode_basestring_ascii`` to "%s".
_TEMPLATE_TYPES = frozenset({int, str})


@lru_cache(maxsize=64)
def _row_template(keys: tuple[str, ...], formats: str, depth: int) -> str:
    """``%``-template of one record at ``depth`` with the sorted ``keys``,
    where ``formats`` holds "d" (int) or "s" (encoded str) per key.  A "%"
    in a key is escaped as "%%"."""
    close = "\n" + "  " * depth
    field = close + "  "
    return "{" + ",".join(
        f"{field}{encode_basestring_ascii(key).replace('%', '%%')}: %{fmt}"
        for key, fmt in zip(keys, formats)
    ) + close + "}"


def _template_rows(records, depth: int) -> str | None:
    """The non-empty plain dicts ``records``, whose values are exact ints and
    strs, rendered at ``depth`` and joined as in a list; None if they differ
    in key set, if a key is not a str, or if a key holds an int in one record
    and a str in another.

    The first record fixes the keys and each column's format; every record
    is then one ``%`` operation.  Int-only records are formatted straight
    from each dict, building no list of rows.
    """
    first = records[0]
    if len(set(map(len, records))) != 1 or set(map(type, first)) != {str}:
        return None
    keys = tuple(sorted(first))
    formats = "".join("s" if type(first[key]) is str else "d" for key in keys)
    template = _row_template(keys, formats, depth)
    if "s" in formats:
        rows = zip(*(
            map(encode_basestring_ascii, map(itemgetter(key), records)) if fmt == "s"
            else map(itemgetter(key), records)
            for key, fmt in zip(keys, formats)
        ))
    else:
        rows = map(itemgetter(*keys), records)
    try:
        return (",\n" + "  " * depth).join(map(template.__mod__, rows))
    except (KeyError, TypeError):  # a key set or a column's type differs
        return None


def _write_json(obj, depth: int, out: list[str]) -> None:
    """Append ``obj`` as ``json.dumps(..., indent=2, sort_keys=True)`` renders
    it, with every ``Fraction`` as its "num/den" string.

    A container of scalars is one C-encoder call.  A list or tuple of
    non-empty plain dicts of scalars (a record list) takes one of two paths.
    If the dicts share one key set and every value is an exact int or str
    (margin rows, disagreement records), each record is one ``%`` operation
    on a cached row template (``_template_rows``), with no per-dict key sort.
    Any other record list (differing key sets, or the Fraction, bool or None
    values of reduction steps, a gamma table, the classifications or
    ``by_b``, which a template could format only by a Python conversion per
    value) the encoder writes at the dicts' depth in one call, and one
    ``str.replace`` re-indents the joins between the dicts.  Only those
    joins can read "},<newline>{", because the encoder escapes every newline
    inside a string.  Python recurses only over other containers that hold
    containers, whose dict keys must be str.
    """
    if not isinstance(obj, (dict, list, tuple)):
        out.append("".join(_json_encoder(0)(obj, 0)))
        return
    if not obj:
        out.append("{}" if isinstance(obj, dict) else "[]")
        return
    is_dict = isinstance(obj, dict)
    inner = "\n" + "  " * (depth + 1)
    close = "\n" + "  " * depth + ("}" if is_dict else "]")
    if _SCALARS.issuperset(map(type, obj.values() if is_dict else obj)):
        text = "".join(_json_encoder(depth + 1)(obj, 0))
        out += (text[0], inner, text[1:-1], close)
        return
    if not is_dict and set(map(type, obj)) == {dict} and all(obj):
        types = set(map(type, chain.from_iterable(map(dict.values, obj))))
        rows = _template_rows(obj, depth + 1) if _TEMPLATE_TYPES.issuperset(types) else None
        if rows is not None:
            out += ("[", inner, rows, close)
            return
        if _SCALARS.issuperset(types):
            keys = "\n" + "  " * (depth + 2)
            text = "".join(_json_encoder(depth + 2)(obj, 0))  # "[{...},<keys>{...}]"
            body = text[2:-2].replace("}," + keys + "{", inner + "}," + inner + "{" + keys)
            out += ("[", inner, "{", keys, body, inner, "}", close)
            return
    out.append("{" if is_dict else "[")
    sep, comma = inner, "," + inner
    if is_dict:
        for key, value in sorted(obj.items()):
            out += (sep, encode_basestring_ascii(key), ": ")
            _write_json(value, depth + 1, out)
            sep = comma
    else:
        for value in obj:
            out.append(sep)
            _write_json(value, depth + 1, out)
            sep = comma
    out.append(close)


def _render_json(payload) -> str:
    out: list[str] = []
    _write_json(payload, 0, out)
    return "".join(out)


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        sys.stdout.flush()


def _render_csv(rows: list[dict]) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, list(rows[0]) if rows else [], lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({
            key: _fmt_rational(value) if isinstance(value, Fraction) else value
            for key, value in row.items()
        })
    return buffer.getvalue()


def _jobs(flag: int | None) -> int:
    """Worker processes: ``--jobs``, else EFFCONE_JOBS, else every core."""
    name, jobs = "--jobs", flag
    if flag is None:
        name, env = "EFFCONE_JOBS", os.environ.get("EFFCONE_JOBS")
        if not env:
            return os.cpu_count() or 1
        try:
            jobs = int(env)
        except ValueError:
            raise ValueError(f"EFFCONE_JOBS must be an integer, got {env!r}") from None
    if jobs < 1:
        raise ValueError(f"{name} must be at least 1, got {jobs}")
    return jobs


def _cmd_count(args) -> tuple[dict, int]:
    tri = triangle(*args.tri)
    counter = count_points_pick if args.method == "pick" else count_points_rowscan
    count = counter(tri)
    return {
        "vertices": [[v.x, v.y] for v in tri.vertices],
        "method": args.method,
        "count": count,
    }, 0


def _cmd_h0(args) -> tuple[dict, int]:
    count = h0(args.surface, DivisorSpec(args.family, args.n))
    return {
        "surface": dict(vars(args.surface)),
        "family": args.family,
        "n": args.n,
        "h0": count,
    }, 0


def _cmd_nu(args) -> tuple[dict, int]:
    payload, code = _cmd_h0(args)
    payload["nu"] = nu_from_h0(payload["h0"])
    return payload, code


def _cmd_ehrhart(args) -> tuple[dict, int]:
    coeffs = coefficients(args.surface, args.family, args.n)
    payload, _ = _cmd_h0(args)
    value = coeffs.value()
    exact = value == payload["h0"]
    payload.update(c2=coeffs.c2, c1=coeffs.c1, c0=coeffs.c0, value=value, exact_match=exact)
    return payload, 0 if exact else 1


def _cmd_gamma(args) -> tuple[dict | list, int]:
    result = gamma_search(args.surface, args.n_max)
    scales = dict(result.scales)
    table = [
        {"family": family, "n": n, "h0": count, "nu": d, "value": Fraction(scales[family] * d, n)}
        for family, n, count, d in result.table
    ]
    code = 0 if result.matches is not False else 1
    if args.format == "csv":
        return table, code
    payload = {
        "surface": dict(vars(args.surface)),
        "n_max": args.n_max,
        "best": result.best,
        "prediction": result.prediction,
        "match": result.matches,
        "witnesses": [
            {"family": family, "n": n, "nu": d} for family, n, d in result.witnesses
        ],
        "table": table,
    }
    return payload, code


def _cmd_classify(args) -> tuple[dict, int]:
    found = classify(args.b, args.p)
    # Rejects pairs whose weights are invalid, e.g. b = 10, p = -3 (c = 18).
    make_surface(4, args.b, 3 * args.b + 4 * args.p)
    return {
        "b": args.b,
        "p": args.p,
        "x": Fraction(args.b, -args.p),
        "classifications": [dict(vars(cls)) for cls in found],
    }, 0


def _cmd_lower_bound(args) -> tuple[dict, int]:
    return {
        "surface": dict(vars(args.surface)),
        "bound": lower_bound_small_a(args.surface),
    }, 0


def _cmd_reduce(args) -> tuple[dict, int]:
    if (args.entry is None) != (args.k is None):
        raise ValueError("--entry and --k must be given together")
    if args.entry is None:
        # Bare mode: the two-pair chain (alpha, beta) -> (1, 2), legal
        # exactly when beta - 2*alpha = +-1.
        if args.head is None:
            raise ValueError("give --entry/--k for a standard chain, or a bare --head")
        if args.surface is not None:
            raise ValueError("--surface prepends onto a standard chain; add --entry/--k")
        if args.c_case:
            raise ValueError("--c-case applies to standard chains only")
        alpha, beta = args.head
        chain = ReductionChain(pairs=((alpha, beta), (1, 2)), sigmas=(beta - 2 * alpha,))
    else:
        chain = standard_chain(args.entry, args.k, c_case=args.c_case)
        if args.surface is not None:
            surface = args.surface
            if surface.p >= 0:
                raise ValueError(f"prepending requires p < 0, got {surface}")
            chain = chain.prepend(-surface.p, surface.b)
        elif args.head is not None:
            chain = chain.prepend(*args.head)
    trace = reduce_chain(chain, args.u0, delta=args.delta)
    head_alpha, head_beta = chain.pairs[0]
    direct = deficit(head_beta, args.u0, head_alpha)
    exact = trace.total == direct
    payload = {
        "chain": [list(pair) for pair in chain.pairs],
        "sigmas": list(chain.sigmas),
        "u0": args.u0,
        "delta": args.delta,
        "steps": [dict(vars(step)) for step in trace.steps],
        "terminal": trace.terminal,
        "total": trace.total,
        "deficit_direct": direct,
        "identity_exact": exact,
    }
    return payload, 0 if exact else 1


def _cmd_family(args) -> tuple[dict, int]:
    request = FamilyRequest(
        alpha=args.alpha, beta=args.beta, tau=args.tau,
        count=args.count, interval=args.interval,
    )
    return {
        "request": dict(vars(request)),
        "surfaces": [
            dict(vars(surface), x=surface.bp_ratio) for surface in solve_family(request)
        ],
    }, 0


def _cmd_verify(args) -> tuple[dict | list, int]:
    reports = sweep(args.surface, args.n_max, jobs=_jobs(args.jobs))
    aggregate = aggregate_sweep(reports)
    ok = aggregate["min_margin"] >= 1 and aggregate["all_gamma_match"]
    if args.format == "csv":
        rows = [
            dict(
                {"a": rep["surface"]["a"], "b": rep["surface"]["b"], "c": rep["surface"]["c"]},
                **row,
            )
            for rep in reports
            for row in rep["rows"]
        ]
        return rows, 0 if ok else 1
    return {"reports": reports, "aggregate": aggregate}, 0 if ok else 1


def _cmd_calibrate(args) -> tuple[dict, int]:
    report = calibrate_delta(args.beta_max, instances=args.instances)
    if not args.instances:
        report["disagreements"] = "omitted (rerun with --instances)"
    return report, 0


def _add_output(p, formats=("json",)) -> None:
    p.add_argument("--format", choices=formats, default="json")
    p.add_argument("--output", help="write the payload to this path instead of stdout")


def _add_surface(p) -> None:
    p.add_argument("--surface", type=_parse_surface, required=True, metavar="A,B,C")


def _args_count(p) -> None:
    p.add_argument("--tri", nargs=3, type=_parse_pair, required=True,
                   metavar="X,Y", help="three vertices, rational coordinates")
    p.add_argument("--method", choices=("rowscan", "pick"), default="rowscan")
    _add_output(p)


def _args_divisor(p, families=FAMILIES) -> None:
    _add_surface(p)
    p.add_argument("--family", choices=families, required=True)
    p.add_argument("--n", type=_parse_int, required=True)
    _add_output(p)


def _args_ehrhart(p) -> None:
    _args_divisor(p, families=(FAMILY_B, FAMILY_C))


def _args_gamma(p) -> None:
    _add_surface(p)
    p.add_argument("--n-max", type=_parse_int, required=True)
    _add_output(p, formats=("json", "csv"))


def _args_classify(p) -> None:
    p.add_argument("--b", type=_parse_int, required=True)
    p.add_argument("--p", type=_parse_int, required=True)
    _add_output(p)


def _args_lower_bound(p) -> None:
    _add_surface(p)
    _add_output(p)


def _args_reduce(p) -> None:
    p.add_argument("--entry", type=_parse_int, choices=(1, 2, 3, 4),
                   help="standard chain entry (with --k)")
    p.add_argument("--k", type=_parse_int, help="standard chain parameter")
    p.add_argument("--c-case", action="store_true",
                   help="flip the lead sigma (family-C head variant)")
    p.add_argument("--u0", type=_parse_int, required=True)
    p.add_argument("--delta", choices=DELTA_POLICIES, default="calibrated")
    head = p.add_mutually_exclusive_group()
    head.add_argument("--surface", type=_parse_surface, metavar="A,B,C",
                      help="prepend the head (-p, b) of this surface")
    head.add_argument("--head", type=_parse_head, metavar="ALPHA,BETA",
                      help="head pair: prepended, or with no --entry the chain "
                           "(alpha,beta) -> (1,2)")
    _add_output(p)


def _args_family(p) -> None:
    p.add_argument("--alpha", type=_parse_int, required=True)
    p.add_argument("--beta", type=_parse_int, required=True)
    p.add_argument("--tau", type=_parse_int, choices=(1, -1), required=True)
    p.add_argument("--count", type=_parse_int, required=True)
    p.add_argument("--interval", type=_parse_pair, metavar="LO,HI",
                   help="keep only abscissas in this closed interval")
    _add_output(p)


def _args_verify(p) -> None:
    p.add_argument("--surface", type=_parse_surface, action="append", required=True,
                   metavar="A,B,C", help="repeatable")
    p.add_argument("--n-max", type=_parse_int, required=True)
    p.add_argument("--jobs", type=_parse_int,
                   help="worker processes (default: EFFCONE_JOBS or all cores)")
    _add_output(p, formats=("json", "csv"))


def _args_calibrate(p) -> None:
    p.add_argument("--beta-max", type=_parse_int, required=True)
    p.add_argument("--instances", action="store_true",
                   help="include every disagreement instance in the payload")
    _add_output(p)


#: Every subcommand, in help order: name -> (help, argument adder, handler).
_COMMANDS = {
    "count": ("lattice points of a rational triangle", _args_count, _cmd_count),
    "h0": ("section count of a family divisor", _args_divisor, _cmd_h0),
    "nu": ("nu invariant of a family divisor", _args_divisor, _cmd_nu),
    "ehrhart": ("closed-form Ehrhart coefficients and exactness check",
                _args_ehrhart, _cmd_ehrhart),
    "gamma": ("search the expected-threshold candidates up to n-max",
              _args_gamma, _cmd_gamma),
    "classify": ("interval classification of (b, p)", _args_classify, _cmd_classify),
    "lower-bound": ("small-a expected-threshold lower bound",
                    _args_lower_bound, _cmd_lower_bound),
    "reduce": ("trace a chain reduction of a deficit sum", _args_reduce, _cmd_reduce),
    "family": ("generate surfaces with alpha*b - beta*(-p) = tau",
               _args_family, _cmd_family),
    "verify": ("margin sweep over one or more surfaces", _args_verify, _cmd_verify),
    "calibrate-delta": ("exhaustive step-error jump calibration",
                        _args_calibrate, _cmd_calibrate),
}


def _build_parser() -> argparse.ArgumentParser:
    """The top-level parser with every subcommand."""
    parser = argparse.ArgumentParser(
        prog="effcone",
        description="Exact lattice counts, Ehrhart coefficients, and expected "
        "effective thresholds for weighted projective planes.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, handler) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(func=handler)
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse with argv[0]'s command parser alone, built as ``add_parser``
    builds it in the full tree.  The full tree parses only to report with the
    top-level usage: leftover arguments, no or an unknown command, top-level
    -h/--version, or a "--=" token, which the top level finds ambiguous."""
    if argv and argv[0] in _COMMANDS and not any(tok.startswith("--=") for tok in argv):
        _, add_arguments, handler = _COMMANDS[argv[0]]
        parser = argparse.ArgumentParser(prog=f"effcone {argv[0]}")
        add_arguments(parser)
        parser.set_defaults(func=handler, command=argv[0])
        args, extra = parser.parse_known_args(argv[1:])
        if not extra:
            return args
    return _build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_args(_shield_negatives(list(argv)))
    try:
        payload, code = args.func(args)
        # Rendering raises ValueError too, on an int past Python's digit limit.
        text = _render_csv(payload) if args.format == "csv" else _render_json(payload)
    except CalibrationError as exc:
        print(f"effcone: verification failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        print(f"effcone: error: {exc}", file=sys.stderr)
        return 2
    try:
        _emit(text, args.output)
    except OSError as exc:
        if args.output:
            print(f"effcone: error: cannot write --output: {exc}", file=sys.stderr)
            return 2
        if not isinstance(exc, BrokenPipeError):
            raise
        # The reader closed stdout (`| head`): send the final flush to /dev/null.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
