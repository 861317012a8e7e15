"""Command-line interface: every library operation behind one executable.

All payloads are emitted as deterministic JSON (sorted keys, exact rationals
rendered as "num/den" strings, integers as integers); the tabular commands
(``gamma``, ``verify``) can emit CSV instead.  Exit codes: 0 success,
1 a data-level verification failure was found, 2 invalid input.  A
well-formed call is read straight from its command's option table and builds
no parser; argparse's full tree, built from the same tables, parses any other
call and prints every help text and usage error.

The JSON writer has three paths: the text of an exact scalar, a
:class:`~effcone.verify.Records`, and recursion over any other dict, list or
tuple; any other leaf raises TypeError.  The code that knows a list is a
table (margin rows, disagreement records, gamma tables, family surfaces) builds
it as a ``Records``, and one block writer renders it a block at a time, for JSON
and CSV alike: the block's shared values join the cached literal text of a
record once, and its records follow, one ``%`` each or, in a one-field block,
as value texts between a head and a tail.  A one-field block whose field is a
non-empty step-1 ``range`` from 0 or above slices its texts from a digit
table built once per ``Records``, and only when those ranges hold at least as
many values as the table has texts.  No block is joined into one string, which
would raise peak RSS.  A plain list is always walked.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii

from . import __version__
from .ehrhart import coefficients
from .families import FamilyRequest, solve_family
from .fracsum import DELTA_POLICIES, ReductionChain, deficit, reduce_chain, standard_chain
from .lattice import count_points_pick, count_points_rowscan, triangle
from .surface import FAMILIES, FAMILY_B, FAMILY_C, DivisorSpec, WeightedSurface, h0, make_surface
from .threshold import classify, gamma_search, lower_bound_small_a, nu_from_h0
from .verify import CalibrationError, Records, aggregate_sweep, calibrate_delta, sweep

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
_DIGIT_LIMIT = ("an integer has more than %d digits, the most that Python converts between "
                "integers and text")


def _error_text(exc: Exception, text: str | None = None) -> str:
    """``text`` (by default ``exc``'s message); Python's int/str digit-limit
    error advises a call that a CLI user cannot make, so it gets a message
    naming the limit instead."""
    if not str(exc).startswith("Exceeds the limit ("):
        return str(exc) if text is None else text
    return _DIGIT_LIMIT % sys.get_int_max_str_digits()


def _parse_int(token: str) -> int:
    try:
        return int(token)
    except ValueError as exc:
        text = _error_text(exc, f"invalid int value: {token.strip()!r}")
        raise argparse.ArgumentTypeError(text) from None


# A decimal exponent, for which Fraction builds 10**exponent before anything can refuse it.
_EXPONENT = re.compile(r"(.*)e([-+]?\d+(?:_\d+)*)", re.IGNORECASE)


def _parse_rational(token: str) -> Fraction:
    token = token.strip()
    try:
        power = _EXPONENT.fullmatch(token)
        # Past this exponent, a non-zero mantissa of at most len(mantissa)
        # digits leaves a numerator or denominator longer than the digit limit.
        if power and abs(int(power[2])) > sys.get_int_max_str_digits() + len(power[1]):
            try:
                mantissa = Fraction(power[1] + "e0")
            except ValueError:  # so is the token, which Fraction refuses at once
                return Fraction(token)
            if mantissa:
                raise argparse.ArgumentTypeError(_DIGIT_LIMIT % sys.get_int_max_str_digits())
            return mantissa
        return Fraction(token)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(_error_text(exc)) from None
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
        raise argparse.ArgumentTypeError(_error_text(exc)) from None


# The text of each exact scalar type, as json.dumps gives it and, for a
# Fraction, its str() "num/den" or "num" in quotes, with nothing to escape.
_SCALAR_TEXT = {
    str: encode_basestring_ascii, int: int.__repr__, type(None): {None: "null"}.__getitem__,
    bool: {True: "true", False: "false"}.__getitem__, Fraction: '"%s"'.__mod__,
}


@lru_cache(maxsize=64)
def _row_texts(keys: tuple[str, ...], depth: int | None) -> tuple[tuple[str, ...], str]:
    """The literal text before each of the sorted str ``keys``' values in one
    record at ``depth``, the first led by the list separator
    ",<newline><indent>" and "{", and the text after the last value; for ``depth``
    None those of a CSV line: "<newline>", "," before each later key, and ""."""
    if depth is None:
        return ("\n",) + (",",) * (len(keys) - 1), ""
    close = "\n" + "  " * depth
    befores = [f",{close}  {encode_basestring_ascii(key)}: " for key in keys]
    befores[0] = "," + close + "{" + befores[0][1:]
    return tuple(befores), close + "}"


def _scalar_text(value) -> str:
    """The text of ``value`` if it is exactly of a ``_SCALAR_TEXT`` type; else TypeError."""
    text = _SCALAR_TEXT.get(type(value))
    if text is None:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    return text(value)


def _counts_up(column) -> bool:
    """Whether ``column`` is a non-empty step-1 ``range`` from 0 or above."""
    return type(column) is range and column.step == 1 and 0 <= column.start < column.stop


def _digit_table(blocks) -> list[str]:
    """The texts of 0, 1, ... up to the largest stop of the counting
    (``_counts_up``) columns of ``blocks``' one-column blocks, which slice
    their value texts from it; empty, no table, if those columns hold fewer
    values than that, so it never makes more texts than it replaces."""
    stop = held = 0
    for _, columns in blocks:
        column, *others = columns.values()
        if not others and _counts_up(column):
            stop, held = max(stop, column.stop), held + len(column)
    return list(map(str, range(stop))) if stop <= held else []


def _block_rows(keys: tuple[str, ...], shared: dict, columns: dict, depth: int | None,
                out: list[str], cell=None, texts=()) -> None:
    """Append each record of one block, as :class:`~effcone.verify.Records`
    holds it, with the str ``keys`` (sorted for JSON), rendered at ``depth``
    and led by its list separator.  Each value is written as the
    ``_SCALAR_TEXT`` text of its type, and any other value raises TypeError;
    given ``cell``, the CSV text of any value, the records are CSV lines
    (``depth`` None).  ``texts`` is the block's ``Records``' digit table
    (``_digit_table``), by default none.

    Each shared value's text joins the literal text around it, so a record is
    a literal piece before each column's value and one after the last.  A
    one-field block goes in as the head, each value's text with one
    ``tail + head`` between, and the tail.  A counting column that the table
    covers slices its texts from it, so equal values share one text object
    and no more texts are made than the ``Records``' counting columns hold
    values; any other column takes one ``str`` per value.  Any other block
    takes one ``%`` per record, its pieces joined by "%s": a ``range`` or int
    column's values as they are, any other column's as their texts, looked up
    once for a column of one type and per value for a mixed one.  A string
    per block would cost peak RSS: freed, it stays on the heap."""
    befores, after = _row_texts(keys, depth)
    pieces, fields, literal = [], [], ""
    for key, before in zip(keys, befores):
        literal += before
        if key in shared:
            value = shared[key]
            literal += (cell or _SCALAR_TEXT.get(type(value), _scalar_text))(value)
            continue
        column = columns[key]
        types = set(map(type, column)) if type(column) is not range else {int}
        if types <= {int}:
            fields.append(column)
        else:
            text = cell or (len(types) == 1 and _SCALAR_TEXT.get(*types)) or _scalar_text
            fields.append(map(text, column))
        pieces.append(literal)
        literal = ""
    pieces.append(literal + after)
    if len(fields) != 1:
        out += map("%s".join(piece.replace("%", "%%") for piece in pieces).__mod__, zip(*fields))
        return
    head, tail = pieces
    column = fields[0]
    if _counts_up(column) and column.stop <= len(texts):
        values = texts[column.start:column.stop]
    else:
        values = list(map(str, column))
    if values:
        rows = [tail + head] * (2 * len(values) + 1)
        rows[0], rows[1::2], rows[-1] = head, values, tail
        out += rows


def _write_json(obj, depth: int, out: list[str]) -> None:
    """Append ``obj`` as ``json.dumps(..., indent=2, sort_keys=True)`` renders
    it, with every ``Fraction`` as its "num/den" string and a
    :class:`~effcone.verify.Records` as the list of its dicts.

    A scalar of exactly a ``_SCALAR_TEXT`` type is written as its text, and a
    ``Records`` a block at a time through ``_block_rows``.  Python recurses
    over any other dict, list or tuple, a plain list of records included;
    dict keys must be str.  Any other leaf (a float, an int or str subclass)
    raises ``TypeError``.
    """
    text = _SCALAR_TEXT.get(type(obj))
    if text is not None:
        out.append(text(obj))
        return
    if not isinstance(obj, (dict, list, tuple, Records)):
        _scalar_text(obj)  # not a scalar either: raises TypeError
    if not obj:
        out.append("{}" if isinstance(obj, dict) else "[]")
        return
    is_dict = isinstance(obj, dict)
    start, separator = len(out), ",\n" + "  " * (depth + 1)
    if is_dict:
        for key, value in sorted(obj.items()):
            out += (separator, encode_basestring_ascii(key), ": ")
            _write_json(value, depth + 1, out)
    elif isinstance(obj, Records):  # _block_rows leads each record with the separator
        keys, texts = tuple(sorted(obj.keys)), _digit_table(obj.blocks)
        for shared, columns in obj.blocks:
            _block_rows(keys, shared, columns, depth + 1, out, None, texts)
    else:
        for value in obj:
            out.append(separator)
            _write_json(value, depth + 1, out)
    out[start] = ("{" if is_dict else "[") + out[start][1:]  # no comma before the first item
    out.append("\n" + "  " * depth + ("}" if is_dict else "]"))


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


def _csv_cell(value) -> str:
    """The cell of ``value`` in a row of two or more: its text, quoted with
    its quotes doubled if it holds a ",", '"', "\\r" or "\\n"."""
    text = "" if value is None else value if isinstance(value, str) else str(value)
    if re.search('[,"\r\n]', text) is None:
        return text
    return '"' + text.replace('"', '""') + '"'


def _render_csv(records: Records) -> str:
    """``records`` under a header of their keys, a block at a time
    (``_block_rows``), in the bytes ``csv.DictWriter`` writes with "\n" line
    ends, except that a cell holding "\\r" is quoted, so ``csv.reader`` reads
    every record back."""
    # As csv.writer does, the one cell of a row is quoted when it is empty.
    cell = _csv_cell if len(records.keys) > 1 else lambda value: _csv_cell(value) or '""'
    out, texts = [",".join(map(cell, records.keys))], _digit_table(records.blocks)
    for shared, columns in records.blocks:
        _block_rows(records.keys, shared, columns, None, out, cell, texts)
    out.append("\n")
    return "".join(out)


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


def _cmd_gamma(args) -> tuple[dict | Records, int]:
    result = gamma_search(args.surface, args.n_max)
    ns = range(1, args.n_max + 1)
    table = Records(("family", "n", "h0", "nu", "value"), [
        ({"family": family}, {"n": ns, "h0": h0s, "nu": nus,
                              "value": [Fraction(scale * d, n) for n, d in zip(ns, nus)]})
        for family, scale, h0s, nus in result.columns
    ])
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
    if args.surface is not None and args.head is not None:
        raise ValueError("--surface and --head both name the head; give one of them")
    if args.entry is None:
        # Bare mode: the two-pair chain (alpha, beta) -> (1, 2).
        if args.head is None:
            raise ValueError("give --entry/--k for a standard chain, or a bare --head")
        chain = ReductionChain(pairs=(args.head, (1, 2)))
    else:
        chain = standard_chain(args.entry, args.k)
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
    surfaces = solve_family(request)
    columns = {key: [getattr(surface, key) for surface in surfaces] for key in "abcpq"}
    columns["x"] = [surface.bp_ratio for surface in surfaces]
    return {"request": dict(vars(request)), "surfaces": Records(columns, [({}, columns)])}, 0


def _cmd_verify(args) -> tuple[dict | Records, int]:
    reports = sweep(args.surface, args.n_max, jobs=args.jobs)
    aggregate = aggregate_sweep(reports)
    ok = aggregate["min_margin"] >= 1 and aggregate["all_gamma_match"]
    if args.format == "csv":  # the margin rows' blocks, each led by its surface's a, b, c
        blocks = [({key: rep["surface"][key] for key in "abc"} | shared, columns)
                  for rep in reports for shared, columns in rep["rows"].blocks]
        return Records(("a", "b", "c", *reports[0]["rows"].keys), blocks), 0 if ok else 1
    return {"reports": reports, "aggregate": aggregate}, 0 if ok else 1


def _cmd_calibrate(args) -> tuple[dict, int]:
    report = calibrate_delta(args.beta_max, instances=args.instances)
    if not args.instances:
        report["disagreements"] = "omitted (rerun with --instances)"
    return report, 0


# Each command's options in help order, as (flag, kwargs) pairs that the full
# tree passes to ``add_argument`` and the table path of ``_parse_args`` reads.
def _output(formats=("json",)) -> tuple:
    return (("--format", {"choices": formats, "default": "json"}),
            ("--output", {"help": "write the payload to this path instead of stdout"}))


_SURFACE = ("--surface", {"type": _parse_surface, "required": True, "metavar": "A,B,C"})


def _divisor(families=FAMILIES) -> tuple:
    return (_SURFACE, ("--family", {"choices": families, "required": True}),
            ("--n", {"type": _parse_int, "required": True}), *_output())


#: Every subcommand, in help order: name -> (help, options, handler).
_COMMANDS = {
    "count": ("lattice points of a rational triangle", (
        ("--tri", {"nargs": 3, "type": _parse_pair, "required": True, "metavar": "X,Y",
                   "help": "three vertices, rational coordinates"}),
        ("--method", {"choices": ("rowscan", "pick"), "default": "rowscan"}),
        *_output(),
    ), _cmd_count),
    "h0": ("section count of a family divisor", _divisor(), _cmd_h0),
    "nu": ("nu invariant of a family divisor", _divisor(), _cmd_nu),
    "ehrhart": ("closed-form Ehrhart coefficients and exactness check",
                _divisor((FAMILY_B, FAMILY_C)), _cmd_ehrhart),
    "gamma": ("search the expected-threshold candidates up to n-max", (
        _SURFACE, ("--n-max", {"type": _parse_int, "required": True}), *_output(("json", "csv")),
    ), _cmd_gamma),
    "classify": ("interval classification of (b, p)", (
        ("--b", {"type": _parse_int, "required": True}),
        ("--p", {"type": _parse_int, "required": True}),
        *_output(),
    ), _cmd_classify),
    "lower-bound": ("small-a expected-threshold lower bound", (_SURFACE, *_output()),
                    _cmd_lower_bound),
    "reduce": ("trace a chain reduction of a deficit sum", (
        ("--entry", {"type": _parse_int, "choices": (1, 2, 3, 4),
                     "help": "standard chain entry (with --k)"}),
        ("--k", {"type": _parse_int, "help": "standard chain parameter"}),
        ("--u0", {"type": _parse_int, "required": True}),
        ("--delta", {"choices": DELTA_POLICIES, "default": "calibrated"}),
        ("--surface", {"type": _parse_surface, "metavar": "A,B,C",
                       "help": "prepend the head (-p, b) of this surface"}),
        ("--head", {"type": _parse_head, "metavar": "ALPHA,BETA",
                    "help": "head pair: prepended, or with no --entry the chain "
                            "(alpha,beta) -> (1,2)"}),
        *_output(),
    ), _cmd_reduce),
    "family": ("generate surfaces with alpha*b - beta*(-p) = tau", (
        ("--alpha", {"type": _parse_int, "required": True}),
        ("--beta", {"type": _parse_int, "required": True}),
        ("--tau", {"type": _parse_int, "choices": (1, -1), "required": True}),
        ("--count", {"type": _parse_int, "required": True}),
        ("--interval", {"type": _parse_pair, "metavar": "LO,HI",
                        "help": "keep only abscissas in this closed interval"}),
        *_output(),
    ), _cmd_family),
    "verify": ("margin sweep over one or more surfaces", (
        ("--surface", {"type": _parse_surface, "action": "append", "required": True,
                       "metavar": "A,B,C", "help": "repeatable"}),
        ("--n-max", {"type": _parse_int, "required": True}),
        ("--jobs", {"type": _parse_int, "default": 1, "help": "worker processes (default: 1)"}),
        *_output(("json", "csv")),
    ), _cmd_verify),
    "calibrate-delta": ("exhaustive step-error jump calibration", (
        ("--beta-max", {"type": _parse_int, "required": True}),
        ("--instances", {"action": "store_true",
                         "help": "include every disagreement instance in the payload"}),
        *_output(),
    ), _cmd_calibrate),
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
    for name, (help_text, options, handler) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=handler)
    return parser


def _read_options(argv: list[str]) -> argparse.Namespace | None:
    """The namespace the full tree parses ``argv`` into, read from the option
    table of its command argv[0]; None unless every later token is an exact
    flag of that command followed by exactly its values, none of them starting
    with "-", each flag is given once (an "append" one any number of times),
    each value converts by the option's type and is one of its choices, and
    every required flag is given."""
    _, options, handler = _COMMANDS[argv[0]]
    table = dict(options)
    values, i = {}, 1
    while i < len(argv):
        flag = argv[i]
        kwargs = table.get(flag)
        if kwargs is None or (flag in values and kwargs.get("action") != "append"):
            return None
        if kwargs.get("action") == "store_true":
            values[flag], i = True, i + 1
            continue
        count = kwargs.get("nargs", 1)
        tokens, i = argv[i + 1:i + 1 + count], i + 1 + count
        if len(tokens) < count or any(token.startswith("-") for token in tokens):
            return None
        # argparse's _get_value turns exactly these into a usage error.
        try:
            converted = list(map(kwargs.get("type", str), tokens))
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        choices = kwargs.get("choices")
        if choices is not None and any(value not in choices for value in converted):
            return None
        value = converted if "nargs" in kwargs else converted[0]
        if kwargs.get("action") == "append":
            values.setdefault(flag, []).append(value)
        else:
            values[flag] = value
    args = argparse.Namespace(command=argv[0], func=handler)
    for flag, kwargs in table.items():
        if flag not in values and kwargs.get("required"):
            return None
        default = kwargs.get("default", False if kwargs.get("action") == "store_true" else None)
        setattr(args, flag[2:].replace("-", "_"), values.get(flag, default))
    return args


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Read a well-formed call straight from its command's option table
    (``_read_options``), building no parser; the full tree parses any other
    argv (help, --version, an abbreviated or "--flag=value" option, a repeated
    flag, a bad value, a missing or leftover argument) and answers it."""
    args = _read_options(argv) if argv and argv[0] in _COMMANDS else None
    return args if args is not None else _build_parser().parse_args(argv)


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
        print(f"effcone: error: {_error_text(exc)}", file=sys.stderr)
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
