"""Command-line interface: every library operation behind one executable.

All payloads are emitted as deterministic JSON (sorted keys, exact rationals
rendered as "num/den" strings, integers as integers); the tabular commands
(``gamma``, ``verify``) can emit CSV instead.  Exit codes: 0 success,
1 a data-level verification failure was found, 2 invalid input.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
from fractions import Fraction

from . import __version__
from .ehrhart import coefficients
from .families import FamilyRequest, solve_family
from .fracsum import ReductionChain, deficit, reduce_chain, standard_chain
from .lattice import count_points_pick, count_points_rowscan, triangle
from .surface import DivisorSpec, WeightedSurface, h0, make_surface
from .threshold import classify, gamma_search, lower_bound_small_a, nu_from_h0
from .verify import CalibrationError, aggregate_sweep, calibrate_delta, sweep

__all__ = ["main"]

# Bare negative numbers or coordinate pairs ("-5,0", "-9/2,3", "-4") would be
# eaten by argparse as option strings; a leading space defuses that and is
# stripped again by the value parsers.
_NEGATIVE_VALUE = re.compile(r"^-\d+(/\d+)?(,-?\d+(/\d+)?)*$")


def _shield_negatives(argv: list[str]) -> list[str]:
    return [" " + tok if _NEGATIVE_VALUE.match(tok) else tok for tok in argv]


def _parse_rational(token: str) -> Fraction:
    return Fraction(token.strip())


def _parse_pair(token: str) -> tuple[Fraction, Fraction]:
    parts = token.strip().split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'x,y', got {token!r}")
    return (_parse_rational(parts[0]), _parse_rational(parts[1]))


def _parse_surface(token: str) -> WeightedSurface:
    parts = token.strip().split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected 'a,b,c', got {token!r}")
    return make_surface(int(parts[0]), int(parts[1]), int(parts[2]))


def _parse_interval(token: str) -> tuple[Fraction, Fraction]:
    return _parse_pair(token)


def _fmt_rational(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _jsonable(obj):
    """Recursively render Fractions as exact strings; leave ints/bools alone."""
    if isinstance(obj, Fraction):
        return _fmt_rational(obj)
    if isinstance(obj, dict):
        return {key: _jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(value) for value in obj]
    return obj


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _emit_json(payload, output: str | None) -> None:
    _emit(json.dumps(_jsonable(payload), indent=2, sort_keys=True), output)


def _emit_csv(rows: list[dict], fieldnames: list[str], output: str | None) -> None:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({key: _jsonable(value) for key, value in row.items()})
    _emit(buffer.getvalue(), output)


def _default_jobs() -> int:
    env = os.environ.get("EFFCONE_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"EFFCONE_JOBS must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


def _surface_payload(surface: WeightedSurface) -> dict:
    return {
        "a": surface.a, "b": surface.b, "c": surface.c,
        "p": surface.p, "q": surface.q,
    }


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
        "surface": _surface_payload(args.surface),
        "family": args.family,
        "n": args.n,
        "h0": count,
    }, 0


def _cmd_nu(args) -> tuple[dict, int]:
    count = h0(args.surface, DivisorSpec(args.family, args.n))
    return {
        "surface": _surface_payload(args.surface),
        "family": args.family,
        "n": args.n,
        "h0": count,
        "nu": nu_from_h0(count),
    }, 0


def _cmd_ehrhart(args) -> tuple[dict, int]:
    coeffs = coefficients(args.surface, args.family, args.n)
    count = h0(args.surface, DivisorSpec(args.family, args.n))
    value = coeffs.value()
    exact = value == count
    return {
        "surface": _surface_payload(args.surface),
        "family": args.family,
        "n": args.n,
        "c2": coeffs.c2,
        "c1": coeffs.c1,
        "c0": coeffs.c0,
        "value": value,
        "h0": count,
        "exact_match": exact,
    }, 0 if exact else 1


def _cmd_gamma(args) -> tuple[dict | list, int]:
    result = gamma_search(args.surface, args.n_max)
    table = [
        {"family": family, "n": n, "h0": count, "nu": d, "value": value}
        for family, n, count, d, value in result.table
    ]
    code = 0 if result.matches is not False else 1
    if args.format == "csv":
        return table, code
    payload = {
        "surface": _surface_payload(args.surface),
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
        "classifications": [
            {
                "k": cls.k, "branch": cls.branch, "m0": cls.m0,
                "family": cls.family, "nu0": cls.nu0, "gamma_pred": cls.gamma_pred,
            }
            for cls in found
        ],
    }, 0


def _cmd_lower_bound(args) -> tuple[dict, int]:
    return {
        "surface": _surface_payload(args.surface),
        "bound": lower_bound_small_a(args.surface),
    }, 0


def _head_pair(raw) -> tuple[int, int]:
    alpha, beta = raw
    if alpha.denominator != 1 or beta.denominator != 1:
        raise ValueError(f"--head expects integers 'alpha,beta', got {raw}")
    return int(alpha), int(beta)


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
        alpha, beta = _head_pair(args.head)
        chain = ReductionChain(pairs=((alpha, beta), (1, 2)), sigmas=(beta - 2 * alpha,))
    else:
        chain = standard_chain(args.entry, args.k, c_case=args.c_case)
        if args.surface is not None:
            surface = args.surface
            if surface.p >= 0:
                raise ValueError(f"prepending requires p < 0, got {surface}")
            chain = chain.prepend(-surface.p, surface.b)
        elif args.head is not None:
            chain = chain.prepend(*_head_pair(args.head))
    trace = reduce_chain(chain, args.u0, delta=args.delta)
    head_alpha, head_beta = chain.pairs[0]
    direct = deficit(head_beta, args.u0, head_alpha)
    exact = trace.total == direct
    payload = {
        "chain": [list(pair) for pair in chain.pairs],
        "sigmas": list(chain.sigmas),
        "u0": args.u0,
        "delta": args.delta,
        "steps": [
            {
                "alpha": step.alpha, "beta": step.beta, "sigma": step.sigma,
                "t": step.t, "u": step.u, "error": step.error,
            }
            for step in trace.steps
        ],
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
    return {
        "request": {
            "alpha": args.alpha, "beta": args.beta, "tau": args.tau,
            "count": args.count,
            "interval": list(args.interval) if args.interval else None,
        },
        "surfaces": [
            dict(_surface_payload(surface), x=surface.bp_ratio)
            for surface in surfaces
        ],
    }, 0


def _cmd_verify(args) -> tuple[dict | list, int]:
    jobs = args.jobs if args.jobs is not None else _default_jobs()
    reports = sweep(args.surface, args.n_max, jobs=jobs)
    aggregate = aggregate_sweep(reports)
    ok = (
        aggregate["surfaces"] == 0
        or (aggregate["min_margin"] >= 1 and aggregate["all_gamma_match"])
    )
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
    report = calibrate_delta(args.beta_max)
    if not args.instances:
        report = dict(report, disagreements="omitted (rerun with --instances)")
    return report, 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="effcone",
        description="Exact lattice counts, Ehrhart coefficients, and expected "
        "effective thresholds for weighted projective planes.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p, formats=("json",)):
        p.add_argument("--format", choices=formats, default="json")
        p.add_argument("--output", help="write the payload to this path instead of stdout")

    p = sub.add_parser("count", help="lattice points of a rational triangle")
    p.add_argument("--tri", nargs=3, type=_parse_pair, required=True,
                   metavar="X,Y", help="three vertices, rational coordinates")
    p.add_argument("--method", choices=("rowscan", "pick"), default="rowscan")
    add_output(p)
    p.set_defaults(func=_cmd_count)

    for name, func, help_text in (
        ("h0", _cmd_h0, "section count of a family divisor"),
        ("nu", _cmd_nu, "nu invariant of a family divisor"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--surface", type=_parse_surface, required=True, metavar="A,B,C")
        p.add_argument("--family", choices=("B", "C", "AZ"), required=True)
        p.add_argument("--n", type=int, required=True)
        add_output(p)
        p.set_defaults(func=func)

    p = sub.add_parser("ehrhart", help="closed-form Ehrhart coefficients and exactness check")
    p.add_argument("--surface", type=_parse_surface, required=True, metavar="A,B,C")
    p.add_argument("--family", choices=("B", "C"), required=True)
    p.add_argument("--n", type=int, required=True)
    add_output(p)
    p.set_defaults(func=_cmd_ehrhart)

    p = sub.add_parser("gamma", help="search the expected-threshold candidates up to n-max")
    p.add_argument("--surface", type=_parse_surface, required=True, metavar="A,B,C")
    p.add_argument("--n-max", type=int, required=True)
    add_output(p, formats=("json", "csv"))
    p.set_defaults(func=_cmd_gamma)

    p = sub.add_parser("classify", help="interval classification of (b, p)")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    add_output(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("lower-bound", help="small-a expected-threshold lower bound")
    p.add_argument("--surface", type=_parse_surface, required=True, metavar="A,B,C")
    add_output(p)
    p.set_defaults(func=_cmd_lower_bound)

    p = sub.add_parser("reduce", help="trace a chain reduction of a deficit sum")
    p.add_argument("--entry", type=int, choices=(1, 2, 3, 4),
                   help="standard chain entry (with --k)")
    p.add_argument("--k", type=int, help="standard chain parameter")
    p.add_argument("--c-case", action="store_true",
                   help="flip the lead sigma (family-C head variant)")
    p.add_argument("--u0", type=int, required=True)
    p.add_argument("--delta", choices=("paper", "calibrated"), default="calibrated")
    head = p.add_mutually_exclusive_group()
    head.add_argument("--surface", type=_parse_surface, metavar="A,B,C",
                      help="prepend the head (-p, b) of this surface")
    head.add_argument("--head", type=_parse_pair, metavar="ALPHA,BETA",
                      help="head pair: prepended, or with no --entry the chain "
                           "(alpha,beta) -> (1,2)")
    add_output(p)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("family", help="generate surfaces with alpha*b - beta*(-p) = tau")
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--beta", type=int, required=True)
    p.add_argument("--tau", type=int, choices=(1, -1), required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--interval", type=_parse_interval, metavar="LO,HI",
                   help="keep only abscissas in this closed interval")
    add_output(p)
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("verify", help="margin sweep over one or more surfaces")
    p.add_argument("--surface", type=_parse_surface, action="append", required=True,
                   metavar="A,B,C", help="repeatable")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--jobs", type=int,
                   help="worker processes (default: EFFCONE_JOBS or all cores)")
    add_output(p, formats=("json", "csv"))
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("calibrate-delta", help="exhaustive step-error jump calibration")
    p.add_argument("--beta-max", type=int, required=True)
    p.add_argument("--instances", action="store_true",
                   help="include every disagreement instance in the payload")
    add_output(p)
    p.set_defaults(func=_cmd_calibrate)

    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    args = parser.parse_args(_shield_negatives(list(argv)))
    try:
        payload, code = args.func(args)
    except CalibrationError as exc:
        print(f"effcone: verification failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        print(f"effcone: error: {exc}", file=sys.stderr)
        return 2
    if getattr(args, "format", "json") == "csv":
        if not isinstance(payload, list):
            print("effcone: error: CSV output is not available for this payload",
                  file=sys.stderr)
            return 2
        fieldnames = list(payload[0].keys()) if payload else []
        _emit_csv(payload, fieldnames, args.output)
    else:
        _emit_json(payload, getattr(args, "output", None))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
