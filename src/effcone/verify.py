"""Verification harness: inequality margins, surface sweeps, jump calibration.

The interval classification predicts, for each surface, a divisor level m0
and family attaining the expected threshold with multiplicity nu0.  Two
counting inequalities certify the prediction over a finite grid:

* :func:`margin_general` (cells off the attainment ray): the section count
  must stay strictly below the triangular threshold scaled to that cell,
  i.e. h0 < C(ceil(nu0*n*delta'/(m0*delta)) + 1, 2) + 1 with delta = b for
  family B and c for family C;
* :func:`margin_at_multiple` (cells on the attainment ray): the count must
  stay strictly below C(nu0*t + 2, 2), so nu there is exactly nu0*t.

Cells are routed by divisor class, not by family label: the family-B level
n and the family-C level n' name the same divisor whenever n*b = n'*c, so a
cell of the non-attaining family whose degree n*delta' is a multiple of
m0*delta lies on the attainment ray (at step t = n*delta'/(m0*delta)) and
meets the threshold with equality; only the attainment-type bound can hold
there.  For same-family cells the condition reduces to the familiar
"n is a multiple of m0".

Both checks take the cell's count h0 and return margin = rhs - h0;
margin >= 1 certifies the strict inequality, margin < 1 is a
counterexample.  :func:`sweep_one` takes every count from the table of
:func:`~effcone.threshold.gamma_search`, so each cell is counted once, by
:func:`~effcone.surface.section_count`; :func:`sweep` runs every cell for a
list of surfaces and aggregates; :func:`calibrate_delta` exhaustively
compares the published step-error jump condition against the value forced
by the reduction identity (see the fracsum module).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from functools import partial
from math import comb, gcd

from .fracsum import paper_delta
# h0 is not called here; it stays bound because bench/test_bench.py checks
# that the tracer rebinds and restores verify.h0.
from .surface import FAMILY_B, FAMILY_C, WeightedSurface, h0  # noqa: F401
from .threshold import Classification, classify_surface, gamma_search

__all__ = [
    "CalibrationError",
    "attainment_step",
    "margin_general",
    "margin_at_multiple",
    "sweep_one",
    "sweep",
    "aggregate_sweep",
    "calibrate_delta",
]


class CalibrationError(Exception):
    """:func:`calibrate_delta` found a forced jump outside {0, 1}, which the
    fracsum theorem (the jump is 0) rules out: a data failure, not an input error."""


def _degrees(
    surface: WeightedSurface, cls: Classification, family: str, n: int
) -> tuple[int, int]:
    """Degrees (m0*delta, n*delta') of the attaining divisor and of the
    (family, n) cell, with delta = b for family B and c for family C."""
    delta = {FAMILY_B: surface.b, FAMILY_C: surface.c}
    if family not in delta:
        raise ValueError(f"margins need family 'B' or 'C', got {family!r}")
    return cls.m0 * delta[cls.family], n * delta[family]


def attainment_step(
    surface: WeightedSurface, cls: Classification, family: str, n: int
) -> int | None:
    """Step t if the (family, n) divisor is t times the attaining divisor.

    Returns the integer ratio of the degrees n*delta' / (m0*delta) when it
    is exact -- the two cells then name the same divisor class -- and None
    when the cell is off the attainment ray.
    """
    base, degree = _degrees(surface, cls, family, n)
    return degree // base if degree % base == 0 else None


def margin_general(
    surface: WeightedSurface, cls: Classification, family: str, n: int, count: int
) -> int:
    """rhs - count for the strict sub-threshold inequality at one off-ray
    cell, where ``count`` is the cell's h0.

    Not applicable when the cell's divisor degree n*delta' is a multiple of
    m0*delta (the divisor then sits on the attainment ray and meets the
    threshold exactly); use :func:`margin_at_multiple` there.
    """
    if n < 1:
        raise ValueError(f"require n >= 1, got {n}")
    base, degree = _degrees(surface, cls, family, n)
    if degree % base == 0:
        raise ValueError(
            f"the (family {family!r}, n = {n}) divisor is a multiple of m0 = "
            f"{cls.m0} in family {cls.family!r} (attainment step t = {degree // base}); "
            "use margin_at_multiple"
        )
    level = -(-cls.nu0 * degree // base)  # ceil(nu0*n*delta'/(m0*delta))
    return comb(level + 1, 2) + 1 - count


def margin_at_multiple(cls: Classification, t: int, count: int) -> int:
    """rhs - count at step t of the attainment ray (divisor degree
    t*m0*delta), where ``count`` is that divisor's h0.

    rhs = C(nu0*t + 2, 2); margin >= 1 certifies nu there is at most nu0*t,
    so the cell's value never exceeds the predicted threshold (equality is
    reached at t = 1 and whenever the count fills the triangular bound).
    Covers the classified family's cells n = m0*t and, through
    :func:`attainment_step`, the other family's cells naming the same
    divisor.
    """
    if t < 1:
        raise ValueError(f"require t >= 1, got {t}")
    return comb(cls.nu0 * t + 2, 2) - count


def sweep_one(surface: WeightedSurface, n_max: int) -> dict:
    """Margin report for one surface: every (classification, family, n) cell.

    The cells and their counts are the rows of :func:`gamma_search`'s table
    (family B, then family C, n = 1..n_max), so each count is computed once.
    Cells whose divisor lies on the attainment ray (degree a multiple of
    m0*delta, in either family) get the attainment-type bound; all others
    get the strict general bound.  A surface sitting on a shared
    sub-interval endpoint has two classifications; each cell's effective
    margin is the best one over the classifications, and the surface-level
    verdict is the classification-independent one.
    """
    classifications = classify_surface(surface)
    search = gamma_search(surface, n_max)
    rows = []
    cell_best: dict[tuple[str, int], int] = {}
    for cls in classifications:
        for family, n, count, _ in search.table:
            step = attainment_step(surface, cls, family, n)
            if step is not None:
                margin = margin_at_multiple(cls, step, count)
            else:
                margin = margin_general(surface, cls, family, n, count)
            rows.append(
                {
                    "branch": cls.branch,
                    "family": family,
                    "n": n,
                    "h0": count,
                    "rhs": margin + count,
                    "margin": margin,
                }
            )
            key = (family, n)
            if key not in cell_best or margin > cell_best[key]:
                cell_best[key] = margin
    failures = [
        {"family": family, "n": n, "margin": margin}
        for (family, n), margin in sorted(cell_best.items())
        if margin < 1
    ]
    return {
        "surface": dict(vars(surface)),
        "classifications": [dict(vars(cls)) for cls in classifications],
        "n_max": n_max,
        "rows": rows,
        "min_margin": min(cell_best.values()),
        "failures": failures,
        "gamma_best": search.best,
        "gamma_pred": search.prediction,
        "gamma_match": search.matches,
    }


def sweep(surfaces: list[WeightedSurface], n_max: int, jobs: int | None = None) -> list[dict]:
    """Margin reports for each surface, in input order.

    ``jobs > 1`` spreads the surfaces over min(jobs, len(surfaces)) worker
    processes; the output is deterministic either way.  A ``ValueError``
    from one surface (e.g. one outside every classification interval) is
    raised again with the surface in front of its message.
    """
    if jobs is not None and jobs > 1 and len(surfaces) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(surfaces))) as executor:
            return list(executor.map(partial(_sweep_named, n_max=n_max), surfaces))
    return [_sweep_named(surface, n_max) for surface in surfaces]


def _sweep_named(surface: WeightedSurface, n_max: int) -> dict:
    """:func:`sweep_one`, with the surface named in any ``ValueError`` it raises."""
    try:
        return sweep_one(surface, n_max)
    except ValueError as exc:
        raise ValueError(f"{surface!r}: {exc}") from exc


def aggregate_sweep(reports: list[dict]) -> dict:
    """Cross-surface summary, stratified by b.

    The sweep cannot decide asymptotic claims, so the summary records the
    per-b minima and the smallest b at which every margin is >= 1.
    """
    if not reports:
        return {
            "surfaces": 0,
            "min_margin": None,
            "failure_count": 0,
            "all_gamma_match": None,
            "by_b": [],
            "smallest_clean_b": None,
        }
    by_b: dict[int, dict] = {}
    for report in reports:
        b = report["surface"]["b"]
        entry = by_b.setdefault(b, {"b": b, "min_margin": None, "gamma_match": True})
        mm = report["min_margin"]
        if entry["min_margin"] is None or mm < entry["min_margin"]:
            entry["min_margin"] = mm
        entry["gamma_match"] = entry["gamma_match"] and bool(report["gamma_match"])
    stratified = [by_b[b] for b in sorted(by_b)]
    clean = [row["b"] for row in stratified if row["min_margin"] >= 1]
    return {
        "surfaces": len(reports),
        "min_margin": min(report["min_margin"] for report in reports),
        "failure_count": sum(len(report["failures"]) for report in reports),
        "all_gamma_match": all(report["gamma_match"] for report in reports),
        "by_b": stratified,
        "smallest_clean_b": min(clean) if clean else None,
    }


def calibrate_delta(beta_max: int) -> dict:
    """Exhaustively compare the published step-error jump with the exact one.

    For every beta0 <= beta_max, coprime alpha0 < beta0, sigma = +-1 (with
    the partner pair (alpha1, beta1) determined by the +-1 relation) and
    every u0 < beta0, computes the jump forced by the one-step reduction
    identity and the published condition's jump.  The forced jump must lie
    in {0, 1} -- anything else falsifies the calibrated model and raises.
    Disagreements are findings, not errors, and are all listed.
    """
    if beta_max < 3:
        raise ValueError(f"require beta_max >= 3, got {beta_max}")
    matrix = {"agree_0": 0, "agree_1": 0, "paper_1_true_0": 0, "paper_0_true_1": 0}
    disagreements = []
    instances = 0
    for beta0 in range(2, beta_max + 1):
        for alpha0 in range(1, beta0):
            if gcd(alpha0, beta0) != 1:
                continue
            for sigma in (1, -1):
                # A unit mod beta0 >= 2, so beta1 lies in [1, beta0 - 1].
                beta1 = (-sigma * pow(alpha0, -1, beta0)) % beta0
                alpha1 = (sigma + beta1 * alpha0) // beta0
                if alpha1 == 0:
                    alpha1 = beta1  # same residue class mod beta1 (beta1 = 1 here)
                # Incremental residue sums keep the whole grid in integers:
                # d_true has denominator 2*beta0*beta1 after clearing.
                prefix1 = [0] * beta1
                acc = 0
                for j in range(beta1):
                    acc += (alpha1 * j) % beta1
                    prefix1[j] = acc
                sum0 = 0
                for u0 in range(beta0):
                    sum0 += (alpha0 * u0) % beta0
                    t, u = divmod(u0, beta1)
                    num_f0 = beta1 * ((u0 + 1) * (beta0 - 1) - 2 * sum0)
                    num_f1 = beta0 * ((u + 1) * (beta1 - 1) - 2 * prefix1[u])
                    num_base = (u + 1) * (sigma * u + beta0 - beta1) + sigma * t * beta1 * (
                        beta1 * (t - sigma) + 2 * u + 1 - beta0
                    )
                    num_true = num_f0 - num_f1 - num_base
                    den = 2 * beta0 * beta1
                    if num_true % den != 0 or num_true // den not in (0, 1):
                        raise CalibrationError(
                            f"forced jump {Fraction(num_true, den)} outside {{0, 1}} at "
                            f"(alpha0={alpha0}, beta0={beta0}, alpha1={alpha1}, "
                            f"beta1={beta1}, sigma={sigma}, u0={u0})"
                        )
                    d_true = num_true // den
                    d_paper = paper_delta(sigma, t, u, beta0, beta1)
                    instances += 1
                    if d_true == d_paper:
                        matrix["agree_1" if d_true else "agree_0"] += 1
                    else:
                        key = "paper_1_true_0" if d_paper else "paper_0_true_1"
                        matrix[key] += 1
                        disagreements.append(
                            {
                                "alpha0": alpha0, "beta0": beta0,
                                "alpha1": alpha1, "beta1": beta1,
                                "sigma": sigma, "u0": u0,
                                "delta_true": d_true, "delta_paper": d_paper,
                            }
                        )
    return {
        "beta_max": beta_max,
        "instances": instances,
        "matrix": matrix,
        "disagreement_count": len(disagreements),
        "disagreements": disagreements,
    }
