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
there.  As m0*delta divides n*delta' exactly when n is a multiple of
step = m0*delta/gcd(m0*delta, delta') (for same-family cells, step = m0),
:func:`sweep_one` routes one (classification, family) column of cells at a
time, the one place that makes this test: in one pass over the column, the
ray cells n = step, 2*step, ... go to :func:`margin_at_multiple` and the
others to :func:`margin_general`, so each cell makes one margin call.

Both checks take the cell's count h0 and return margin = rhs - h0;
margin >= 1 certifies the strict inequality, margin < 1 is a
counterexample.  :func:`sweep_one` reads each family's counts from its
column of :func:`~effcone.threshold.gamma_search`, so each cell is counted
once, from one pair of running sums per surface (see
:func:`~effcone.surface.section_counts`), and keeps each family's best
margins over the classifications as one list, in n order; :func:`sweep`
runs every cell for a list of surfaces and aggregates.

:func:`calibrate_delta` compares the published step-error jump condition
with the value forced by the reduction identity (see the fracsum module).
At run time it checks the +-1 determinant of every partner pair of its
grid, one multiplication per partner.  By the lemma in
:func:`_check_partners`, the determinant gives the per-term floor identity
from which the fracsum theorem sums to a jump of 0 at every u0, so every
instance is still covered; its report then follows in closed form.  The
tests compare the report with the per-instance residue-sum loop it
replaced, and the check with the value comparison that came before it, on
perturbed pairs too.

Both record lists are :class:`Records`, flat dicts stored as column blocks:
:func:`sweep_one`'s margin rows hold one block per (classification, family)
column, with ``branch`` and ``family`` shared and ``n`` (a ``range``), ``h0``,
``rhs`` and ``margin`` as columns, and :func:`calibrate_delta`'s
disagreements one block per (alpha0, beta0), with ``u0`` (a ``range``) the
only column.  They iterate and compare as lists of dicts; the CLI's JSON writer
renders them a block at a time without building the dicts, and a worker
process sends them to its parent as their blocks.  The process pool (and so
``multiprocessing``) is imported only inside :func:`sweep`, when it spreads
the surfaces over more than one worker; no other call loads it.
"""

from __future__ import annotations

from functools import partial
from itertools import repeat
from math import comb, gcd
from operator import add

from .numerics import require_int

# h0 is not called here; it stays bound because bench/test_bench.py checks
# that the tracer rebinds and restores verify.h0.
from .surface import FAMILY_B, FAMILY_C, WeightedSurface, h0  # noqa: F401
from .threshold import Classification, classify_surface, gamma_search

__all__ = [
    "CalibrationError",
    "Records",
    "margin_general",
    "margin_at_multiple",
    "sweep_one",
    "sweep",
    "aggregate_sweep",
    "calibrate_delta",
]


class CalibrationError(Exception):
    """:func:`calibrate_delta` built a partner pair whose +-1 determinant
    fails, so the per-term identity that makes its forced jump 0 is not
    certified: a data failure, not an input error."""


class Records:
    """Immutable flat dicts, stored as blocks of records.

    ``keys`` fixes every record's key order.  Each block is a pair
    (``shared``, ``columns``): ``shared`` maps some keys to the value every
    record of the block holds, and ``columns`` maps the other keys (at least
    one) to equal-length sequences, such as a ``range``, whose i-th items
    belong to the block's i-th record.  Iterating builds the dicts, and
    ``==`` against a list or another ``Records`` compares the records.  It
    pickles as its blocks, and the JSON writer renders a block, its shared
    values joined to a record's literal texts once, without building its
    dicts.
    """

    __slots__ = ("_keys", "_blocks", "_len")

    def __init__(self, keys, blocks=()):
        self._keys = tuple(keys)
        self._blocks = tuple((dict(shared), dict(columns)) for shared, columns in blocks)
        names, self._len = set(self._keys), 0
        if len(names) != len(self._keys):
            raise ValueError(f"repeated key in {self._keys}")
        for shared, columns in self._blocks:
            lengths = set(map(len, columns.values()))
            # Disjoint subsets of names whose sizes add up to len(names) split it.
            if (len(shared) + len(columns) != len(names) or not names.issuperset(shared)
                    or not names.issuperset(columns) or not shared.keys().isdisjoint(columns)):
                raise ValueError(f"a block's shared keys {list(shared)} and column keys "
                                 f"{list(columns)} do not split {self._keys}")
            if len(lengths) != 1:
                raise ValueError(f"a block needs one or more columns of one length, "
                                 f"got lengths {sorted(lengths)}")
            self._len += lengths.pop()

    @property
    def keys(self) -> tuple:
        return self._keys

    @property
    def blocks(self) -> tuple:
        """The (shared, columns) pairs, in record order."""
        return self._blocks

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        keys = self._keys
        for shared, columns in self._blocks:
            values = zip(*(columns[k] if k in columns else repeat(shared[k]) for k in keys))
            yield from map(dict, map(zip, repeat(keys), values))

    def __eq__(self, other):
        if not isinstance(other, (Records, list)):
            return NotImplemented
        return len(self) == len(other) and list(self) == list(other)

    __hash__ = None

    def __reduce__(self):
        return Records, (self._keys, self._blocks)

    def __repr__(self) -> str:
        return f"Records({self._keys!r}, {list(self._blocks)!r})"


# Key order of a margin row, and of a disagreement record.
_ROW_KEYS = ("branch", "family", "n", "h0", "rhs", "margin")
_DISAGREEMENT_KEYS = (
    "alpha0", "beta0", "alpha1", "beta1", "sigma", "u0", "delta_true", "delta_paper",
)


def margin_general(cls: Classification, degree: int, base: int, count: int) -> int:
    """rhs - count for the strict sub-threshold inequality at one off-ray
    cell of divisor degree ``degree`` = n*delta', where ``base`` = m0*delta
    is the degree of the attaining divisor and ``count`` is the cell's h0.

    Not applicable when ``degree`` is a multiple of ``base`` (the divisor
    then sits on the attainment ray and meets the threshold exactly); use
    :func:`margin_at_multiple` there.  On P(4, 5, 7), branch I'- (family B,
    m0 = 7, base 7*5) and cell (B, 1) (degree 5, h0 = 3):

    >>> from effcone.threshold import classify
    >>> margin_general(classify(5, -2)[0], 5, 35, 3)
    1
    """
    if degree < 1 or base < 1:
        raise ValueError(f"require degree >= 1 and base >= 1, got {degree} and {base}")
    if degree % base == 0:
        raise ValueError(
            f"degree {degree} is a multiple of m0 = {cls.m0} times delta, base = "
            f"{base} (attainment step t = {degree // base}); use margin_at_multiple"
        )
    level = -(-cls.nu0 * degree // base)  # ceil(nu0*n*delta'/(m0*delta))
    return comb(level + 1, 2) + 1 - count


def margin_at_multiple(cls: Classification, t: int, count: int) -> int:
    """rhs - count at step t of the attainment ray (divisor degree
    t*m0*delta), where ``count`` is that divisor's h0.

    rhs = C(nu0*t + 2, 2); margin >= 1 certifies nu there is at most nu0*t,
    so the cell's value never exceeds the predicted threshold (equality is
    reached at t = 1 and whenever the count fills the triangular bound).
    Covers the classified family's cells n = m0*t and the other family's
    cells naming the same divisor.
    """
    require_int("t", t, 1)
    return comb(cls.nu0 * t + 2, 2) - count


def sweep_one(surface: WeightedSurface, n_max: int) -> dict:
    """Margin report for one surface: every (classification, family, n) cell.

    The cells and their counts are the columns of :func:`gamma_search`
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
    delta, ns = {FAMILY_B: surface.b, FAMILY_C: surface.c}, range(1, n_max + 1)
    blocks = []  # one per (classification, family) column of cells
    best: list[list[int]] | None = None  # each cell's best margin, one list per family
    for cls in classifications:
        base, margins = cls.m0 * delta[cls.family], []
        for family, _, counts, _ in search.columns:
            column = _margin_column(cls, base, delta[family], counts)
            blocks.append((
                {"branch": cls.branch, "family": family},
                {"n": ns, "h0": counts, "rhs": list(map(add, column, counts)), "margin": column},
            ))
            margins.append(column)
        best = margins if best is None else [list(map(max, *pair)) for pair in zip(best, margins)]
    failures = [
        {"family": family, "n": n, "margin": margin}
        for (family, *_), column in zip(search.columns, best)
        for n, margin in zip(ns, column)
        if margin < 1
    ]
    return {
        "surface": dict(vars(surface)),
        "classifications": [dict(vars(cls)) for cls in classifications],
        "n_max": n_max,
        "rows": Records(_ROW_KEYS, blocks),
        "min_margin": min(map(min, best)),
        "failures": failures,
        "gamma_best": search.best,
        "gamma_pred": search.prediction,
        "gamma_match": search.matches,
    }


def _margin_column(cls: Classification, base: int, delta: int, counts: tuple) -> list[int]:
    """Margins under ``cls`` of the cells n = 1..len(counts) of degree
    n*delta, routed as the module docstring says: one margin call each."""
    g = gcd(base, delta)
    step, t = base // g, delta // g  # base divides n*delta iff step divides n, at ray step n/step*t
    return [margin_at_multiple(cls, n // step * t, count) if n % step == 0
            else margin_general(cls, n * delta, base, count)
            for n, count in enumerate(counts, 1)]


def sweep(surfaces: list[WeightedSurface], n_max: int, jobs: int = 1) -> list[dict]:
    """Margin reports for each surface, in input order.

    ``jobs > 1`` spreads the surfaces over min(jobs, len(surfaces)) worker
    processes; the output is deterministic either way.  A ``ValueError``
    from one surface (e.g. one outside every classification interval) is
    raised again with the surface in front of its message; a bad ``n_max``
    is refused first, naming no surface, and then a ``jobs`` below 1; a
    non-int ``n_max`` or ``jobs`` (``bool`` included) raises ``TypeError``.
    """
    require_int("n_max", n_max, 1)
    require_int("jobs", jobs, 1)
    if jobs > 1 and len(surfaces) > 1:
        from concurrent.futures import ProcessPoolExecutor

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
    by_b: dict[int, dict] = {}
    for report in reports:
        b = report["surface"]["b"]
        entry = by_b.setdefault(b, {"b": b, "min_margin": None, "gamma_match": True})
        mm = report["min_margin"]
        if entry["min_margin"] is None or mm < entry["min_margin"]:
            entry["min_margin"] = mm
        entry["gamma_match"] = entry["gamma_match"] and bool(report["gamma_match"])
    stratified = [by_b[b] for b in sorted(by_b)]
    return {
        "surfaces": len(reports),
        "min_margin": min((report["min_margin"] for report in reports), default=None),
        "failure_count": sum(len(report["failures"]) for report in reports),
        "all_gamma_match": all(report["gamma_match"] for report in reports) if reports else None,
        "by_b": stratified,
        "smallest_clean_b": min(
            (row["b"] for row in stratified if row["min_margin"] >= 1), default=None
        ),
    }


def _check_partners(alpha0: int, beta0: int, *partners: tuple[int, int, int]) -> None:
    """Check that each (alpha1, beta1, sigma) is a partner of (alpha0, beta0):
    beta1 >= 1 and alpha1*beta0 - beta1*alpha0 = sigma = +-1; raise
    :class:`CalibrationError` otherwise.

    Lemma.  For beta0, beta1 >= 1 and alpha1*beta0 - beta1*alpha0 = sigma =
    +-1, floor(alpha1*j/beta1) - floor(alpha0*j/beta0) = [sigma = 1, beta1 |
    j, j > 0] for every 0 <= j < beta0.  That is the fracsum proof's per-term
    identity; summed over j <= u0, it is the step identity with jump 0 at that
    u0, so one determinant test covers the pair's beta0 instances.

    Proof.  The floor difference is sigma times the number of integers N
    between the two quotients.  Such an N gives j = sigma*(beta0*A +
    beta1*B) with A = alpha1*j - N*beta1 and B = N*beta0 - alpha0*j.  For
    sigma = -1, N in (alpha1*j/beta1, alpha0*j/beta0] has A <= -1 and B <= 0,
    so j >= beta0.  For sigma = +1, N in (alpha0*j/beta0, alpha1*j/beta1] has
    A >= 0 and B >= 1; j < beta0 forces A = 0, so beta1 | alpha1*j and j =
    beta1*B is a multiple j > 0 of beta1.  Each such j gives exactly one N,
    alpha1*j/beta1, because the interval is shorter than 1/beta1."""
    for alpha1, beta1, sigma in partners:
        if beta1 < 1 or sigma not in (1, -1) or alpha1 * beta0 - beta1 * alpha0 != sigma:
            raise CalibrationError(
                f"per-term identity fails at (alpha0={alpha0}, beta0={beta0}, sigma={sigma}) "
                f"with partner (alpha1={alpha1}, beta1={beta1}): the forced jump is not 0"
            )


def calibrate_delta(beta_max: int, instances: bool = True) -> dict:
    """Compare the published step-error jump with the exact one on every
    instance: beta0 <= beta_max, coprime alpha0 < beta0, sigma = +-1 (with
    the partner pair (alpha1, beta1) determined by the +-1 relation) and
    u0 < beta0.

    Checked at run time, for every (alpha0, beta0, sigma): the partner's
    +-1 determinant (:func:`_check_partners`), from which the per-term
    identity of the fracsum proof follows, and with it a forced jump of 0 at
    every u0; a failure raises :class:`CalibrationError`.
    The report then follows in closed form.  Each (alpha0, sigma) adds beta0
    instances.  The published condition fires exactly on the sigma = -1
    instances with u0 >= beta0 - beta1, beta1 of them per pair; as alpha0
    runs over the units mod beta0 so does beta1, so they are a quarter of
    all instances.  Each such disagreement is a finding and is listed (with
    alpha1 = beta1 = 1 where the partner is 0), in the order beta0, alpha0,
    u0; ``instances=False`` builds no list and reports None in its place.
    The tests compare this report with the per-instance loop it replaced.
    """
    require_int("beta_max", beta_max, 3)
    total = over = 0
    blocks = []  # one per (alpha0, beta0) with instances
    for beta0 in range(2, beta_max + 1):
        for alpha0 in range(1, beta0):
            if gcd(alpha0, beta0) != 1:
                continue
            # sigma = -1's partner: beta1 = alpha0^-1 mod beta0, in [1, beta0 - 1]
            # as beta0 >= 2.  sigma = +1's is (alpha0 - alpha1, beta0 - beta1).
            beta1 = pow(alpha0, -1, beta0)
            alpha1 = (beta1 * alpha0 - 1) // beta0
            _check_partners(
                alpha0, beta0, (alpha0 - alpha1, beta0 - beta1, 1), (alpha1, beta1, -1)
            )
            total += 2 * beta0
            over += beta1
            if instances:
                alpha1 = alpha1 or beta1  # same residue class mod beta1 (beta1 = 1 here)
                shared = {
                    "alpha0": alpha0, "beta0": beta0, "alpha1": alpha1, "beta1": beta1,
                    "sigma": -1, "delta_true": 0, "delta_paper": 1,
                }
                blocks.append((shared, {"u0": range(beta0 - beta1, beta0)}))
    return {
        "beta_max": beta_max,
        "instances": total,
        "matrix": {
            "agree_0": total - over, "agree_1": 0, "paper_1_true_0": over, "paper_0_true_1": 0,
        },
        "disagreement_count": over,
        "disagreements": Records(_DISAGREEMENT_KEYS, blocks) if instances else None,
    }
