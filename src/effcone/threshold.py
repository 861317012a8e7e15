"""Expected effective thresholds: nu invariants, the interval classification,
gamma searches, small-a lower bounds, and the reference triangles.

For P(4,b,c) with p < 0 the abscissa x = b/(-p) lies in (2, 16/3) exactly
when the classification machinery applies.  That range splits into levels
I_k = [L(k+1), L(k)] with L(k) = 16k^2/(8k^2 - 4k - 1) strictly decreasing,
and each level splits into four closed sub-intervals, labelled left to
right::

    I'-   [L(k+1),            (2k+1)/k         ]  -> m0 = 2k+3, family B, nu0 = 4(k+1)
    I'+   [(2k+1)/k,          4(2k+1)^2/(8k^2+4k-1)]  -> m0 = 2k+1, family C, nu0 = 4(k+1)
    I''-  [4(2k+1)^2/(8k^2+4k-1), 4k/(2k-1)    ]  -> m0 = k+1,  family B, nu0 = 2k+1
    I''+  [4k/(2k-1),          L(k)            ]  -> m0 = k,    family C, nu0 = 2k+1

A surface on a shared endpoint belongs to both adjacent sub-intervals and
receives two classifications whose predicted thresholds agree (tested).
The predicted threshold is gamma = nu0*c/m0 for family B (divisor m0*b*D_x
~ (m0/c)H) and gamma = nu0*b/m0 for family C (divisor m0*c*D_x ~ (m0/b)H).
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .lattice import RationalTriangle, triangle
from .numerics import Frozen, require_int
from .surface import (
    FAMILY_AZ,
    FAMILY_B,
    FAMILY_C,
    DivisorSpec,
    WeightedSurface,
    _family_counts,
    h0,
)

__all__ = [
    "BRANCHES",
    "Classification",
    "nu_from_h0",
    "nu",
    "outer_bound",
    "branch_interval",
    "classify",
    "classify_surface",
    "GammaSearchResult",
    "gamma_search",
    "family_supremum",
    "lower_bound_small_a",
    "reference_triangle",
    "expected_count_large",
    "expected_count_small",
]

BRANCHES = ("I'-", "I'+", "I''-", "I''+")


class Classification(Frozen):
    """One matched sub-interval: its level k, branch label, and the
    predicted optimal divisor data (multiple m0, family, nu0, threshold)."""

    def __init__(self, k: int, branch: str, m0: int, family: str, nu0: int,
                 gamma_pred: Fraction) -> None:
        self.__dict__.update(k=k, branch=branch, m0=m0, family=family, nu0=nu0,
                             gamma_pred=gamma_pred)


def nu_from_h0(h: int) -> int:
    """Largest d >= 1 with h > d(d+1)/2, or 0 if none.

    A section space of dimension h > C(d+1, 2) contains a member vanishing
    to order >= d at a general point, by linear algebra.

    >>> nu_from_h0(37)
    8
    >>> nu_from_h0(1)
    0
    """
    if h < 1:
        raise ValueError(f"require h >= 1, got {h}")
    # h > d(d+1)/2 iff 2d+1 <= isqrt(8h-7): both sides integer-exact.
    return (isqrt(8 * h - 7) - 1) // 2


def nu(surface: WeightedSurface, div: DivisorSpec) -> int:
    """nu of a family divisor: nu_from_h0 of its section count."""
    return nu_from_h0(h0(surface, div))


def outer_bound(k: int) -> Fraction:
    """L(k) = 16k^2/(8k^2 - 4k - 1), the decreasing sequence of level edges."""
    require_int("k", k, 1)
    return Fraction(*_edge(k))


def _edge(k: int) -> tuple[int, int]:
    """L(k) as the integer pair (16k^2, 8k^2 - 4k - 1)."""
    return (16 * k * k, 8 * k * k - 4 * k - 1)


def _level(k: int) -> tuple[tuple[str, tuple, tuple, int, str, int], ...]:
    """The four rows (branch, lo, hi, m0, family, nu0) of level k, in the order
    of the module docstring's table, each endpoint an integer pair (num, den > 0)."""
    require_int("k", k, 1)
    mid_left = (2 * k + 1, k)
    mid_right = (4 * (2 * k + 1) ** 2, 8 * k * k + 4 * k - 1)
    three_quarter = (4 * k, 2 * k - 1)
    return (
        ("I'-", _edge(k + 1), mid_left, 2 * k + 3, FAMILY_B, 4 * (k + 1)),
        ("I'+", mid_left, mid_right, 2 * k + 1, FAMILY_C, 4 * (k + 1)),
        ("I''-", mid_right, three_quarter, k + 1, FAMILY_B, 2 * k + 1),
        ("I''+", three_quarter, _edge(k), k, FAMILY_C, 2 * k + 1),
    )


def branch_interval(k: int, branch: str) -> tuple[Fraction, Fraction]:
    """Closed endpoints [lo, hi] of one sub-interval at level k."""
    for label, lo, hi, *_ in _level(k):
        if label == branch:
            return (Fraction(*lo), Fraction(*hi))
    raise ValueError(f"unknown branch {branch!r}; expected one of {BRANCHES}")


def classify(b: int, p: int) -> list[Classification]:
    """All classifications of the surface P(4, b, 3b+4p) with abscissa b/(-p).

    The abscissa must lie strictly inside (2, 16/3); shared-endpoint
    abscissas yield two classifications (whose predictions agree).
    """
    if p >= 0:
        raise ValueError(f"classification requires p < 0, got {p}")
    require_int("b", b, 1)
    m = -p  # b/m is compared with each bound lo/hi by cross-multiplying integers
    if not (2 * m < b and 3 * b < 16 * m):
        x = Fraction(b, m)
        raise ValueError(f"abscissa b/(-p) = {x} outside the open interval (2, 16/3)")
    c = 3 * b + 4 * p
    found: list[Classification] = []
    # L(k) decreases from L(1) = 16/3 toward 2, so k + 1 is the least j >= 2
    # with L(j) <= b/m, i.e. with gap = lead*j^2 - 4b*j - b >= 0, where
    # lead = 8b - 16m > 0.  The start is the floor of that quadratic's
    # positive root, so the integer test raises it at most once.  An
    # endpoint b/m = L(k + 1), where gap = 0, matches two levels.
    lead = 8 * b - 16 * m
    j = max(2, (2 * b + isqrt(4 * b * b + lead * b)) // lead)
    while (gap := lead * j * j - 4 * b * j - b) < 0:
        j += 1
    k = j - 1
    for level in (k, k + 1) if gap == 0 else (k,):
        for branch, (lo, lo_den), (hi, hi_den), m0, family, nu0 in _level(level):
            if lo * m <= b * lo_den and b * hi_den <= hi * m:
                found.append(Classification(
                    k=level, branch=branch, m0=m0, family=family, nu0=nu0,
                    gamma_pred=Fraction(nu0 * (c if family == FAMILY_B else b), m0),
                ))
    return found


def classify_surface(surface: WeightedSurface) -> list[Classification]:
    """Classify a validated surface; requires a = 4 and p < 0."""
    if surface.a != 4 or surface.p >= 0:
        raise ValueError("classification requires a = 4 and p < 0, "
                         f"got a = {surface.a} and p = {surface.p}")
    return classify(surface.b, surface.p)


class GammaSearchResult(Frozen):
    """The best value scale*nu/n with its (family, n, nu) witnesses, and one
    (family, scale, h0s, nus) column per family, h0s[n-1] and nus[n-1] at n."""

    def __init__(self, best: Fraction, witnesses: tuple, columns: tuple,
                 prediction: Fraction | None, matches: bool | None) -> None:
        self.__dict__.update(best=best, witnesses=witnesses, columns=columns,
                             prediction=prediction, matches=matches)


def _search_families(surface: WeightedSurface) -> tuple[tuple[str, int], ...]:
    """(family, scale) pairs contributing candidate values scale*nu/n."""
    if surface.a == 4:
        # _family_counts() refuses the B/C shapes unless q = 3 as well.
        return ((FAMILY_B, surface.c), (FAMILY_C, surface.b))
    # a <= 3: only the AZ family (n*a*D_z ~ (n/b)H) is available.
    return ((FAMILY_AZ, surface.b),)


def _best(columns: tuple) -> tuple[Fraction, tuple]:
    """The largest value scale*nu/n over ``columns`` and its (family, n, nu)
    witnesses in column order, comparing values by cross-multiplying."""
    top, bottom, witnesses = 0, 1, []  # values are >= 0: the first cell ties or beats 0/1
    for family, scale, _, nus in columns:
        for n, d in enumerate(nus, 1):
            value = scale * d
            if value * bottom > top * n:
                top, bottom, witnesses = value, n, [(family, n, d)]
            elif value * bottom == top * n:
                witnesses.append((family, n, d))
    return Fraction(top, bottom), tuple(witnesses)


def gamma_search(surface: WeightedSurface, n_max: int) -> GammaSearchResult:
    """Exact maximum of the candidate threshold values scale*nu/n for n <= n_max.

    Family B contributes c*nu(n*b*D_x)/n, family C contributes
    b*nu(n*c*D_x)/n (for a <= 3, AZ contributes b*nu(n*a*D_z)/n).  Returns
    the best value, every attaining (family, n, nu) witness in (family, n)
    order, one column per family (B then C, or AZ alone) holding its scale
    and its integer h0 and nu for n = 1..n_max, and -- when the surface
    classifies (a = 4, p < 0 and b/(-p) < 16/3) -- whether the best value
    matches the predicted threshold.  Every family's counts come from one
    shared pair of running sums (as in
    :func:`~effcone.surface.section_counts`), not from h0.
    """
    scales = _search_families(surface)
    counts = _family_counts(surface, tuple(family for family, _ in scales), n_max)
    columns = tuple((family, scale, tuple(h0s), tuple(map(nu_from_h0, h0s)))
                    for (family, scale), h0s in zip(scales, counts))
    best, witnesses = _best(columns)
    prediction: Fraction | None = None
    matches: bool | None = None
    if surface.a == 4 and surface.p < 0 and 3 * surface.b < -16 * surface.p:
        prediction = classify_surface(surface)[0].gamma_pred
        matches = best == prediction
    return GammaSearchResult(
        best=best, witnesses=witnesses, columns=columns, prediction=prediction, matches=matches,
    )


def family_supremum(surface: WeightedSurface, family: str, n_max: int) -> Fraction:
    """Max over n <= n_max of the candidate values from a single family."""
    scales = dict(_search_families(surface))
    if family not in scales:
        raise ValueError(f"family {family!r} not available on {surface}")
    (h0s,) = _family_counts(surface, (family,), n_max)
    return _best(((family, scales[family], h0s, map(nu_from_h0, h0s)),))[0]


def lower_bound_small_a(surface: WeightedSurface) -> int:
    """Combinatorial threshold lower bound from the first AZ divisor.

    Returns (q+1)*b when p >= 0, and (a-1)*b when p < 0 -- the latter only
    under the hypotheses q = a-1 and -p*a/b <= 1 that make the AZ polytope
    argument work; outside them (e.g. most a = 4 surfaces with p < 0) the
    interval classification is the applicable tool and this raises.
    """
    a, b, p, q = surface.a, surface.b, surface.p, surface.q
    if p >= 0:
        return (q + 1) * b
    if q == a - 1 and Fraction(-p * a, b) <= 1:
        return (a - 1) * b
    raise ValueError(
        f"lower bound hypotheses fail for {surface}: need p >= 0, or "
        f"q = a-1 with -p*a/b <= 1 (got q = {q}, -p*a/b = {Fraction(-p * a, b)})"
    )


def reference_triangle(k: int, which: str) -> RationalTriangle:
    """The two fixed integral triangles certifying nu at level k.

    ``which = "large"``: Conv((0,0), (-(2k+3), 0), (-3(2k+1), 4(2k+1))),
    with 8k^2 + 18k + 11 = C(4(k+1)+1, 2) + 1 lattice points; contained in
    the predicted divisor's polytope on the I' branches.
    ``which = "small"``: Conv((0,0), (-(k+1), 0), (-3k, 4k)), with
    2k^2 + 3k + 2 = C(2k+2, 2) + 1 lattice points; contained on the I''
    branches.
    """
    require_int("k", k, 1)
    if which == "large":
        return triangle((0, 0), (-(2 * k + 3), 0), (-3 * (2 * k + 1), 4 * (2 * k + 1)))
    if which == "small":
        return triangle((0, 0), (-(k + 1), 0), (-3 * k, 4 * k))
    raise ValueError(f"which must be 'large' or 'small', got {which!r}")


def expected_count_large(k: int) -> int:
    """Closed-form lattice count of reference_triangle(k, "large")."""
    return 8 * k * k + 18 * k + 11


def expected_count_small(k: int) -> int:
    """Closed-form lattice count of reference_triangle(k, "small")."""
    return 2 * k * k + 3 * k + 2
