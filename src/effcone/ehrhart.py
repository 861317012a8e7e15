"""Closed-form Ehrhart coefficients for the B and C divisor families.

For surfaces P(4,b,c) with p < 0 the lattice count of the n-th family-B or
family-C polytope is a quadratic c2*n^2 + c1*n + c0 whose constant term c0
varies periodically with n.  The formulas below evaluate each coefficient as
an exact rational; c0 is always computed from its own closed form (never
back-solved from a count), so agreement with the rowscan counter is a
genuine two-sided test.

The module also exposes the two c0 ingredients with published range bounds:
:func:`c0_middle_terms` (the -(5/2){sn} + partial-sum block) and
:func:`c0_upper_bound` (an n-dependent upper bound for the family-B c0).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .fracsum import frac_sum
from .surface import FAMILY_B, FAMILY_C, WeightedSurface

__all__ = [
    "EhrhartCoeffs",
    "coefficients",
    "c0_middle_terms",
    "c0_upper_bound",
]


@dataclass(frozen=True)
class EhrhartCoeffs:
    """Exact quadratic coefficients at one dilation level n."""

    c2: Fraction
    c1: Fraction
    c0: Fraction
    n: int
    family: str

    def value(self) -> Fraction:
        """c2*n^2 + c1*n + c0; an integer (the lattice count) when correct."""
        return self.c2 * self.n * self.n + self.c1 * self.n + self.c0


def _require_hypotheses(surface: WeightedSurface) -> None:
    if surface.a != 4 or surface.p >= 0:
        raise ValueError(
            f"Ehrhart closed forms require a = 4 and p < 0, got {surface} with p = {surface.p}"
        )
    # p < 0 forces q = 3 for valid weights; polytope shapes rely on it.
    if surface.q != 3:
        raise ValueError(
            f"Ehrhart closed forms require q = 3, got {surface} with p = {surface.p}, "
            f"q = {surface.q}"
        )


def coefficients(surface: WeightedSurface, family: str, n: int) -> EhrhartCoeffs:
    """Exact Ehrhart coefficients of the n-th family-B or family-C divisor.

    Family B (divisor n*b*D_x, s = b/c):
        c2 = 2s,  c1 = (1 + s + 4/c)/2,
        c0 = 1 - (1/(8s))({4sn}^2 - {4sn}) - (5/2){sn}
             + sum_{j=0}^{l} {3j/4} + ((b-1)/2){4n/c} - sum_{j=0}^{r} {-pj/b}
        with l = floor(4sn) mod 4 and r = floor(4sn) mod b.

    Family C (divisor n*c*D_x):
        c2 = 2/s,  c1 = (1 + 1/s + 4/b)/2,
        c0 = 1 - {4n/b} - ((b-1)/2){4n/b} + sum_{j=0}^{4n mod b} {-pj/b}.
    """
    _require_hypotheses(surface)
    if n < 1:
        raise ValueError(f"require n >= 1, got {n}")
    b, c, p = surface.b, surface.c, surface.p
    s = Fraction(b, c)
    if family == FAMILY_B:
        c2 = 2 * s
        c1 = (1 + s + Fraction(4, c)) / 2
        frac_4sn = Fraction((4 * b * n) % c, c)
        c0 = (
            1
            - Fraction(c, 8 * b) * (frac_4sn * frac_4sn - frac_4sn)
            + c0_middle_terms(surface, n)
            + _c0_tail(surface, n)
        )
    elif family == FAMILY_C:
        c2 = 2 / s
        c1 = (1 + 1 / s + Fraction(4, b)) / 2
        frac_4n_b = Fraction((4 * n) % b, b)
        c0 = (
            1
            - frac_4n_b
            - Fraction(b - 1, 2) * frac_4n_b
            + frac_sum(-p, b, (4 * n) % b)
        )
    else:
        raise ValueError(f"Ehrhart coefficients exist for families B and C only, got {family!r}")
    return EhrhartCoeffs(c2=c2, c1=c1, c0=c0, n=n, family=family)


def c0_middle_terms(surface: WeightedSurface, n: int) -> Fraction:
    """The oscillating block -(5/2){sn} + sum_{j=0}^{l} {3j/4} of the family-B c0.

    Defined for n >= 0.  Published range facts (all tested exhaustively):
    the value is at most 1/8; it is positive iff 1/4 < {sn} < 3/10; and a
    value above -1/(32s) forces {sn} < 1/2 + 1/(80s).
    """
    _require_hypotheses(surface)
    if n < 0:
        raise ValueError(f"require n >= 0, got {n}")
    b, c = surface.b, surface.c
    frac_sn = Fraction((b * n) % c, c)
    ell = ((4 * b * n) // c) % 4
    return -Fraction(5, 2) * frac_sn + frac_sum(3, 4, ell)


def _c0_tail(surface: WeightedSurface, n: int) -> Fraction:
    """((b-1)/2){4n/c} - sum_{j=0}^{r} {-pj/b}, r = floor(4sn) mod b: the
    last two terms of the family-B c0."""
    b, c, p = surface.b, surface.c, surface.p
    r = ((4 * b * n) // c) % b
    return Fraction((b - 1) * ((4 * n) % c), 2 * c) - frac_sum(-p, b, r)


def c0_upper_bound(surface: WeightedSurface, n: int) -> Fraction:
    """An upper bound for the family-B c0 at level n.

    Base form: 9/8 + 1/(32s) + ((b-1)/2){4n/c} - sum_{j=0}^{r} {-pj/b}.
    When {sn} >= 1/2 + 1/(80s) the leading 9/8 + 1/(32s) improves to 1.
    """
    _require_hypotheses(surface)
    if n < 1:
        raise ValueError(f"require n >= 1, got {n}")
    b, c = surface.b, surface.c
    tail = _c0_tail(surface, n)
    if Fraction((b * n) % c, c) >= Fraction(1, 2) + Fraction(c, 80 * b):
        return 1 + tail
    return Fraction(9, 8) + Fraction(c, 32 * b) + tail
