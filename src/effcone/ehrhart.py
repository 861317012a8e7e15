"""Closed-form Ehrhart coefficients for the B and C divisor families.

For surfaces P(4,b,c) with p < 0 the lattice count of the n-th family-B or
family-C polytope is a quadratic c2*n^2 + c1*n + c0 whose constant term c0
varies periodically with n.  The formulas below evaluate each coefficient as
one exact rational: an integer numerator over one denominator (8bc for the
family-B c0, 2b for the family-C c0), each partial sum of fractional parts
entering as its integer residue sum.  c0 is computed from its own closed
form, never back-solved from a count, so agreement with the rowscan counter
is a genuine two-sided test.

The module also exposes the two c0 ingredients with published range bounds:
:func:`c0_middle_terms` (the -(5/2){sn} + partial-sum block) and
:func:`c0_upper_bound` (an n-dependent upper bound for the family-B c0).
"""

from __future__ import annotations

from fractions import Fraction

# frac_sum is unused; bench/test_bench.py checks the tracer rebinds ehrhart.frac_sum.
from .fracsum import _residue_sum, frac_sum  # noqa: F401
from .numerics import Frozen, require_int
from .surface import FAMILY_B, FAMILY_C, WeightedSurface

__all__ = [
    "EhrhartCoeffs",
    "coefficients",
    "c0_middle_terms",
    "c0_upper_bound",
]


class EhrhartCoeffs(Frozen):
    """Exact quadratic coefficients at one dilation level n."""

    def __init__(self, c2: Fraction, c1: Fraction, c0: Fraction, n: int, family: str) -> None:
        self.__dict__.update(c2=c2, c1=c1, c0=c0, n=n, family=family)

    def value(self) -> Fraction:
        """c2*n^2 + c1*n + c0 as one numerator over d2*d1*d0; the lattice count when correct."""
        n2, d2 = self.c2.as_integer_ratio()
        n1, d1 = self.c1.as_integer_ratio()
        n0, d0 = self.c0.as_integer_ratio()
        n = self.n
        return Fraction((n2 * n * d1 + n1 * d2) * n * d0 + n0 * d2 * d1, d2 * d1 * d0)


def _require_hypotheses(surface: WeightedSurface) -> None:
    if surface.a != 4 or surface.p >= 0:
        raise ValueError(
            f"Ehrhart closed forms require a = 4 and p < 0, got {surface} with p = {surface.p}"
        )
    # The closed forms assume q = 3, which a = 4 and p < 0 force: q = 0 gives c = 4p < 0,
    # q = 1 gives c = 4p + b < b, and q = 2 makes c = 4p + 2b even.


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
    require_int("n", n, 1)
    b, c, p = surface.b, surface.c, surface.p
    if family == FAMILY_B:
        # With {4sn} = rest/c, the second term of c0 is -(rest^2 - rest*c)/(8bc).
        quotient, rest = divmod(4 * b * n, c)
        top = 2 * b * _middle(b, c, n, quotient) + 4 * _tail(b, c, p, n, quotient)
        c2, c1 = Fraction(2 * b, c), Fraction(b + c + 4, 2 * c)
        c0 = Fraction(8 * b * c - rest * (rest - c) + top, 8 * b * c)
    elif family == FAMILY_C:
        # With {4n/b} = t/b, c0 = (2b - (b+1)t + 2*sum_{j<=t} (-pj mod b)) / 2b.
        t = 4 * n % b
        c2, c1 = Fraction(2 * c, b), Fraction(b + c + 4, 2 * b)
        c0 = Fraction(2 * b - (b + 1) * t + 2 * _residue_sum(-p, b, t), 2 * b)
    else:
        raise ValueError(f"Ehrhart coefficients exist for families B and C only, got {family!r}")
    return EhrhartCoeffs(c2=c2, c1=c1, c0=c0, n=n, family=family)


def _middle(b: int, c: int, n: int, quotient: int) -> int:
    """4c times :func:`c0_middle_terms`: c*sum_{j<=l} (3j mod 4) - 10*(bn mod c),
    where ``quotient`` is floor(4bn/c) and l = quotient mod 4."""
    return c * _residue_sum(3, 4, quotient % 4) - 10 * (b * n % c)


def _tail(b: int, c: int, p: int, n: int, quotient: int) -> int:
    """2bc times ((b-1)/2){4n/c} - sum_{j=0}^{r} {-pj/b}, the last two terms
    of the family-B c0, where ``quotient`` is floor(4bn/c) and r = quotient mod b."""
    return b * (b - 1) * (4 * n % c) - 2 * c * _residue_sum(-p, b, quotient % b)


def c0_middle_terms(surface: WeightedSurface, n: int) -> Fraction:
    """The oscillating block -(5/2){sn} + sum_{j=0}^{l} {3j/4} of the family-B c0.

    Defined for n >= 0.  Published range facts (all tested exhaustively):
    the value is at most 1/8; it is positive iff 1/4 < {sn} < 3/10; and a
    value above -1/(32s) forces {sn} < 1/2 + 1/(80s).
    """
    _require_hypotheses(surface)
    require_int("n", n, 0)
    b, c = surface.b, surface.c
    return Fraction(_middle(b, c, n, 4 * b * n // c), 4 * c)


def c0_upper_bound(surface: WeightedSurface, n: int) -> Fraction:
    """An upper bound for the family-B c0 at level n.

    Base form: 9/8 + 1/(32s) + ((b-1)/2){4n/c} - sum_{j=0}^{r} {-pj/b}.
    When {sn} >= 1/2 + 1/(80s) the leading 9/8 + 1/(32s) improves to 1.
    """
    _require_hypotheses(surface)
    require_int("n", n, 1)
    b, c = surface.b, surface.c
    # Over 32bc: {sn} >= 1/2 + c/(80b) iff 80b*(bn mod c) >= c(40b + c), and
    # the lead is then 1 = 32bc/32bc, else 9/8 + c/(32b) = c(36b + c)/32bc.
    lead = 32 * b * c if 80 * b * (b * n % c) >= c * (40 * b + c) else c * (36 * b + c)
    return Fraction(lead + 16 * _tail(b, c, surface.p, n, 4 * b * n // c), 32 * b * c)
