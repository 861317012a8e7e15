"""Generators for one-parameter sequences of surfaces P(4, b, 3b - 4m).

Fixing a coprime target fraction beta/alpha and a sign tau, the solutions of

    alpha*b - beta*m = tau          (m = -p > 0)

form an arithmetic progression b = b0 + beta*t, m = m0 + alpha*t whose
abscissa b/m approaches beta/alpha monotonically from the tau side.  Keeping
the valid weights (b odd and > 4, c = 3b - 4m > b; the remaining coprimality
is automatic, since gcd(b, m) divides tau) yields arbitrarily many surfaces
whose abscissas converge to any prescribed sub-interval endpoint -- the fuel
for every sweep in this package.

The indices t are not tested one by one.  Cross-multiplied in integers, each
condition (m >= 1, b - 2m >= 1, and lo <= b/m <= hi for an interval filter)
is A + B*t >= 0, which bounds t from one side (or keeps all t or none when
B = 0), and "b odd" keeps every other t, or every t when beta is even; so the
valid indices form one ``range``, and :func:`solve_family` builds only the
members it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .surface import WeightedSurface, make_surface

__all__ = ["FamilyRequest", "solve_family", "SCAN_LIMIT"]

#: Number of progression indices after the first one with b >= 5 that
#: :func:`solve_family` draws its members from before giving up with a
#: diagnostic.
SCAN_LIMIT = 10**6


@dataclass(frozen=True)
class FamilyRequest:
    """Parameters of one surface sequence.

    ``interval``, if given, keeps only surfaces whose abscissa b/(-p) lies
    in the closed interval [lo, hi].
    """

    alpha: int
    beta: int
    tau: int
    count: int
    interval: tuple[Fraction, Fraction] | None = None

    def __post_init__(self) -> None:
        if self.alpha < 1 or self.beta < 1:
            raise ValueError(f"require positive alpha, beta; got ({self.alpha}, {self.beta})")
        if gcd(self.alpha, self.beta) != 1:
            raise ValueError(f"require gcd(alpha, beta) = 1, got ({self.alpha}, {self.beta})")
        if self.tau not in (-1, 1):
            raise ValueError(f"tau must be +-1, got {self.tau}")
        if self.count < 1:
            raise ValueError(f"require count >= 1, got {self.count}")
        if self.interval is not None:
            lo, hi = self.interval
            if not lo <= hi:
                raise ValueError(f"empty interval filter [{lo}, {hi}]")


def solve_family(req: FamilyRequest) -> list[WeightedSurface]:
    """First ``req.count`` surfaces with alpha*b - beta*(-p) = tau, by increasing b.

    Members are taken from the progression indices t_start ..
    t_start + SCAN_LIMIT - 1, t_start being the first with b >= 5.  The valid
    indices of that window are worked out as one ``range`` (see the module
    docstring), so the work is O(count) whatever the window, and
    :func:`~effcone.surface.make_surface` validates each member.

    Raises :class:`ValueError` if the window holds fewer than ``req.count``
    valid indices (the progression is infinite, so this only happens for
    filters that exclude the convergent tail, or for counts beyond the
    filtered range).
    """
    alpha, beta = req.alpha, req.beta
    # Particular solution of alpha*b - beta*m = tau; shift to the smallest
    # progression index with b > 4 (b increases with t).
    b0 = pow(alpha, -1, beta) * req.tau
    m0 = (alpha * b0 - req.tau) // beta
    t_lo = -((b0 - 5) // beta)  # smallest t with b0 + beta*t >= 5
    t_hi = t_lo + SCAN_LIMIT - 1
    # Each valid t has A + B*t >= 0 for every row (A, B): m >= 1, b - 2m >= 1,
    # and, as m > 0, lo.den*b - lo.num*m >= 0 and hi.num*m - hi.den*b >= 0.
    rows = [(m0 - 1, alpha), (b0 - 2 * m0 - 1, beta - 2 * alpha)]
    if req.interval is not None:
        lo, hi = map(Fraction, req.interval)
        rows.append((lo.denominator * b0 - lo.numerator * m0,
                     lo.denominator * beta - lo.numerator * alpha))
        rows.append((hi.numerator * m0 - hi.denominator * b0,
                     hi.numerator * alpha - hi.denominator * beta))
    for const, slope in rows:
        if slope > 0:
            t_lo = max(t_lo, -(const // slope))
        elif slope < 0:
            t_hi = min(t_hi, const // -slope)
        elif const < 0:
            t_hi = t_lo - 1
    # b = b0 + beta*t is odd for every other t if beta is odd; if beta is
    # even, alpha*b = tau + beta*m makes every b odd.
    step = 1
    if beta % 2:
        step = 2
        t_lo += (b0 + t_lo + 1) % 2
    valid = range(t_lo, t_hi + 1, step)
    if len(valid) < req.count:
        raise ValueError(
            f"scan bound {SCAN_LIMIT} exhausted with {len(valid)}/{req.count} surfaces "
            f"for alpha={alpha}, beta={beta}, tau={req.tau}, "
            f"interval={req.interval}"
        )
    members = []
    for t in valid[:req.count]:
        b, m = b0 + beta * t, m0 + alpha * t
        members.append(make_surface(4, b, 3 * b - 4 * m))
    return members
