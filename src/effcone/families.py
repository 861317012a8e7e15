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
condition (b >= 5, m >= 1, b - 2m >= 1, and lo <= b/m <= hi for an interval
filter) is a row A + B*t >= 0 that bounds t from below (B > 0) or above
(B < 0), or keeps all t or none (B = 0), and "b odd" keeps every other t, or
every t when beta is even; so the members are one ``range``, unbounded above
unless a row bounds it, and :func:`solve_family` builds only those it returns.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .numerics import Frozen, require_int
from .surface import WeightedSurface, make_surface

__all__ = ["FamilyRequest", "solve_family"]


class FamilyRequest(Frozen):
    """Parameters of one surface sequence.

    ``alpha``, ``beta``, ``tau`` and ``count`` must be ints: anything else,
    ``bool`` included, raises ``TypeError``.  ``interval``, if given, keeps
    only surfaces whose abscissa b/(-p) lies in the closed interval [lo, hi];
    its endpoints (ints, Fractions or strings such as ``"5/2"``, never
    floats) are stored as Fractions.
    """

    def __init__(self, alpha: int, beta: int, tau: int, count: int,
                 interval: tuple[Fraction, Fraction] | None = None) -> None:
        for name, value in (("alpha", alpha), ("beta", beta), ("tau", tau), ("count", count)):
            require_int(name, value)
        if alpha < 1 or beta < 1:
            raise ValueError(f"require positive alpha, beta; got ({alpha}, {beta})")
        if gcd(alpha, beta) != 1:
            raise ValueError(f"require gcd(alpha, beta) = 1, got ({alpha}, {beta})")
        if tau not in (-1, 1):
            raise ValueError(f"tau must be +-1, got {tau}")
        require_int("count", count, 1)
        if interval is not None:
            lo, hi = interval
            if isinstance(lo, float) or isinstance(hi, float):
                raise TypeError("refusing a float interval endpoint; pass an int, Fraction or string")
            lo, hi = Fraction(lo), Fraction(hi)
            if not lo <= hi:
                raise ValueError(f"empty interval filter [{lo}, {hi}]")
            interval = (lo, hi)
        self.__dict__.update(alpha=alpha, beta=beta, tau=tau, count=count, interval=interval)


def solve_family(req: FamilyRequest) -> list[WeightedSurface]:
    """First ``req.count`` surfaces with alpha*b - beta*(-p) = tau, by increasing b.

    The valid progression indices are worked out as one ``range`` (see the
    module docstring), so the work is O(count), and
    :func:`~effcone.surface.make_surface` validates each member.

    Raises :class:`ValueError`, naming how many members the rows admit, if
    they admit fewer than ``req.count``: the progression is infinite, so this
    only happens when a row keeps the convergent tail out (an interval filter,
    or b - 2m = tau = -1 for beta/alpha = 2/1).
    """
    alpha, beta = req.alpha, req.beta
    # Particular solution of alpha*b - beta*m = tau.
    b0 = pow(alpha, -1, beta) * req.tau
    m0 = (alpha * b0 - req.tau) // beta
    # Each valid t has A + B*t >= 0 for every row (A, B): b >= 5, m >= 1,
    # b - 2m >= 1, and, as m > 0, lo.den*b - lo.num*m >= 0 and
    # hi.num*m - hi.den*b >= 0.
    rows = [(b0 - 5, beta), (m0 - 1, alpha), (b0 - 2 * m0 - 1, beta - 2 * alpha)]
    if req.interval is not None:
        lo, hi = req.interval
        rows.append((lo.denominator * b0 - lo.numerator * m0,
                     lo.denominator * beta - lo.numerator * alpha))
        rows.append((hi.numerator * m0 - hi.denominator * b0,
                     hi.numerator * alpha - hi.denominator * beta))
    t_lo = max(-(const // slope) for const, slope in rows if slope > 0)
    # b = b0 + beta*t is odd for every other t if beta is odd; if beta is
    # even, alpha*b = tau + beta*m makes every b odd.
    step = 1
    if beta % 2:
        step = 2
        t_lo += (b0 + t_lo + 1) % 2
    stop = t_lo + step * req.count  # count members, unless a row bounds t above
    for const, slope in rows:
        if slope < 0:
            stop = min(stop, const // -slope + 1)
        elif slope == 0 and const < 0:
            stop = t_lo
    valid = range(t_lo, stop, step)
    if len(valid) < req.count:
        interval = "None" if req.interval is None else "[%s, %s]" % req.interval
        raise ValueError(
            f"only {len(valid)}/{req.count} surfaces "
            f"for alpha={alpha}, beta={beta}, tau={req.tau}, interval={interval}"
        )
    members = []
    for t in valid:
        b, m = b0 + beta * t, m0 + alpha * t
        members.append(make_surface(4, b, 3 * b - 4 * m))
    return members
