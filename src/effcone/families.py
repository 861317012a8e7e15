"""Generators for one-parameter sequences of surfaces P(4, b, 3b - 4m).

Fixing a coprime target fraction beta/alpha and a sign tau, the solutions of

    alpha*b - beta*m = tau          (m = -p > 0)

form an arithmetic progression b = b0 + beta*t, m = m0 + alpha*t whose
abscissa b/m approaches beta/alpha monotonically from the tau side.  Sieving
for valid weights (b odd and > 4, c = 3b - 4m > b; the remaining coprimality
is automatic, since gcd(b, m) divides tau) yields arbitrarily many surfaces
whose abscissas converge to any prescribed sub-interval endpoint -- the fuel
for every sweep in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .surface import WeightedSurface, make_surface

__all__ = ["FamilyRequest", "solve_family", "SCAN_LIMIT"]

#: Number of progression steps scanned before giving up with a diagnostic.
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

    Raises :class:`ValueError` if the scan bound is exhausted first (the
    progression is infinite, so this only happens for filters that exclude
    the convergent tail, or for counts beyond the filtered range).
    """
    g = gcd(req.alpha, req.beta)
    if g != 1:  # FamilyRequest validation rules this out for built requests
        raise ValueError(
            f"require gcd(alpha, beta) = 1, got gcd({req.alpha}, {req.beta}) = {g}"
        )
    # Particular solution of alpha*b - beta*m = tau; shift to the smallest
    # progression index with b > 4 and walk upward (b increases with t).
    b0 = pow(req.alpha, -1, req.beta) * req.tau
    m0 = (req.alpha * b0 - req.tau) // req.beta
    t_start = -((b0 - 5) // req.beta)  # smallest t with b0 + beta*t >= 5
    out: list[WeightedSurface] = []
    for t in range(t_start, t_start + SCAN_LIMIT):
        b = b0 + req.beta * t
        m = m0 + req.alpha * t
        if m < 1 or b % 2 == 0:
            continue
        c = 3 * b - 4 * m
        if c <= b:
            continue
        if req.interval is not None:
            lo, hi = req.interval
            if not lo <= Fraction(b, m) <= hi:
                continue
        out.append(make_surface(4, b, c))
        if len(out) == req.count:
            return out
    raise ValueError(
        f"scan bound {SCAN_LIMIT} exhausted with {len(out)}/{req.count} surfaces "
        f"for alpha={req.alpha}, beta={req.beta}, tau={req.tau}, "
        f"interval={req.interval}"
    )
