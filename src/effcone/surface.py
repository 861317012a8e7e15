"""Validated weighted projective plane surfaces P(a,b,c) and their divisor
polytopes.

A surface P(a,b,c) with pairwise-coprime weights a < b < c is stored together
with the decomposition c = p*a + q*b, where q is the unique residue of
c*b^(-1) mod a in [0, a) and p = (c - q*b) / a (an integer, possibly
negative).  Three one-parameter divisor families drive everything downstream:

* family "B":  n*b*D_x  (degree n*a*b sections),
* family "C":  n*c*D_x  (degree n*a*c sections),
* family "AZ": n*a*D_z  (degree n*a*c sections),

where D_x and D_z are the coordinate divisors of weights a and c.  Each
divisor's global sections biject with lattice points of an explicit rational
triangle.  :func:`polytope` builds each vertex coordinate as one
``Fraction(num, den)`` of integers computed from (a, b, c, p, q, n), and
:func:`h0` counts its points with the general counter
:func:`~effcone.lattice.count_points_rowscan`, in O(log) steps however large
the dilation n.  :func:`section_counts` returns the family-B or family-C
counts for every n = 1..n_max at once, without building a triangle, from one
running sum over the rows of the largest one; the gamma search takes its
counts from it.  The tests check both against each other, the monomial count
of the graded ring and the row-by-row loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import gcd

from .lattice import RationalPoint, RationalTriangle, count_points_rowscan

__all__ = [
    "FAMILY_B",
    "FAMILY_C",
    "FAMILY_AZ",
    "FAMILIES",
    "WeightedSurface",
    "DivisorSpec",
    "make_surface",
    "polytope",
    "h0",
    "section_counts",
]

FAMILY_B = "B"
FAMILY_C = "C"
FAMILY_AZ = "AZ"
FAMILIES = (FAMILY_B, FAMILY_C, FAMILY_AZ)

_ZERO = Fraction(0)
_ORIGIN = RationalPoint(_ZERO, _ZERO)


@dataclass(frozen=True)
class WeightedSurface:
    """P(a,b,c) with the derived decomposition c = p*a + q*b.

    Construct via :func:`make_surface`, which computes p and q; the
    ``__post_init__`` re-checks every invariant so that hand-built instances
    cannot be inconsistent.
    """

    a: int
    b: int
    c: int
    p: int
    q: int

    def __post_init__(self) -> None:
        # Checked first, so that its own message names the fault: with q = 1
        # a negative p makes c = p*a + b < b, so no valid weights have it.
        if self.p < 0 and self.q == 1:
            raise ValueError(
                f"p = {self.p} < 0 with q = 1 gives c = p*a + b < b, "
                f"got ({self.a}, {self.b}, {self.c})"
            )
        if not (0 < self.a < self.b < self.c):
            raise ValueError(f"require 0 < a < b < c, got ({self.a}, {self.b}, {self.c})")
        if (
            gcd(self.a, self.b) != 1
            or gcd(self.a, self.c) != 1
            or gcd(self.b, self.c) != 1
        ):
            raise ValueError(f"weights ({self.a}, {self.b}, {self.c}) are not pairwise coprime")
        if not 0 <= self.q < self.a:
            raise ValueError(f"q = {self.q} outside [0, {self.a})")
        if self.p * self.a + self.q * self.b != self.c:
            raise ValueError(
                f"inconsistent decomposition: {self.p}*{self.a} + {self.q}*{self.b} != {self.c}"
            )

    @property
    def bp_ratio(self) -> Fraction:
        """The classification abscissa b/(-p); only defined when p < 0."""
        if self.p >= 0:
            raise ValueError(f"b/(-p) requires p < 0, got p = {self.p}")
        return Fraction(self.b, -self.p)

    def __repr__(self) -> str:  # compact, matches the P(a,b,c) notation
        return f"P({self.a},{self.b},{self.c})"


@dataclass(frozen=True)
class DivisorSpec:
    """The n-th member of one of the three divisor families."""

    family: str
    n: int

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.n < 1:
            raise ValueError(f"require n >= 1, got {self.n}")


def make_surface(a: int, b: int, c: int) -> WeightedSurface:
    """Validate weights and compute the decomposition c = p*a + q*b.

    >>> make_surface(4, 5, 7)
    P(4,5,7)
    >>> make_surface(4, 5, 7).p, make_surface(4, 5, 7).q
    (-2, 3)
    """
    for name, w in (("a", a), ("b", b), ("c", c)):
        if not isinstance(w, int) or w < 1:
            raise ValueError(f"weight {name} must be a positive integer, got {w!r}")
    if not a < b < c:
        raise ValueError(f"require a < b < c, got ({a}, {b}, {c})")
    if gcd(a, b) != 1 or gcd(a, c) != 1 or gcd(b, c) != 1:
        raise ValueError(f"weights ({a}, {b}, {c}) are not pairwise coprime")
    # q is the residue of c * b^(-1) mod a; pow handles a = 1 (inverse 0).
    q = (c * pow(b, -1, a)) % a
    p = (c - q * b) // a
    return WeightedSurface(a=a, b=b, c=c, p=p, q=q)


def polytope(surface: WeightedSurface, div: DivisorSpec) -> RationalTriangle:
    """The rational triangle whose lattice points are the sections of ``div``.

    Families B and C use shapes valid exactly when a = 4 and q = 3 (the
    regime of the interval classification); other inputs raise rather than
    silently producing a wrong triangle.  Family AZ uses a single shape
    valid for every a.  Each vertex coordinate is one ``Fraction(num, den)``
    of integers built from (a, b, c, p, q, n), with no rational arithmetic.
    """
    a, b, c, p, q = surface.a, surface.b, surface.c, surface.p, surface.q
    n = div.n
    if div.family != FAMILY_AZ:
        _require_bc_shape(surface, div.family)
    if div.family == FAMILY_B:
        # (0, 0), (-n, 0), (-3*n*s, 4*n*s) with s = b/c.
        return RationalTriangle((
            _ORIGIN,
            RationalPoint(Fraction(-n), _ZERO),
            RationalPoint(Fraction(-3 * n * b, c), Fraction(4 * n * b, c)),
        ))
    if div.family == FAMILY_C:
        return RationalTriangle((
            _ORIGIN,
            RationalPoint(Fraction(-n * c, b), _ZERO),
            RationalPoint(Fraction(-3 * n), Fraction(4 * n)),
        ))
    # Family AZ: valid for all a; vertices (0,0), (q*n, -a*n), (-p*a*n/b, -a*n).
    height = Fraction(-a * n)
    return RationalTriangle((
        _ORIGIN,
        RationalPoint(Fraction(q * n), height),
        RationalPoint(Fraction(-p * a * n, b), height),
    ))


@lru_cache(maxsize=None)
def h0(surface: WeightedSurface, div: DivisorSpec) -> int:
    """Number of global sections of ``div``: lattice points of its polytope.

    The general counter, and the oracle of :func:`section_counts`.  No workload
    hits the cache; it stays because the benchmark harness reads its statistics.
    """
    return count_points_rowscan(polytope(surface, div))


def _require_bc_shape(surface: WeightedSurface, family: str) -> None:
    """Refuse the family-B and family-C shapes unless a = 4 and q = 3."""
    if surface.a != 4 or surface.q != 3:
        raise ValueError(f"family {family} polytope requires a = 4 and q = 3, got {surface}")


def section_counts(surface: WeightedSurface, family: str, n_max: int) -> list[int]:
    """h0 of the n-th family-B or family-C divisor for n = 1..n_max, in order.

    Both triangles rest on y = 0 under the right edge x = -3y/4, and their
    left edge is x = -n + p*y/b for B (rows y <= Y = floor(4nb/c)) and
    x = (p*y - n*c)/b for C (rows y <= 4n).  Row y holds
    floor(-3y/4) - ceil(left) + 1 points.  With m = -p, that is
    n + 1 + floor(-3y/4) + floor(m*y/b) for B.  For C, a = 4 and q = 3 give
    c = 3b - 4m, so (m*y + n*c)/b = 3n - m*w/b at w = 4n - y, and row y holds
    3n + 1 + floor(-3y/4) + floor(-m*w/b).  With the running sum
    R(W) = sum_{y<=W} (floor(-3y/4) + floor(s*y/b)), where s = m for B and
    s = -m for C,

        count_B(n) = R(Y) + (n + 1)(Y + 1),
        count_C(n) = R(4n) + (3n + 1)(4n + 1).

    One :func:`itertools.accumulate` pass builds R up to the last row of
    n = n_max, so every count is a lookup.  Entry n - 1 equals
    ``h0(surface, DivisorSpec(family, n))``; raises its shape error.
    """
    if family not in (FAMILY_B, FAMILY_C):
        raise ValueError(f"section_counts needs family B or C, got {family!r}")
    if n_max < 1:
        raise ValueError(f"require n_max >= 1, got {n_max}")
    _require_bc_shape(surface, family)
    b, c, m = surface.b, surface.c, -surface.p
    slope, last_row = (-m, 4 * n_max) if family == FAMILY_C else (m, 4 * n_max * b // c)
    running = list(accumulate(-3 * y // 4 + slope * y // b for y in range(last_row + 1)))
    if family == FAMILY_C:
        return [running[4 * n] + (3 * n + 1) * (4 * n + 1) for n in range(1, n_max + 1)]
    counts = []
    for n in range(1, n_max + 1):
        top = 4 * n * b // c
        counts.append(running[top] + (n + 1) * (top + 1))
    return counts
