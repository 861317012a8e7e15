"""Validated weighted projective plane surfaces P(a,b,c) and their divisor
polytopes.

A surface P(a,b,c) with pairwise-coprime weights a < b < c works out the
decomposition c = p*a + q*b from them, where q is the unique residue of
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
the dilation n.  :func:`section_counts` returns the counts of any family for
every n = 1..n_max at once, without building a triangle, from two running
sums over the rows, of floor(-q*j/a) and of floor(p*j/b), built once per
surface; the gamma search takes all its families from one such pair, and
only single-divisor queries call :func:`h0`.  The tests check both against
each other, the monomial count of the graded ring and the row-by-row loop.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from math import gcd
from operator import add, floordiv

from .lattice import RationalPoint, RationalTriangle, count_points_rowscan
from .numerics import Frozen, require_int

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


class WeightedSurface(Frozen):
    """P(a,b,c), with the decomposition c = p*a + q*b worked out from the
    weights: q is the residue of c*b^(-1) mod a and p = (c - q*b)/a.

    Only the weights are given; :func:`make_surface` is the same call.
    """

    def __init__(self, a: int, b: int, c: int) -> None:
        for name, w in (("a", a), ("b", b), ("c", c)):
            if type(w) is not int or w < 1:
                raise ValueError(f"weight {name} must be a positive integer, got {w!r}")
        if not a < b < c:
            raise ValueError(f"require a < b < c, got ({a}, {b}, {c})")
        if gcd(a, b) != 1 or gcd(a, c) != 1 or gcd(b, c) != 1:
            raise ValueError(f"weights ({a}, {b}, {c}) are not pairwise coprime")
        q = c * pow(b, -1, a) % a  # pow handles a = 1 (inverse 0)
        self.__dict__.update(a=a, b=b, c=c, p=(c - q * b) // a, q=q)

    @property
    def bp_ratio(self) -> Fraction:
        """The classification abscissa b/(-p); only defined when p < 0."""
        if self.p >= 0:
            raise ValueError(f"b/(-p) requires p < 0, got p = {self.p}")
        return Fraction(self.b, -self.p)

    def __repr__(self) -> str:  # compact, matches the P(a,b,c) notation
        return f"P({self.a},{self.b},{self.c})"


class DivisorSpec(Frozen):
    """The n-th member of one of the three divisor families."""

    def __init__(self, family: str, n: int) -> None:
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
        require_int("n", n, 1)
        self.__dict__.update(family=family, n=n)


def make_surface(a: int, b: int, c: int) -> WeightedSurface:
    """Validate weights and compute the decomposition c = p*a + q*b.

    >>> make_surface(4, 5, 7)
    P(4,5,7)
    >>> make_surface(4, 5, 7).p, make_surface(4, 5, 7).q
    (-2, 3)
    """
    return WeightedSurface(a, b, c)


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

    The single-divisor counter, and the oracle of :func:`section_counts`.  No
    search calls it, so no workload hits the cache; it stays because the
    benchmark harness reads its statistics.
    """
    return count_points_rowscan(polytope(surface, div))


def _require_bc_shape(surface: WeightedSurface, family: str) -> None:
    """Refuse the family-B and family-C shapes unless a = 4 and q = 3."""
    if surface.a != 4 or surface.q != 3:
        raise ValueError(f"family {family} polytope requires a = 4 and q = 3, got {surface}")


def section_counts(surface: WeightedSurface, family: str, n_max: int) -> list[int]:
    """h0 of the n-th ``family`` divisor for n = 1..n_max, in order.

    Row j = 0..T(n) of each triangle, counted from its vertex at the origin,
    holds floor(g*j/a) + floor(s*j'/b) + k*n + 1 points, where j' = 4n - j
    for C (whose left edge is x = (p*j - n*c)/b, with c = 3b + 4p) and j' = j
    otherwise, and (g, s, k, T(n)) is (-q, -p, 1, floor(a*n*b/c)) for B,
    (-q, p, q, a*n) for C and (q, p, 0, a*n) for AZ.  The AZ triangle
    (0, 0), (q*n, -a*n), (-p*a*n/b, -a*n) has these rows for any n, because
    c = p*a + q*b > 0.  As j' runs over the same rows as j, the running sum
    R(W) = sum_{j<=W} (floor(g*j/a) + floor(s*j/b)) gives

        count(n) = R(T(n)) + (k*n + 1)(T(n) + 1).

    With F and P the running sums of floor(-q*j/a) and floor(p*j/b), and
    floor(-x) = -floor(x) - [x not integral], R is F + P for C,
    F - P - (T - floor(T/b)) for B and P - F - (T - floor(T/a)) for AZ, as
    gcd(p, b) = gcd(q, a) = 1 (both divide c).  One C-level pass builds each
    of F and P for every family at once, so every count is a lookup.  Entry
    n - 1 equals ``h0(surface, DivisorSpec(family, n))``; raises its errors.

    Periodicity: count(n + sigma) - count(n) = c2*(2*sigma*n + sigma^2) +
    c1*sigma for every n, with sigma = c for B and b for C and c2, c1 those of
    :func:`~effcone.ehrhart.coefficients`.  Proof: T(n + sigma) = T(n) + a*b.
    For gcd(g, a) = 1, g*j mod a runs over 0..a-1 on any a consecutive j, so
    the a*b rows after W, b runs of a, add sum floor(g*j/a) = b*(S_g + g*W) +
    a*b*g*(b-1)/2 with S_g = (g-1)(a-1)/2 + g; so for floor(s*j/b) with a, b
    swapped, as gcd(q, a) = gcd(p, b) = 1.  The difference is thus b*S_g +
    a*S_s + a*b*(g*(b-1) + s*(a-1))/2 + a*b*(k*n + 1) + k*sigma*(a*b + 1) +
    (b*g + a*s + k*sigma)*T(n).  T(n)'s coefficient is -q*b - p*a + c = 0 for
    B, and T(n) = a*n for C; with a = 4, q = 3 and c = 4p + 3b, what is left
    is the claim as a polynomial in b, p and n.  ``TestPeriodicity`` in
    ``tests/test_ehrhart.py`` checks the run sum exhaustively and the last
    step with sympy.

    >>> section_counts(make_surface(1, 2, 3), "AZ", 3)
    [3, 7, 12]
    """
    return _family_counts(surface, (family,), n_max)[0]


def _family_counts(surface: WeightedSurface, families: tuple, n_max: int) -> list[list[int]]:
    """:func:`section_counts` of each of ``families``, from one F and one P."""
    for family in families:
        DivisorSpec(family, 1)  # refuses an unknown family
    require_int("n_max", n_max, 1)
    for family in families:
        if family != FAMILY_AZ:
            _require_bc_shape(surface, family)
    a, b, c, p, q = surface.a, surface.b, surface.c, surface.p, surface.q
    top, ns = a * n_max, range(1, n_max + 1)
    # F and P for j = 0..top; p != 0 as gcd(p, b) = 1 < b, q = 0 only if a = 1.
    terms = map(floordiv, range(0, -q * top - 1, -q), repeat(a)) if q else repeat(0, top + 1)
    f_sum = list(accumulate(terms))
    p_sum = list(accumulate(map(floordiv, range(0, p * (top + 1), p), repeat(b))))
    out = []
    for family in families:
        if family == FAMILY_B:
            tops = [a * b * n // c for n in ns]
            rs, k = [f_sum[t] - p_sum[t] - t + t // b for t in tops], 1
        elif family == FAMILY_C:
            tops, rs, k = range(a, top + 1, a), map(add, f_sum[a::a], p_sum[a::a]), q
        else:  # T - floor(T/a) = a*n - n
            tops, k = range(a, top + 1, a), 0
            rs = [y - x - t + n for n, t, x, y in zip(ns, tops, f_sum[a::a], p_sum[a::a])]
        out.append([r + (k * n + 1) * (t + 1) for n, t, r in zip(ns, tops, rs)])
    return out
