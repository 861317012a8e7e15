"""Exact lattice-point counting for triangles with rational vertices.

Two counters are provided:

* :func:`count_points_rowscan` counts the integer points of any rational
  triangle, including degenerate ones (segments, points), row by row in
  closed form: the rows of each half of the triangle sum to two Euclid-like
  :func:`~effcone.numerics.floor_sum_linear` calls, so it takes O(log) steps
  in the size of the vertices, however many rows the triangle spans.  It
  reads each vertex's numerators and denominators once and works on those
  integers only, with no ``Fraction`` arithmetic.  It is the general counter
  behind :func:`~effcone.surface.h0`; no search builds a triangle.
* :func:`count_points_pick` applies Pick's theorem and therefore only
  accepts non-degenerate triangles with integral vertices.

The test suite checks the first against the second on integral triangles,
and against two oracles that share no code with it: the literal row-by-row
loop (``rowscan_loop`` in ``tests/conftest.py``) and a bounding-box count.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .numerics import floor_sum_linear

__all__ = [
    "RationalPoint",
    "RationalTriangle",
    "triangle",
    "count_points_rowscan",
    "count_points_pick",
]


@dataclass(frozen=True)
class RationalPoint:
    """A point in the plane with exact rational coordinates."""

    x: Fraction
    y: Fraction


@dataclass(frozen=True)
class RationalTriangle:
    """A (possibly degenerate) triangle given by three rational vertices."""

    vertices: tuple[RationalPoint, RationalPoint, RationalPoint]

    @property
    def is_integral(self) -> bool:
        return all(v.x.denominator == 1 and v.y.denominator == 1 for v in self.vertices)


def triangle(p0, p1, p2) -> RationalTriangle:
    """Build a :class:`RationalTriangle` from three points or ``(x, y)`` pairs.

    Coordinates may be ints, Fractions or strings such as ``"3/7"``; floats
    are refused, since converting them would bring binary rounding error
    into computations that must stay exact.
    """
    pts = []
    for p in (p0, p1, p2):
        if not isinstance(p, RationalPoint):
            x, y = p
            if isinstance(x, float) or isinstance(y, float):
                raise TypeError("refusing a float coordinate; pass an int, Fraction or string")
            p = RationalPoint(Fraction(x), Fraction(y))
        pts.append(p)
    return RationalTriangle((pts[0], pts[1], pts[2]))


def _edge_line(
    p: tuple[int, int, int, int], q: tuple[int, int, int, int]
) -> tuple[int, int, int]:
    """The edge from ``p`` up to a strictly higher ``q``, each given as the
    integers ``(x_num, x_den, y_num, y_den)``, as integers ``(A, B, D)``,
    ``D > 0``, with abscissa ``x(y) = (A + B*y) / D`` along it.

    From ``x(y) = (x_p*y_q - x_q*y_p + (x_q - x_p)*y) / (y_q - y_p)``, every
    term scaled by the product of the four denominators.
    """
    xpn, xpd, ypn, ypd = p
    xqn, xqd, yqn, yqd = q
    a = xpn * yqn * xqd * ypd - xqn * ypn * xpd * yqd
    b = (xqn * xpd - xpn * xqd) * ypd * yqd
    d = (yqn * ypd - ypn * yqd) * xpd * xqd
    g = gcd(a, b, d)
    return a // g, b // g, d // g


def _floor_over_rows(line: tuple[int, int, int], y0: int, rows: int) -> int:
    """``sum_{y=y0}^{y0+rows-1} floor(x(y))`` along an edge line."""
    a, b, d = line
    return floor_sum_linear(rows, d, b, a + b * y0)


def count_points_rowscan(tri: RationalTriangle) -> int:
    """Count integer points in the closed convex hull of ``tri``, row by row
    in closed form.

    Each vertex is read once into the integers ``(x_num, x_den, y_num,
    y_den)``; everything after that is integer arithmetic, with heights
    ordered and compared by cross-multiplying by the positive denominators.
    The vertices are sorted by height and the triangle is split at the
    middle one.  On each piece the row counts ``floor(R(y)) - ceil(L(y)) + 1``
    between its left and right edge sum to two :func:`floor_sum_linear`
    calls, so the cost grows with the bit length of the vertices, not with
    the number of rows.  Exact for arbitrary rational vertices; collinear
    and repeated vertices need no special case, since a piece between
    coinciding edges counts the lattice points on their segment.
    """
    v0, v1, v2 = (
        (v.x.numerator, v.x.denominator, v.y.numerator, v.y.denominator)
        for v in tri.vertices
    )
    # Sort by height: y_i < y_j iff y_num_i * y_den_j < y_num_j * y_den_i.
    if v0[2] * v1[3] > v1[2] * v0[3]:
        v0, v1 = v1, v0
    if v1[2] * v2[3] > v2[2] * v1[3]:
        v1, v2 = v2, v1
        if v0[2] * v1[3] > v1[2] * v0[3]:
            v0, v1 = v1, v0
    y_lo = -((-v0[2]) // v0[3])  # ceil of the lowest height
    y_hi = v2[2] // v2[3]  # floor of the highest
    if v0[2] * v2[3] == v2[2] * v0[3]:
        if y_lo != y_hi:
            return 0
        # One row: floor(max x) - ceil(min x) + 1, with -ceil(t) = floor(-t).
        return (
            max(v0[0] // v0[1], v1[0] // v1[1], v2[0] // v2[1])
            + max((-v0[0]) // v0[1], (-v1[0]) // v1[1], (-v2[0]) // v2[1])
            + 1
        )
    # Rows below the middle vertex lie between the long edge v0v2 and v0v1,
    # the rest between v0v2 and v1v2.  When v1v2 is horizontal the lower
    # piece takes every row instead, so no piece has a horizontal edge.
    x1n, x1d, y1n, y1d = v1
    y_mid = y_hi + 1 if y1n * v2[3] == v2[2] * y1d else -((-y1n) // y1d)
    long_edge = a, b, d = _edge_line(v0, v2)
    # Both short edges are right of the long one iff v1 is:
    # x1 > (A + B*y1)/D, cross-multiplied by the positive denominators.
    short_right = x1n * y1d * d > (a * y1d + b * y1n) * x1d
    total = 0
    for (p, q), first, last in (((v0, v1), y_lo, y_mid - 1), ((v1, v2), y_mid, y_hi)):
        rows = last - first + 1
        if rows <= 0:
            continue
        short = _edge_line(p, q)
        left, right = (long_edge, short) if short_right else (short, long_edge)
        # -ceil(x) = floor(-x): the left edge is summed on its negated line.
        total += (
            _floor_over_rows(right, first, rows)
            + _floor_over_rows((-left[0], -left[1], left[2]), first, rows)
            + rows
        )
    return total


def count_points_pick(tri: RationalTriangle) -> int:
    """Count integer points in ``tri`` via Pick's theorem.

    Only valid for non-degenerate triangles with integral vertices; raises
    :class:`ValueError` otherwise.  With ``2*Area = |cross|`` and ``B`` the
    number of boundary points, the total interior+boundary count is
    ``(|cross| + B) / 2 + 1``.
    """
    if not tri.is_integral:
        raise ValueError("Pick's theorem requires integral vertices")
    v0, v1, v2 = tri.vertices
    x0, y0 = int(v0.x), int(v0.y)
    x1, y1 = int(v1.x), int(v1.y)
    x2, y2 = int(v2.x), int(v2.y)
    cross = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
    if cross == 0:
        raise ValueError("Pick's theorem requires a non-degenerate triangle")
    boundary = (
        gcd(abs(x1 - x0), abs(y1 - y0))
        + gcd(abs(x2 - x1), abs(y2 - y1))
        + gcd(abs(x0 - x2), abs(y0 - y2))
    )
    return (abs(cross) + boundary) // 2 + 1
