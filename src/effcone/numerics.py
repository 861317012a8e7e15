"""Exact-arithmetic helpers shared by the rest of the package.

Most of this is thin glue over :mod:`fractions` and :mod:`math`: the point
is to centralize the few conventions the package relies on (rationals are
always :class:`fractions.Fraction`, extended gcds are normalized to a
positive gcd, fractional parts live in ``[0, 1)``).  The one algorithm is
:func:`floor_sum_linear`, the Euclid-like floor-sum kernel behind both the
lattice-point counter and the fractional-part sums.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Rational = Fraction

__all__ = [
    "Rational",
    "as_rational",
    "frac",
    "egcd",
    "floor_sum_linear",
    "mod_inverse",
    "triangular",
]


def as_rational(value) -> Fraction:
    """Coerce ``value`` to an exact :class:`~fractions.Fraction`.

    Accepts ints, Fractions, and strings such as ``"3/7"`` or ``"-2"``.
    Floats are rejected: silently converting them would smuggle binary
    rounding error into computations that must stay exact.
    """
    if isinstance(value, float):
        raise TypeError("refusing to convert float to exact rational; pass a Fraction or string")
    return Fraction(value)


def frac(x) -> Fraction:
    """Fractional part ``{x} = x - floor(x)``, always in ``[0, 1)``.

    >>> frac(Fraction(20, 7))
    Fraction(6, 7)
    >>> frac(Fraction(-3, 4))
    Fraction(1, 4)
    """
    x = as_rational(x)
    return x - (x.numerator // x.denominator)


def egcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: return ``(g, s, t)`` with ``g = gcd(a, b) > 0`` and
    ``s*a + t*b == g``.

    Raises :class:`ValueError` for ``a == b == 0`` (no positive gcd exists).
    """
    if a == 0 and b == 0:
        raise ValueError("gcd(0, 0) is undefined")
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def floor_sum_linear(n: int, m: int, a: int, b: int) -> int:
    """``sum_{i=0}^{n-1} floor((a*i + b) / m)``, exactly, in O(log m) steps.

    ``n >= 0`` and ``m >= 1``; ``a`` and ``b`` are arbitrary integers.  The
    quotients ``a // m`` and ``b // m`` are peeled off in closed form, and the
    remaining sum with ``0 <= a, b < m`` is traded for one with the roles of
    ``a`` and ``m`` swapped: counting the lattice points under the line
    ``y = (a*x + b)/m`` by columns equals counting them by rows.  Each round
    is one Euclid step on ``(m, a)`` (the AtCoder Library reduction).

    >>> floor_sum_linear(4, 3, 2, 1)  # floor(1/3) + floor(3/3) + floor(5/3) + floor(7/3)
    4
    """
    if n < 0:
        raise ValueError(f"require n >= 0, got {n}")
    if m < 1:
        raise ValueError(f"require m >= 1, got {m}")
    total = 0
    while True:
        if not 0 <= a < m:
            q, a = divmod(a, m)
            total += q * (n * (n - 1) // 2)
        if not 0 <= b < m:
            q, b = divmod(b, m)
            total += q * n
        top = a * n + b
        if top < m:
            return total
        # Rows 1..floor(top/m) of the line, counted as columns of the
        # transposed line y = (m*x + top mod m) / a.
        n, b = divmod(top, m)
        m, a = a, m


def mod_inverse(a: int, m: int) -> int:
    """Inverse of ``a`` modulo ``m`` in ``[0, m)``; requires ``gcd(a, m) == 1``."""
    if m <= 0:
        raise ValueError(f"modulus must be positive, got {m}")
    if gcd(a, m) != 1:
        raise ValueError(f"{a} is not invertible modulo {m}")
    return pow(a, -1, m)


def triangular(d: int) -> int:
    """The triangular number ``d*(d+1)/2`` (number of monomials of degree < d
    in two variables, ``binomial(d+1, 2)``)."""
    if d < 0:
        raise ValueError(f"expected d >= 0, got {d}")
    return d * (d + 1) // 2
