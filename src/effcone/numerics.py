"""The floor-sum kernel: :func:`floor_sum_linear`, the Euclid-like sum of
floors behind both the lattice-point counter and the fractional-part sums;
``require_int``, the package's one check of an integer argument; and
``Frozen``, the base of the package's immutable value classes.

Everything in the package is exact: rationals are always
:class:`fractions.Fraction` or pairs of integers, never floats.
"""

from __future__ import annotations

__all__ = [
    "floor_sum_linear",
]


def floor_sum_linear(n: int, m: int, a: int, b: int) -> int:
    """``sum_{i=0}^{n-1} floor((a*i + b) / m)``, exactly, in O(log m) steps.

    ``n >= 0`` and ``m >= 1`` are ints (anything else, ``bool`` included,
    raises ``TypeError``); ``a`` and ``b`` are arbitrary integers.  The
    quotients ``a // m`` and ``b // m`` are peeled off in closed form, and the
    remaining sum with ``0 <= a, b < m`` is traded for one with the roles of
    ``a`` and ``m`` swapped: counting the lattice points under the line
    ``y = (a*x + b)/m`` by columns equals counting them by rows.  Each round
    is one Euclid step on ``(m, a)`` (the AtCoder Library reduction).

    >>> floor_sum_linear(4, 3, 2, 1)  # floor(1/3) + floor(3/3) + floor(5/3) + floor(7/3)
    4
    """
    require_int("n", n, 0)
    require_int("m", m, 1)
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


def require_int(name: str, value, least: int | None = None) -> None:
    """Refuse ``value`` unless it is an int, and, given ``least``, at least it.

    Counts, levels and bounds must be exact integers: a ``bool``, float or
    Fraction raises ``TypeError`` naming ``name``, and a value below
    ``least`` raises ``ValueError``.
    """
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"require {name} >= {least}, got {value}")


class Frozen:
    """Base of the package's immutable value classes.  Each subclass's
    ``__init__`` validates its arguments and fills ``self.__dict__`` once, in
    field order; equality, the hash, the ``repr`` and pickling read it as a
    frozen dataclass reads its fields, and no attribute can be set or deleted.
    """

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
