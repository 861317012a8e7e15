"""The floor-sum kernel against direct sums and the full-period closed form."""

from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from effcone import (
    floor_sum,
    floor_sum_linear,
)


small_or_huge = st.one_of(st.integers(-50, 50), st.integers(-10**30, 10**30))


class TestFloorSumLinear:
    @pytest.mark.parametrize(
        "n, m, a, b, expected",
        [(0, 5, 3, 2, 0), (4, 3, 2, 1, 4), (5, 1, 0, -3, -15), (3, 4, -5, 1, -4)],
    )
    def test_frozen(self, n, m, a, b, expected):
        assert floor_sum_linear(n, m, a, b) == expected

    @given(st.integers(0, 80), st.one_of(st.integers(1, 50), st.integers(1, 10**12)),
           small_or_huge, small_or_huge)
    @settings(max_examples=300)
    @example(1, 1, 0, 0)
    @example(7, 10**12, -(10**30), 10**30 - 1)
    def test_direct_sum(self, n, m, a, b):
        assert floor_sum_linear(n, m, a, b) == sum((a * i + b) // m for i in range(n))

    @given(st.integers(1, 10**15), st.integers(1, 10**15))
    def test_full_period_closed_form(self, a, m):
        # Over a whole period the sum is the closed form (a-1)(m-1)/2 of
        # fracsum.floor_sum, which is out of reach of a direct sum here.
        if gcd(a, m) != 1:
            return
        assert floor_sum_linear(m, m, a, 0) == floor_sum(a, m)

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError, match="n >= 0"):
            floor_sum_linear(-1, 3, 1, 0)
        with pytest.raises(ValueError, match="m >= 1"):
            floor_sum_linear(3, 0, 1, 0)
