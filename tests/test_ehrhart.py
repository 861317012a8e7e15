"""Closed-form Ehrhart coefficients against the direct lattice counter."""

from fractions import Fraction
from math import gcd

import pytest

from effcone import (
    DivisorSpec,
    c0_middle_terms,
    c0_upper_bound,
    coefficients,
    h0,
    make_surface,
)

from conftest import build_pool


@pytest.fixture(scope="module")
def s457():
    return make_surface(4, 5, 7)


@pytest.fixture(scope="module")
def s41323():
    return make_surface(4, 13, 23)


class TestFrozenCoefficients:
    def test_b_level_one(self, s457):
        coeffs = coefficients(s457, "B", 1)
        assert (coeffs.c2, coeffs.c1, coeffs.c0) == (
            Fraction(10, 7), Fraction(8, 7), Fraction(3, 7),
        )
        assert coeffs.value() == 3 == h0(s457, DivisorSpec("B", 1))

    def test_c_level_one(self, s457):
        coeffs = coefficients(s457, "C", 1)
        assert (coeffs.c2, coeffs.c1, coeffs.c0) == (
            Fraction(14, 5), Fraction(8, 5), Fraction(3, 5),
        )
        assert coeffs.value() == 5 == h0(s457, DivisorSpec("C", 1))

    def test_b_level_seven(self, s457):
        coeffs = coefficients(s457, "B", 7)
        assert coeffs.c0 == 1
        assert coeffs.value() == 79

    def test_c_constant_term_varies_with_n(self, s41323):
        assert coefficients(s41323, "C", 1).c0 == Fraction(12, 13)
        assert coefficients(s41323, "C", 3).c0 == Fraction(7, 13)
        assert coefficients(s41323, "C", 1).value() == 6
        assert coefficients(s41323, "C", 3).value() == 37

    def test_symbolic_shape(self, s457, s41323):
        for surface in (s457, s41323):
            b, c = surface.b, surface.c
            cb = coefficients(surface, "B", 1)
            cc = coefficients(surface, "C", 1)
            assert cb.c2 * cc.c2 == 4
            assert cb.c2 == Fraction(2 * b, c)
            assert cb.c1 == (1 + Fraction(b, c) + Fraction(4, c)) / 2
            assert cc.c1 == (1 + Fraction(c, b) + Fraction(4, b)) / 2


class TestExactness:
    """value() must reproduce the lattice count: a two-sided dual-route check."""

    def test_named_surfaces(self, s457, s41323):
        for surface in (s457, s41323, make_surface(4, 7, 13), make_surface(4, 49, 87)):
            for family in ("B", "C"):
                for n in range(1, 13):
                    coeffs = coefficients(surface, family, n)
                    count = h0(surface, DivisorSpec(family, n))
                    assert coeffs.value() == count, (surface, family, n)

    def test_pool_sample(self):
        for surface, _, _ in build_pool()[::7]:
            for family in ("B", "C"):
                for n in (1, 2, 9):
                    assert coefficients(surface, family, n).value() == h0(
                        surface, DivisorSpec(family, n)
                    ), (surface, family, n)


class TestHypothesisGates:
    def test_requires_a_four(self):
        with pytest.raises(ValueError):
            coefficients(make_surface(3, 5, 7), "B", 1)

    def test_requires_negative_p(self):
        surface = make_surface(4, 5, 19)  # p = 1
        with pytest.raises(ValueError):
            coefficients(surface, "B", 1)
        with pytest.raises(ValueError):
            c0_middle_terms(surface, 1)
        with pytest.raises(ValueError):
            c0_upper_bound(surface, 1)

    def test_negative_p_forces_q_three(self):
        # The closed forms assume q = 3 and check only a = 4 and p < 0.
        negative_p = 0
        for b in range(5, 400, 2):
            for c in range(b + 2, 3 * b, 2):  # c = 4p + q*b < 3b when p < 0
                if gcd(b, c) != 1:
                    continue
                surface = make_surface(4, b, c)
                if surface.p < 0:
                    negative_p += 1
                    assert surface.q == 3, surface
        assert negative_p == 16_181

    def test_rejects_z_family_and_bad_n(self, s457):
        with pytest.raises(ValueError):
            coefficients(s457, "AZ", 1)
        with pytest.raises(ValueError):
            coefficients(s457, "B", 0)
        with pytest.raises(ValueError):
            c0_middle_terms(s457, -1)
        with pytest.raises(ValueError):
            c0_upper_bound(s457, 0)


class TestMiddleTerms:
    def test_frozen(self, s457, s41323):
        assert c0_middle_terms(s457, 0) == 0
        assert c0_middle_terms(s457, 1) == Fraction(-15, 28)
        assert c0_middle_terms(s457, 2) == Fraction(-9, 28)
        assert c0_middle_terms(s457, 3) == Fraction(-5, 14)
        assert c0_middle_terms(s41323, 1) == Fraction(-15, 92)

    def test_range_facts_small_sweep(self, s457, s41323):
        for surface in (s457, s41323, make_surface(4, 23, 41)):
            b, c = surface.b, surface.c
            for n in range(0, 120):
                mid = c0_middle_terms(surface, n)
                frac_sn = Fraction((b * n) % c, c)
                assert mid <= Fraction(1, 8)
                assert (mid > 0) == (Fraction(1, 4) < frac_sn < Fraction(3, 10))
                if mid > -Fraction(c, 32 * b):
                    assert frac_sn < Fraction(1, 2) + Fraction(c, 80 * b)


class TestUpperBound:
    def test_frozen(self, s457, s41323):
        assert c0_upper_bound(s457, 1) == Fraction(33, 35)
        assert c0_upper_bound(s457, 2) == Fraction(1629, 1120)
        assert c0_upper_bound(s457, 3) == Fraction(1341, 1120)
        assert c0_upper_bound(s41323, 1) == Fraction(335, 299)
        assert c0_upper_bound(s41323, 2) == Fraction(11389, 9568)

    def test_branch_selection(self, s457):
        # n = 1 has {sn} = 5/7 >= 1/2 + 7/400, so the leading constant is 1;
        # n = 2 has {sn} = 3/7 below the cut, so it is 9/8 + 7/160.
        b, c = s457.b, s457.c
        cut = Fraction(1, 2) + Fraction(c, 80 * b)
        assert Fraction(5, 7) >= cut and Fraction(3, 7) < cut
        tail_1 = c0_upper_bound(s457, 1) - 1
        tail_2 = c0_upper_bound(s457, 2) - (Fraction(9, 8) + Fraction(c, 32 * b))
        assert tail_1 == Fraction(-2, 35)
        assert tail_2 == Fraction(2, 7)

    def test_bounds_family_b_constant(self, s457, s41323):
        for surface in (s457, s41323, make_surface(4, 23, 41)):
            for n in range(1, 120):
                assert coefficients(surface, "B", n).c0 <= c0_upper_bound(surface, n)
