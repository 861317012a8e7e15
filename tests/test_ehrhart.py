"""Closed-form Ehrhart coefficients against the direct lattice counter."""

from fractions import Fraction
from itertools import accumulate
from math import ceil, comb, gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from effcone import (
    DivisorSpec,
    classify_surface,
    coefficients,
    h0,
    make_surface,
    margin_general,
    polytope,
    section_counts,
)

from conftest import (
    build_pool,
    c0_middle_terms,
    c0_upper_bound,
    fraction_c0_tail,
    fraction_coefficients,
    fraction_middle_terms,
    fraction_value,
)


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


class TestPeriodicity:
    """c0 has period sigma (c for B, b for C), so a whole period adds to the
    count exactly what c2*n^2 + c1*n adds: the step that lets one period of
    counts bound c0 for every n."""

    def test_count_steps_by_a_whole_period(self, pool, named_surfaces):
        cells = 0
        for surface in dict.fromkeys(named_surfaces + [surface for surface, _, _ in pool]):
            for family, sigma in (("B", surface.c), ("C", surface.b)):
                counts = section_counts(surface, family, 3 * sigma)
                coeffs = coefficients(surface, family, 1)
                for n in range(1, 2 * sigma + 1):
                    step = coeffs.c2 * (2 * sigma * n + sigma**2) + coeffs.c1 * sigma
                    assert counts[n + sigma - 1] - counts[n - 1] == step, (surface, family, n)
                cells += 2 * sigma
        assert cells == 34176  # every distinct pool and named surface

    def test_run_sum_over_a_b_rows(self):
        # section_counts' proof: for gcd(g, a) = 1, the a*b rows after W add
        # b*(S + g*W) + a*b*g*(b-1)/2 with S = (g-1)(a-1)/2 + g; doubled here.
        cases = 0
        for a in range(1, 13):
            for b in range(1, 13):
                for g in range(-15, 16):
                    if gcd(g, a) != 1:
                        continue
                    sums = [0, *accumulate(g * j // a for j in range(3 * a * b + 1))]
                    for w in range(2 * a * b + 1):
                        rows = sums[w + a * b + 1] - sums[w + 1]  # j = w+1..w+a*b
                        twice = b * ((g - 1) * (a - 1) + 2 * g + 2 * g * w) + a * b * g * (b - 1)
                        assert 2 * rows == twice, (a, b, g, w)
                    cases += 2 * a * b + 1
        assert cases == 221928

    def test_period_step_is_the_claim(self, pool):
        # The proof's last step: the difference minus the claim is the zero
        # polynomial in b, p, n and T for both families.
        sympy = pytest.importorskip("sympy")
        b, p, n, t = sympy.symbols("b p n T")
        a, q, c = 4, 3, 4 * p + 3 * b
        half = sympy.Rational(1, 2)

        def run_sum(g, a, b, w):  # sum_{j=w+1}^{w+a*b} floor(g*j/a)
            return b * (half * (g - 1) * (a - 1) + g + g * w) + half * a * b * g * (b - 1)

        surface = pool[0][0]
        for family, g, s, k, sigma, top, c2, c1 in (
            ("B", -q, -p, 1, c, t, 2 * b / c, (b + c + 4) / (2 * c)),
            ("C", -q, p, q, b, a * n, 2 * c / b, (b + c + 4) / (2 * b)),
        ):
            step = (run_sum(g, a, b, top) + run_sum(s, b, a, top)
                    + (k * (n + sigma) + 1) * (top + a * b + 1) - (k * n + 1) * (top + 1))
            claim = c2 * (2 * sigma * n + sigma**2) + c1 * sigma
            assert sympy.simplify(step - claim) == 0, family
            coeffs = coefficients(surface, family, 1)  # c2 and c1 are the library's
            at = {b: surface.b, p: surface.p}
            assert (c2.subs(at), c1.subs(at)) == (coeffs.c2, coeffs.c1), family


class TestMarginReductionAlgebra:
    """The leading coefficient c2 and the margin bound's reduction, proved
    with sympy: c2 is the area of the n = 1 polytope, and with
    kappa = gamma/sigma_F and A = 4*kappa^2 - 8*c2 each margin's lower bound
    minus h0's upper bound c2*n^2 + c1*n + C0 is a quadratic in n."""

    @staticmethod
    def vertices(b, c, family):
        """The n = 1 polytope of family B or C, as ``polytope`` builds it."""
        if family == "B":
            return ((0, 0), (-1, 0), (-3 * b / c, 4 * b / c))
        return ((0, 0), (-c / b, 0), (-3, 4))

    def test_c2_is_the_area_of_the_first_polytope(self, pool):
        sympy = pytest.importorskip("sympy")
        b, c = sympy.symbols("b c", positive=True)
        for family, c2 in (("B", 2 * b / c), ("C", 2 * c / b)):
            points = self.vertices(b, c, family)
            twice_area = sum(x0 * y1 - x1 * y0
                             for (x0, y0), (x1, y1) in zip(points, points[1:] + points[:1]))
            assert sympy.cancel(sympy.Abs(twice_area) / 2 - c2) == 0, family
            for surface, *_ in pool:
                at = {b: surface.b, c: surface.c}
                tri = polytope(surface, DivisorSpec(family, 1))
                assert [(v.x, v.y) for v in tri.vertices] == [
                    (sympy.sympify(x).subs(at), sympy.sympify(y).subs(at)) for x, y in points]
            surface = pool[0][0]
            assert c2.subs({b: surface.b, c: surface.c}) == coefficients(surface, family, 1).c2

    def test_margin_bounds_reduce_to_a_quadratic(self, pool):
        sympy = pytest.importorskip("sympy")
        b, c, n, nu0, m0, c1, c0 = sympy.symbols("b c n nu0 m0 c1 C0", positive=True)
        sigma, delta = {"B": c, "C": b}, {"B": b, "C": c}
        c2 = {"B": 2 * b / c, "C": 2 * c / b}
        bound = {family: c2[family] * n**2 + c1 * n + c0 for family in c2}
        for cls_family in ("B", "C"):
            gamma = nu0 * sigma[cls_family] / m0
            for family in ("B", "C"):
                assert sigma[family] * delta[family] == b * c
                kappa = gamma / sigma[family]
                big_a = 4 * kappa**2 - 8 * c2[family]
                # The off-ray level ceil(nu0*n*delta_F/(m0*delta_cls)) is at least kappa*n.
                level = nu0 * n * delta[family] / (m0 * delta[cls_family])
                assert sympy.cancel(level - kappa * n) == 0
                off_ray = (kappa * n) ** 2 / 2 + kappa * n / 2 + 1 - bound[family] - 1
                assert sympy.cancel(off_ray - (big_a / 8 * n**2 + (kappa / 2 - c1) * n - c0)) == 0
                on_ray = sympy.binomial(kappa * n + 2, 2).expand(func=True) - bound[family] - 1
                on_ray_claim = big_a / 8 * n**2 + (3 * kappa / 2 - c1) * n - c0
                assert sympy.cancel(on_ray - on_ray_claim) == 0
        # The library's off-ray rhs is C(ceil(kappa*n) + 1, 2) + 1 with that kappa.
        surface = pool[0][0]
        degree = {"B": surface.b, "C": surface.c}
        for cls in classify_surface(surface):
            base = cls.m0 * degree[cls.family]
            for family in ("B", "C"):
                kappa = cls.gamma_pred / {"B": surface.c, "C": surface.b}[family]
                for m in range(1, 60):
                    if m * degree[family] % base:
                        rhs = margin_general(cls, m * degree[family], base, 0)
                        assert rhs == comb(ceil(kappa * m) + 1, 2) + 1, (cls.branch, family, m)


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
        for bad in (2.5, True, Fraction(2)):  # True used to give an EhrhartCoeffs with n=True
            with pytest.raises(TypeError) as caught:
                coefficients(s457, "B", bad)
            assert str(caught.value) == f"n must be an int, got {bad!r}"
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


@st.composite
def surfaces_with_levels(draw):
    """An a = 4, p < 0 surface with b <= 10^4, and a dilation level n: 1, a
    multiple of b or c or a neighbour of one, or one in [10^5, 10^12]."""
    b = draw(st.integers(2, 4999)) * 2 + 1
    m = draw(st.integers(1, (b - 1) // 2))  # p = -m; c = 3b - 4m > b
    assume(gcd(b, m) == 1)
    surface = make_surface(4, b, 3 * b - 4 * m)
    multiple = draw(st.integers(1, 50)) * draw(st.sampled_from((b, surface.c)))
    n = draw(st.one_of(
        st.just(1),
        st.sampled_from((multiple - 1, multiple, multiple + 1)),
        st.integers(10**5, 10**12),
    ))
    return surface, n


class TestFractionOracle:
    """Each coefficient is one numerator over one integer denominator; the
    Fraction expressions it replaced are the oracle."""

    @settings(max_examples=300, deadline=None)
    @given(surfaces_with_levels(), st.sampled_from(("B", "C")))
    @example((make_surface(4, 5, 7), 1), "B")
    @example((make_surface(4, 9999, 3 * 9999 - 4 * 4999), 10**12), "C")
    @example((make_surface(4, 9999, 3 * 9999 - 4), 9999 * 50 + 1), "B")
    def test_coefficients_and_value(self, surface_level, family):
        surface, n = surface_level
        coeffs = coefficients(surface, family, n)
        expected = fraction_coefficients(surface, family, n)
        assert (coeffs.c2, coeffs.c1, coeffs.c0) == expected
        assert (coeffs.n, coeffs.family) == (n, family)
        count = h0(surface, DivisorSpec(family, n))
        assert coeffs.value() == fraction_value(*expected, n) == count

    @settings(max_examples=200, deadline=None)
    @given(surfaces_with_levels())
    def test_middle_terms_and_upper_bound(self, surface_level):
        surface, n = surface_level
        assert c0_middle_terms(surface, n) == fraction_middle_terms(surface, n)
        assert c0_middle_terms(surface, 0) == fraction_middle_terms(surface, 0) == 0
        b, c = surface.b, surface.c
        cut = Fraction(1, 2) + Fraction(c, 80 * b)
        lead = 1 if Fraction(b * n % c, c) >= cut else Fraction(9, 8) + Fraction(c, 32 * b)
        bound = c0_upper_bound(surface, n)
        assert bound == lead + fraction_c0_tail(surface, n)
        assert coefficients(surface, "B", n).c0 <= bound
