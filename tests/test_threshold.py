"""nu invariants, the interval classification, gamma searches, and reference triangles."""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effcone import (
    DivisorSpec,
    branch_interval,
    classify,
    classify_surface,
    count_points_pick,
    count_points_rowscan,
    gamma_search,
    h0,
    lower_bound_small_a,
    make_surface,
    nu,
    nu_from_h0,
    polytope,
    section_counts,
)
from effcone.threshold import BRANCHES, _level

from conftest import (
    classify_by_fractions,
    contains_point,
    expected_count_large,
    expected_count_small,
    family_supremum,
    level_by_descent,
    outer_bound,
    reference_triangle,
)


class TestNuFromH0:
    @pytest.mark.parametrize(
        "h, expected",
        [(1, 0), (2, 1), (3, 1), (4, 2), (6, 2), (7, 3), (12, 4), (37, 8), (79, 12), (137, 16)],
    )
    def test_frozen(self, h, expected):
        assert nu_from_h0(h) == expected

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            nu_from_h0(0)

    @given(st.integers(1, 10**9))
    @settings(max_examples=80)
    def test_maximality(self, h):
        d = nu_from_h0(h)
        assert h <= (d + 1) * (d + 2) // 2
        if d >= 1:
            assert h > d * (d + 1) // 2

    def test_nu_of_divisors(self, named_surfaces):
        s457, s4709, s41323, s4713 = named_surfaces
        assert nu(s457, DivisorSpec("B", 7)) == 12
        assert nu(s457, DivisorSpec("C", 5)) == 12
        assert nu(s4709, DivisorSpec("B", 9)) == 16
        assert nu(s41323, DivisorSpec("C", 3)) == 8
        assert nu(s4713, DivisorSpec("B", 2)) == 3


class TestIntervals:
    def test_outer_bound_frozen(self):
        assert outer_bound(1) == Fraction(16, 3)
        assert outer_bound(2) == Fraction(64, 23)
        assert outer_bound(3) == Fraction(144, 59)

    def test_outer_bound_decreasing_toward_two(self):
        values = [outer_bound(k) for k in range(1, 40)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v > 2 for v in values)

    def test_branches_tile_each_level(self):
        for k in range(1, 12):
            intervals = [branch_interval(k, br) for br in BRANCHES]
            assert intervals[0][0] == outer_bound(k + 1)
            assert intervals[-1][1] == outer_bound(k)
            for (_, hi), (lo, _) in zip(intervals, intervals[1:]):
                assert hi == lo
            assert all(lo < hi for lo, hi in intervals)

    def test_validation(self):
        with pytest.raises(ValueError):
            branch_interval(0, "I'-")
        with pytest.raises(ValueError):
            branch_interval(1, "II")
        with pytest.raises(ValueError):
            outer_bound(0)


class TestLevelTable:
    @staticmethod
    def published(k):
        """The paper's four rows (branch, lo, hi, m0, family, nu0) at level k."""
        def outer(j):
            return Fraction(16 * j * j, 8 * j * j - 4 * j - 1)

        mid_left = Fraction(2 * k + 1, k)
        mid_right = Fraction(4 * (2 * k + 1) ** 2, 8 * k * k + 4 * k - 1)
        three_quarter = Fraction(4 * k, 2 * k - 1)
        return [
            ("I'-", outer(k + 1), mid_left, 2 * k + 3, "B", 4 * (k + 1)),
            ("I'+", mid_left, mid_right, 2 * k + 1, "C", 4 * (k + 1)),
            ("I''-", mid_right, three_quarter, k + 1, "B", 2 * k + 1),
            ("I''+", three_quarter, outer(k), k, "C", 2 * k + 1),
        ]

    @pytest.mark.parametrize("k", [*range(1, 61), 500])
    def test_intervals_and_classifications_match_the_paper(self, k):
        for branch, lo, hi, m0, family, nu0 in self.published(k):
            assert branch_interval(k, branch) == (lo, hi)
            mid = (lo + hi) / 2
            b, p = mid.numerator, -mid.denominator
            (cls,) = classify(b, p)
            assert (cls.k, cls.branch, cls.m0, cls.family, cls.nu0) == (
                k, branch, m0, family, nu0,
            )
            c = 3 * b + 4 * p
            assert cls.gamma_pred == Fraction(nu0 * (c if family == "B" else b), m0)


class TestLevelAlgebra:
    """The level table's algebra for every k, proved with sympy: the order of
    its endpoints, classify's integer test against L(j), and equal predictions
    at every shared endpoint.  Each symbolic table is tied to the library's
    at k <= 50."""

    @staticmethod
    def endpoints(k):
        """L(k+1), (2k+1)/k, 4(2k+1)^2/(8k^2+4k-1), 4k/(2k-1) and L(k) for a
        sympy ``k``: level k's row endpoints, left to right."""
        def outer(j):
            return 16 * j**2 / (8 * j**2 - 4 * j - 1)

        return (outer(k + 1), (2 * k + 1) / k, 4 * (2 * k + 1) ** 2 / (8 * k**2 + 4 * k - 1),
                4 * k / (2 * k - 1), outer(k))

    @staticmethod
    def rows(k):
        """(m0, family, nu0) of level k's rows I'-, I'+, I''- and I''+."""
        return ((2 * k + 3, "B", 4 * (k + 1)), (2 * k + 1, "C", 4 * (k + 1)),
                (k + 1, "B", 2 * k + 1), (k, "C", 2 * k + 1))

    @staticmethod
    def gamma(x, m0, family, nu0):
        """gamma_pred/m at abscissa x = b/m, where c = 3b + 4p = 3b - 4m:
        nu0*c/m0 for family B and nu0*b/m0 for C, both linear in (b, m)."""
        return nu0 * (3 * x - 4 if family == "B" else x) / m0

    def test_tables_are_the_library_level_table(self):
        sympy = pytest.importorskip("sympy")
        for k in range(1, 51):
            ends = [Fraction(int(e.p), int(e.q)) for e in self.endpoints(sympy.Integer(k))]
            level = _level(k)
            assert ends == [Fraction(*row[1]) for row in level] + [Fraction(*level[-1][2])], k
            assert [row[3:] for row in level] == list(self.rows(k)), k
            assert ends[-1] == outer_bound(k)
            for lo, hi, row in zip(ends, ends[1:], self.rows(k)):
                mid = (lo + hi) / 2
                (cls,) = classify(mid.numerator, -mid.denominator)
                assert cls.gamma_pred == self.gamma(mid, *row) * mid.denominator, (k, row)

    def test_endpoints_increase_for_every_k(self):
        # With k = 1 + t, each gap is a ratio of polynomials in t whose
        # coefficients are >= 0 with a positive constant: positive for t >= 0.
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        ends = self.endpoints(1 + t)
        for lo, hi in zip(ends, ends[1:]):
            for part in sympy.fraction(sympy.cancel(hi - lo)):
                coeffs = sympy.Poly(part, t).all_coeffs()
                assert all(coeff >= 0 for coeff in coeffs) and coeffs[-1] > 0, (lo, hi, part)

    def test_classify_integer_test_is_the_comparison_with_l(self):
        # b/m - L(j) = gap/(m*(8j^2 - 4j - 1)) with gap classify's integer
        # test, and 8j^2 - 4j - 1 > 0 for j = 1 + s >= 1: so with m > 0,
        # L(j) <= b/m exactly when gap >= 0.
        sympy = pytest.importorskip("sympy")
        b, m, j, s = sympy.symbols("b m j s")
        gap = (8 * b - 16 * m) * j**2 - 4 * b * j - b
        denominator = 8 * j**2 - 4 * j - 1
        assert sympy.cancel((b / m - self.endpoints(j)[-1]) * m * denominator - gap) == 0
        assert all(coeff > 0 for coeff in sympy.Poly(denominator.subs(j, 1 + s), s).all_coeffs())

    def test_predictions_agree_at_shared_endpoints(self):
        # Within level k each row's hi is the next row's lo; level k's lo
        # L(k+1) is level k+1's hi, where level k's I'- meets k+1's I''+.
        sympy = pytest.importorskip("sympy")
        k = sympy.Symbol("k")
        ends, rows = self.endpoints(k), self.rows(k)
        for end, left, right in zip(ends[1:4], rows, rows[1:]):
            assert sympy.cancel(self.gamma(end, *left) - self.gamma(end, *right)) == 0, end
        assert sympy.cancel(ends[0] - self.endpoints(k + 1)[-1]) == 0
        edge = self.gamma(ends[0], *rows[0]) - self.gamma(ends[0], *self.rows(k + 1)[-1])
        assert sympy.cancel(edge) == 0


class TestGammaSquareAlgebra:
    """gamma_pred^2 > 4bc on every classified surface (the lemma that makes the
    leading coefficient of the all-n gamma bound positive), for every k,
    proved with sympy: with x = b/m and
    c = m(3x - 4), gamma_pred^2 - 4bc is m^2 times a quadratic in x whose
    zeros are 4/3 (family B) or 0 (family C) and one endpoint e of the
    branch.  It is positive inside each branch, and e has an even numerator
    over an odd denominator, so b/(-p) = e forces b even.  Tied to the
    library's level table and classify at k <= 50."""

    # Index into TestLevelAlgebra.endpoints(k) of the zero e of each row
    # I'-, I'+, I''-, I''+: L(k+1), then 4(2k+1)^2/(8k^2+4k-1) twice, then L(k).
    ZEROS = (0, 2, 2, 4)

    @staticmethod
    def excess(x, m0, family, nu0):
        """(gamma_pred^2 - 4bc)/m^2 as a polynomial in x; r = nu0^2/m0^2."""
        r = nu0**2 / m0**2
        if family == "B":
            return (3 * x - 4) * ((3 * r - 4) * x - 4 * r)
        return x * ((r - 12) * x + 16)

    @staticmethod
    def positive(sympy, t, z):
        """z, a ratio of polynomials in t, has numerator and denominator with
        coefficients >= 0 and a positive constant: z > 0 for every t >= 0."""
        return all(
            all(coeff >= 0 for coeff in coeffs) and coeffs[-1] > 0
            for coeffs in (sympy.Poly(part, t).all_coeffs()
                           for part in sympy.fraction(sympy.cancel(z)))
        )

    def test_excess_is_gamma_squared_minus_4bc(self):
        sympy = pytest.importorskip("sympy")
        b, m, k = sympy.symbols("b m k")
        for row in TestLevelAlgebra.rows(k):
            gamma = TestLevelAlgebra.gamma(b / m, *row) * m
            assert sympy.cancel(gamma**2 - 4 * b * (3 * b - 4 * m)
                                - m**2 * self.excess(b / m, *row)) == 0, row

    def test_zeros_are_endpoints_and_the_sign_is_positive_inside(self):
        # excess = lead*(x - z0)*(x - e), with e the branch's lo or hi.  Inside
        # the branch x > lo > z0, and lead has the sign of x - e there.
        sympy = pytest.importorskip("sympy")
        x, k, t = sympy.symbols("x k t")
        ends = TestLevelAlgebra.endpoints(k)
        for i, (row, zero) in enumerate(zip(TestLevelAlgebra.rows(k), self.ZEROS)):
            excess = sympy.expand(self.excess(x, *row))
            lead = sympy.Poly(excess, x).LC()
            z0 = sympy.Rational(4, 3) if row[1] == "B" else 0
            e = ends[zero]
            assert sympy.cancel(excess - lead * (x - z0) * (x - e)) == 0, row
            assert zero in (i, i + 1)
            side = 1 if zero == i else -1  # e = lo: x - e > 0; e = hi: x - e < 0
            assert self.positive(sympy, t, (ends[i] - z0).subs(k, 1 + t)), row
            assert self.positive(sympy, t, (side * lead).subs(k, 1 + t)), row

    def test_zeros_have_even_numerators_over_odd_denominators(self):
        # Every coefficient of the numerator is even, and the denominator's are
        # even but for an odd constant: so the numerator is even and the
        # denominator odd for every k, and cancelling a common factor, odd as
        # it divides the denominator, keeps both so.  b/m = e in lowest terms
        # then makes b a multiple of an even number.
        sympy = pytest.importorskip("sympy")
        k = sympy.Symbol("k")
        ends = TestLevelAlgebra.endpoints(k)
        for zero in sorted(set(self.ZEROS)):
            num, den = (sympy.Poly(part, k).all_coeffs()
                        for part in sympy.fraction(sympy.cancel(ends[zero])))
            assert all(coeff.is_Integer for coeff in num + den), ends[zero]
            assert all(coeff % 2 == 0 for coeff in num), ends[zero]
            assert den[-1] % 2 == 1 and all(coeff % 2 == 0 for coeff in den[:-1]), ends[zero]

    def test_tied_to_the_library_for_k_up_to_50(self):
        sympy = pytest.importorskip("sympy")
        for k in range(1, 51):
            ends = TestLevelAlgebra.endpoints(sympy.Integer(k))
            for i, (branch, lo, hi, *row) in enumerate(_level(k)):
                assert tuple(row) == TestLevelAlgebra.rows(k)[i]
                zero = self.ZEROS[i]
                e = Fraction(*(lo if zero == i else hi))
                assert e == Fraction(int(ends[zero].p), int(ends[zero].q)), (k, branch)
                assert e.numerator % 2 == 0 and e.denominator % 2 == 1, (k, branch)
                inside = (Fraction(*lo) + Fraction(*hi)) / 2
                for x, sign in ((inside, 1), (e, 0)):
                    if not 2 < x < Fraction(16, 3):
                        continue  # L(1) = 16/3 is no surface's abscissa
                    b, m = x.numerator, x.denominator
                    (cls,) = [c for c in classify(b, -m) if (c.k, c.branch) == (k, branch)]
                    excess = cls.gamma_pred**2 - 4 * b * (3 * b - 4 * m)
                    assert (excess > 0) - (excess < 0) == sign, (k, branch, x)


class TestReferenceTriangleAlgebra:
    """Pick's count of both reference triangles for every k, proved with
    sympy: each edge's lattice length by one symbolic Euclid step, then
    (|2*area| + boundary)/2 + 1 reduces to the closed forms.  The symbolic
    vertices are tied to the library's at k <= 50."""

    @staticmethod
    def vertices(k, which):
        if which == "large":
            return ((0, 0), (-(2 * k + 3), 0), (-3 * (2 * k + 1), 4 * (2 * k + 1)))
        return ((0, 0), (-(k + 1), 0), (-3 * k, 4 * k))

    @staticmethod
    def nonnegative(sympy, k, z):
        """z or -z, whichever is >= 0 for every k >= 1: the one whose
        coefficients in t = k - 1 are all >= 0."""
        t = sympy.Symbol("t")
        for candidate in (sympy.sympify(z), -sympy.sympify(z)):
            if all(coeff >= 0 for coeff in sympy.Poly(candidate.subs(k, 1 + t), t).all_coeffs()):
                return sympy.expand(candidate)
        raise AssertionError(f"{z} changes sign for k >= 1")

    def edge_gcd(self, sympy, k, dx, dy):
        """gcd(|dx|, |dy|) for every k >= 1 by one Euclid step: with u <= v
        the two lengths by leading coefficient and r = v - floor(lc(v)/lc(u))*u,
        gcd(u, v) = gcd(u, r).  That is r when r divides u as polynomials,
        and gcd(u0, r) when r is an integer dividing every other coefficient
        of u = ... + u0."""
        def lc(z):
            return sympy.Poly(z, k).LC()

        u, v = sorted((self.nonnegative(sympy, k, dx), self.nonnegative(sympy, k, dy)), key=lc)
        r = self.nonnegative(sympy, k, v - (lc(v) // lc(u) if u else 0) * u)
        if r.is_Integer:
            *head, u0 = sympy.Poly(u, k).all_coeffs()
            assert all(coeff % r == 0 for coeff in head), (u, r)
            return sympy.gcd(u0, r)
        ratio = sympy.cancel(u / r)
        assert all(coeff.is_Integer for coeff in sympy.Poly(ratio, k).all_coeffs()), (u, r)
        return r

    @pytest.mark.parametrize("which", ["large", "small"])
    def test_pick_count_is_the_closed_form(self, which):
        sympy = pytest.importorskip("sympy")
        k = sympy.Symbol("k")
        gcds, expected = {
            "large": ((2 * k + 3, 4, 2 * k + 1), expected_count_large),
            "small": ((k + 1, 1, k), expected_count_small),
        }[which]
        points = self.vertices(k, which)
        edges = list(zip(points, points[1:] + points[:1]))
        lengths = [self.edge_gcd(sympy, k, x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in edges]
        assert [sympy.expand(g - want) for g, want in zip(lengths, gcds)] == [0, 0, 0]
        twice_area = self.nonnegative(sympy, k, sum(x0 * y1 - x1 * y0
                                                    for (x0, y0), (x1, y1) in edges))
        assert sympy.expand((twice_area + sum(lengths)) / 2 + 1 - expected(k)) == 0
        for n in range(1, 51):
            tri = reference_triangle(n, which)
            assert [(v.x, v.y) for v in tri.vertices] == list(self.vertices(n, which)), n


class TestClassify:
    def test_interior_single_match(self):
        (cls,) = classify(13, -4)  # abscissa 13/4
        assert (cls.k, cls.branch, cls.m0, cls.family, cls.nu0) == (1, "I'+", 3, "C", 8)
        assert cls.gamma_pred == Fraction(104, 3)
        (cls,) = classify(7, -2)  # abscissa 7/2
        assert (cls.k, cls.branch, cls.m0, cls.family, cls.nu0) == (1, "I''-", 2, "B", 3)
        assert cls.gamma_pred == Fraction(39, 2)

    @pytest.mark.parametrize(
        "b, p, branches, gamma",
        [
            (5, -2, ("I'-", "I'+"), 12),       # mid boundary at level 2
            (7, -3, ("I'-", "I'+"), 16),       # mid boundary at level 3
            (36, -11, ("I'+", "I''-"), 96),    # quarter boundary at level 1
            (4, -1, ("I''-", "I''+"), 12),     # three-quarter boundary at level 1
            (64, -23, ("I''+", "I'-"), 160),   # level boundary: k = 2 meets k = 1
        ],
    )
    def test_boundaries_double_classify_with_equal_prediction(self, b, p, branches, gamma):
        found = classify(b, p)
        assert len(found) == 2
        assert {cls.branch for cls in found} == set(branches)
        assert {cls.gamma_pred for cls in found} == {Fraction(gamma)}

    def test_sweep_digest(self):
        # The repr of every classification with b <= 300, captured before
        # classify compared the abscissa with its bounds by cross-multiplying.
        digest = hashlib.sha256()
        for b in range(3, 301):
            for m in range(3 * b // 16 + 1, (b + 1) // 2):
                digest.update(repr(classify(b, -m)).encode())
        assert digest.hexdigest() == (
            "102a44d4c79533e47a55032ae527fd3eea11c8fd187c6e377e44dc8fb49c6714"
        )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            classify(7, -4)   # abscissa 7/4 below 2
        with pytest.raises(ValueError):
            classify(16, -3)  # abscissa exactly 16/3
        with pytest.raises(ValueError):
            classify(7, -1)   # abscissa 7 above 16/3
        with pytest.raises(ValueError):
            classify(5, 2)    # p >= 0

    def test_classify_surface_gates(self):
        # The message names the values it refuses, not the surface, which
        # the callers that sweep surfaces name themselves.
        with pytest.raises(ValueError, match=r"^classification requires a = 4 and p < 0, "
                                             r"got a = 3 and p = -1$"):
            classify_surface(make_surface(3, 5, 7))
        with pytest.raises(ValueError, match=r"got a = 4 and p = 1$"):
            classify_surface(make_surface(4, 5, 19))  # p > 0

    def test_pool_surfaces_classify_as_built(self, pool):
        for surface, branch, k in pool:
            found = classify_surface(surface)
            assert len(found) == 1
            assert (found[0].branch, found[0].k) == (branch, k)


class TestClassifyLevel:
    """classify solves for its level; the descent it replaced is the oracle."""

    def test_grid_matches_descent(self):
        for b in range(1, 400):
            # 2 < b/m < 16/3 exactly when 3b/16 < m < b/2.
            for m in range(3 * b // 16 + 1, (b + 1) // 2):
                x = Fraction(b, m)
                k = level_by_descent(x)
                levels = [k, k + 1] if x == outer_bound(k + 1) else [k]
                assert sorted({cls.k for cls in classify(b, -m)}) == levels, (b, m)

    def test_level_edges_match_descent(self):
        for k in range(2, 301):
            edge = outer_bound(k)
            assert level_by_descent(edge) == k - 1
            found = classify(edge.numerator, -edge.denominator)
            assert [(cls.k, cls.branch) for cls in found] == [(k - 1, "I'-"), (k, "I''+")]

    def test_deep_level(self):
        k = 10**15
        found = classify(2 * k + 1, -k)  # abscissa (2k+1)/k, the I'-/I'+ edge
        assert [(cls.k, cls.branch) for cls in found] == [(k, "I'-"), (k, "I'+")]


def shared_endpoints(k):
    """The four shared endpoints of level k: L(k), (2k+1)/k,
    4(2k+1)^2/(8k^2+4k-1) and 4k/(2k-1)."""
    return (
        Fraction(16 * k * k, 8 * k * k - 4 * k - 1),
        Fraction(2 * k + 1, k),
        Fraction(4 * (2 * k + 1) ** 2, 8 * k * k + 4 * k - 1),
        Fraction(4 * k, 2 * k - 1),
    )


class TestClassifyCrossMultiplied:
    """classify compares integers; the Fraction comparisons it replaced are the oracle."""

    def test_every_shared_endpoint_and_its_neighbours(self):
        for k in [*range(1, 121), 10**6, 10**15]:
            for x in shared_endpoints(k):
                if x == Fraction(16, 3):  # L(1) closes the range
                    continue
                b, m = x.numerator, x.denominator
                found = classify(b, -m)
                assert len(found) == 2, (k, x)
                for b_, m_ in ((3 * b, 3 * m), (1000 * b - 1, 1000 * m), (1000 * b + 1, 1000 * m)):
                    assert classify(b_, -m_) == classify_by_fractions(b_, -m_), (k, b_, m_)
                assert found == classify_by_fractions(b, -m)

    @settings(max_examples=300)
    @given(st.integers(1, 10**12), st.fractions(Fraction(2), Fraction(16, 3)))
    def test_random_abscissas(self, scale, x):
        b, m = scale * x.numerator, scale * x.denominator
        if 2 * m < b < Fraction(16, 3) * m:
            assert classify(b, -m) == classify_by_fractions(b, -m)

    @pytest.mark.parametrize("b, p", [
        (4, -2), (16, -3), (32, -6), (5, 0), (0, -1), (7, -1), (7, -4),
        (2 * 10**15 + 1, -(10**15)),
    ])
    def test_errors_match(self, b, p):
        try:
            expected = classify_by_fractions(b, p)
        except ValueError as exc:
            with pytest.raises(ValueError) as caught:
                classify(b, p)
            assert str(caught.value) == str(exc)
        else:
            assert classify(b, p) == expected


class TestGammaSearch:
    def test_frozen_search_457(self):
        surface = make_surface(4, 5, 7)
        tiny = gamma_search(surface, 1)
        assert tiny.best == 10 and tiny.witnesses == (("C", 1, 2),)
        full = gamma_search(surface, 12)
        assert full.best == 12 == full.prediction
        assert full.witnesses == (("B", 7, 12), ("C", 5, 12))
        assert full.matches is True
        assert [(family, len(h0s), len(nus)) for family, _, h0s, nus in full.columns] == [
            ("B", 12, 12), ("C", 12, 12)
        ]

    def test_frozen_search_41323(self):
        result = gamma_search(make_surface(4, 13, 23), 10)
        assert result.best == Fraction(104, 3) == result.prediction
        assert result.witnesses == (("C", 3, 8), ("C", 6, 16), ("C", 9, 24))
        assert result.matches is True

    def test_frozen_search_4713(self):
        result = gamma_search(make_surface(4, 7, 13), 10)
        assert result.best == Fraction(39, 2) == result.prediction
        assert result.witnesses == (("B", 2, 3), ("B", 4, 6))

    def test_small_a_uses_z_family_only(self):
        result = gamma_search(make_surface(3, 5, 7), 5)
        assert [column[:2] for column in result.columns] == [("AZ", 5)]
        assert result.best == 10
        assert result.prediction is None and result.matches is None

    @pytest.mark.parametrize("weights", [(4, 7, 17), (4, 11, 29), (4, 13, 35)])
    def test_unclassified_abscissa_has_no_prediction(self, weights):
        # b/(-p) >= 16/3 lies outside every level: the search runs, and
        # reports no prediction instead of raising.
        surface = make_surface(*weights)
        with pytest.raises(ValueError, match="outside the open interval"):
            classify_surface(surface)
        result = gamma_search(surface, 8)
        assert result.prediction is None and result.matches is None
        assert [(family, len(h0s), len(nus)) for family, _, h0s, nus in result.columns] == [
            ("B", 8, 8), ("C", 8, 8)
        ]
        assert result.best == max(
            Fraction(scale * d, n)
            for _, scale, _, nus in result.columns for n, d in enumerate(nus, 1)
        )

    def test_best_and_witnesses_match_fraction_values(self, pool):
        # The search compares the values scale*nu/n by cross-multiplying;
        # here each value is a Fraction, and the max and its attainers are
        # taken from those.  Each column holds its family's scale and the
        # section_counts of n = 1..200 with their nu.
        for surface in [entry[0] for entry in pool] + [make_surface(3, 5, 7)]:
            result = gamma_search(surface, 200)
            families = [(family, scale) for family, scale, _, _ in result.columns]
            assert families == (
                [("B", surface.c), ("C", surface.b)] if surface.a == 4 else [("AZ", surface.b)]
            ), surface
            for family, _, h0s, nus in result.columns:
                assert list(h0s) == section_counts(surface, family, 200), (surface, family)
                assert list(nus) == list(map(nu_from_h0, h0s)), (surface, family)
            values = [
                (Fraction(scale * d, n), (family, n, d))
                for family, scale, _, nus in result.columns for n, d in enumerate(nus, 1)
            ]
            best = max(value for value, _ in values)
            assert result.best == best, surface
            assert result.witnesses == tuple(w for value, w in values if value == best), surface

    def test_prediction_exactly_where_classify_accepts(self):
        # The search predicts when 3b < 16(-p); classify accepts (2, 16/3).
        predicted = 0
        for b in range(5, 120):
            for m in range(1, (3 * b + 3) // 4):
                try:
                    surface = make_surface(4, b, 3 * b - 4 * m)
                except ValueError:
                    continue
                try:
                    expected = classify_surface(surface)[0].gamma_pred
                except ValueError:
                    expected = None
                assert gamma_search(surface, 1).prediction == expected, surface
                predicted += expected is not None
        assert predicted == 910

    def test_positive_p_has_no_prediction(self):
        result = gamma_search(make_surface(4, 5, 19), 5)
        assert result.prediction is None and result.matches is None

    def test_gates(self):
        with pytest.raises(ValueError):
            gamma_search(make_surface(4, 5, 9), 5)  # reduced type 1
        with pytest.raises(ValueError):
            gamma_search(make_surface(4, 5, 7), 0)
        for bad in (2.5, True, Fraction(2)):  # True used to run a one-row search
            with pytest.raises(TypeError) as caught:
                gamma_search(make_surface(4, 5, 7), bad)
            assert str(caught.value) == f"n_max must be an int, got {bad!r}"

    def test_b_and_c_shapes_are_refused_by_polytope(self):
        surface = make_surface(4, 5, 9)  # reduced type 1
        for family in ("B", "C"):
            message = rf"^family {family} polytope requires a = 4 and q = 3, got P\(4,5,9\)$"
            with pytest.raises(ValueError, match=message):
                family_supremum(surface, family, 5)
        with pytest.raises(ValueError, match=r"^family B polytope"):
            gamma_search(surface, 5)

    def test_family_supremum(self):
        surface = make_surface(4, 13, 23)
        assert family_supremum(surface, "C", 100) == Fraction(104, 3)
        assert family_supremum(surface, "B", 1) == 23 * nu(surface, DivisorSpec("B", 1))
        with pytest.raises(ValueError):
            family_supremum(surface, "AZ", 10)
        with pytest.raises(ValueError):
            family_supremum(make_surface(3, 5, 7), "B", 10)
        with pytest.raises(ValueError, match="n_max"):
            family_supremum(surface, "C", 0)

    def test_search_makes_no_h0_call(self, pool):
        surfaces = [make_surface(3, 5, 7), make_surface(2, 3, 7), make_surface(1, 2, 3)]
        for surface in surfaces + [pool[0][0]]:
            h0.cache_clear()
            result = gamma_search(surface, 40)
            for family, *_ in result.columns:
                family_supremum(surface, family, 40)
            info = h0.cache_info()
            assert (info.hits, info.misses) == (0, 0), surface

    def test_family_supremum_is_max_of_search_column(self, pool):
        surfaces = [entry[0] for entry in pool[::6]]
        surfaces += [make_surface(4, 7, 17), make_surface(3, 5, 7)]
        for surface in surfaces:
            result = gamma_search(surface, 40)
            for family, scale, _, nus in result.columns:
                assert family_supremum(surface, family, 40) == max(
                    Fraction(scale * d, n) for n, d in enumerate(nus, 1)
                ), (surface, family)


class TestLowerBoundSmallA:
    @pytest.mark.parametrize(
        "weights, expected",
        [
            ((1, 2, 3), 2),    # q = 0, p >= 0
            ((2, 3, 7), 6),    # q = 1, p >= 0
            ((3, 5, 13), 15),  # q = 2, p >= 0
            ((4, 5, 19), 20),  # q = 3, p >= 0
            ((3, 5, 7), 10),   # p < 0, -pa/b = 3/5
            ((4, 9, 19), 27),  # p < 0, -pa/b = 8/9
        ],
    )
    def test_frozen(self, weights, expected):
        assert lower_bound_small_a(make_surface(*weights)) == expected

    @pytest.mark.parametrize("weights", [(4, 5, 7), (4, 13, 23), (4, 7, 9)])
    def test_rejects_steep_negative_p(self, weights):
        with pytest.raises(ValueError):
            lower_bound_small_a(make_surface(*weights))

    def test_bound_is_certified_by_first_z_divisor(self, small_a_pool):
        for surface in small_a_pool:
            bound = lower_bound_small_a(surface)
            floor = surface.q + 1 if surface.p >= 0 else surface.a - 1
            assert nu(surface, DivisorSpec("AZ", 1)) >= floor
            assert bound == floor * surface.b


class TestReferenceTriangles:
    def test_frozen_counts(self):
        assert expected_count_large(1) == 37
        assert expected_count_small(1) == 7
        tri = reference_triangle(1, "large")
        assert [(v.x, v.y) for v in tri.vertices] == [(0, 0), (-5, 0), (-9, 12)]
        assert count_points_rowscan(tri) == 37

    def test_counts_match_both_routes(self):
        for k in range(1, 13):
            for which, expected in (
                ("large", expected_count_large(k)),
                ("small", expected_count_small(k)),
            ):
                tri = reference_triangle(k, which)
                assert count_points_rowscan(tri) == expected
                assert count_points_pick(tri) == expected

    def test_counts_exceed_binomial_threshold(self):
        # Each count is exactly C(nu0+1, 2) + 1: the smallest value forcing
        # a section with an order-nu0 zero at a general point.
        for k in range(1, 30):
            nu_large, nu_small = 4 * (k + 1), 2 * k + 1
            assert expected_count_large(k) == nu_large * (nu_large + 1) // 2 + 1
            assert expected_count_small(k) == nu_small * (nu_small + 1) // 2 + 1
            assert nu_from_h0(expected_count_large(k)) == nu_large
            assert nu_from_h0(expected_count_small(k)) == nu_small

    def test_validation(self):
        with pytest.raises(ValueError):
            reference_triangle(0, "large")
        with pytest.raises(ValueError):
            reference_triangle(1, "medium")

    def test_contained_in_predicted_polytopes(self, named_surfaces):
        # The certifying triangle sits inside the polytope of the predicted
        # divisor: "large" for the I' branches, "small" for the I'' ones.
        for surface in (*named_surfaces, make_surface(4, 9, 19)):
            for cls in classify_surface(surface):
                which = "large" if cls.branch in ("I'-", "I'+") else "small"
                ref = reference_triangle(cls.k, which)
                target = polytope(surface, DivisorSpec(cls.family, cls.m0))
                for vertex in ref.vertices:
                    assert contains_point(target, (vertex.x, vertex.y)), (
                        surface, cls.branch, vertex,
                    )
