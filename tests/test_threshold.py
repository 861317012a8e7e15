"""nu invariants, the interval classification, gamma searches, and reference triangles."""

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
    expected_count_large,
    expected_count_small,
    family_supremum,
    gamma_search,
    h0,
    lower_bound_small_a,
    make_surface,
    nu,
    nu_from_h0,
    outer_bound,
    polytope,
    reference_triangle,
)
from effcone.threshold import BRANCHES

from conftest import contains_point, level_by_descent


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
        with pytest.raises(ValueError):
            classify_surface(make_surface(3, 5, 7))
        with pytest.raises(ValueError):
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


class TestGammaSearch:
    def test_frozen_search_457(self):
        surface = make_surface(4, 5, 7)
        tiny = gamma_search(surface, 1)
        assert tiny.best == 10 and tiny.witnesses == (("C", 1, 2),)
        full = gamma_search(surface, 12)
        assert full.best == 12 == full.prediction
        assert full.witnesses == (("B", 7, 12), ("C", 5, 12))
        assert full.matches is True
        assert len(full.table) == 24

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
        assert {row[0] for row in result.table} == {"AZ"}
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
        assert [row[:2] for row in result.table] == [
            (family, n) for family in ("B", "C") for n in range(1, 9)
        ]
        scales = dict(result.scales)
        assert result.best == max(Fraction(scales[f] * d, n) for f, n, _, d in result.table)

    def test_best_and_witnesses_match_fraction_values(self, pool):
        # The search compares the values scale*nu/n by cross-multiplying;
        # here each value is a Fraction, and the max and its attainers are
        # taken from those.
        for surface in [entry[0] for entry in pool] + [make_surface(3, 5, 7)]:
            result = gamma_search(surface, 200)
            scales = dict(result.scales)
            values = [(Fraction(scales[f] * d, n), (f, n, d)) for f, n, _, d in result.table]
            best = max(value for value, _ in values)
            assert result.best == best, surface
            assert result.witnesses == tuple(w for value, w in values if value == best), surface

    def test_positive_p_has_no_prediction(self):
        result = gamma_search(make_surface(4, 5, 19), 5)
        assert result.prediction is None and result.matches is None

    def test_gates(self):
        with pytest.raises(ValueError):
            gamma_search(make_surface(4, 5, 9), 5)  # reduced type 1
        with pytest.raises(ValueError):
            gamma_search(make_surface(4, 5, 7), 0)

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
            for family, _ in result.scales:
                family_supremum(surface, family, 40)
            info = h0.cache_info()
            assert (info.hits, info.misses) == (0, 0), surface

    def test_family_supremum_is_max_of_search_rows(self, pool):
        surfaces = [entry[0] for entry in pool[::6]]
        surfaces += [make_surface(4, 7, 17), make_surface(3, 5, 7)]
        for surface in surfaces:
            result = gamma_search(surface, 40)
            for family, scale in result.scales:
                assert family_supremum(surface, family, 40) == max(
                    Fraction(scale * d, n) for fam, n, _, d in result.table if fam == family
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
