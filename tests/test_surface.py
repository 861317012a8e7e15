"""Weighted surfaces, their section polytopes, and h^0 against the monomial oracle."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from effcone import (
    DivisorSpec,
    WeightedSurface,
    count_points_rowscan,
    h0,
    make_surface,
    polytope,
    section_counts,
)

from conftest import build_pool, monomial_count, polytope_fraction, right_edge_sum, section_count


def degree(surface, spec):
    if spec.family == "B":
        return spec.n * surface.a * surface.b
    if spec.family == "C":
        return spec.n * surface.a * surface.c
    return spec.n * surface.a * surface.c  # AZ: n*a*D_z has degree n*a*c


@st.composite
def surfaces(draw):
    """Valid P(a, b, c) with c <= 3b, a <= 4 (families AZ) or, with equal odds,
    P(4, b, 3b + 4p) with -b/2 < p <= b (families B, C and AZ)."""
    if draw(st.booleans()):
        a = draw(st.integers(1, 4))
        b = draw(st.integers(a + 1, 120))
        c = draw(st.integers(b + 1, 3 * b))
    else:
        a, b = 4, draw(st.integers(2, 150)) * 2 + 1
        c = 3 * b + 4 * draw(st.integers(-((b - 1) // 2), b))
    assume(gcd(a, b) == gcd(a, c) == gcd(b, c) == 1)
    return make_surface(a, b, c)


class TestMakeSurface:
    @pytest.mark.parametrize(
        "weights, p, q",
        [
            ((4, 5, 7), -2, 3),
            ((4, 5, 9), 1, 1),
            ((4, 5, 19), 1, 3),
            ((4, 7, 17), -1, 3),
            ((4, 13, 23), -4, 3),
            ((3, 5, 7), -1, 2),
            ((2, 3, 7), 2, 1),
            ((1, 2, 3), 3, 0),
        ],
    )
    def test_frozen_pq(self, weights, p, q):
        surface = make_surface(*weights)
        assert (surface.p, surface.q) == (p, q)
        assert surface.p * surface.a + surface.q * surface.b == surface.c

    @pytest.mark.parametrize(
        "weights",
        [(4, 6, 7), (4, 5, 10), (2, 4, 7), (5, 4, 7), (4, 7, 7), (4, 7, 5), (0, 1, 2)],
    )
    def test_invalid_weights(self, weights):
        with pytest.raises(ValueError):
            make_surface(*weights)

    def test_direct_construction_validates(self):
        with pytest.raises(ValueError):
            WeightedSurface(a=4, b=5, c=7, p=1, q=3)  # 4 + 15 != 7
        with pytest.raises(ValueError):
            WeightedSurface(a=4, b=5, c=7, p=-2, q=5)  # q out of range
        with pytest.raises(ValueError, match="p = -2 < 0 with q = 1"):
            WeightedSurface(a=4, b=5, c=-3, p=-2, q=1)  # c = p*a + b < b

    def test_ratio_and_repr(self):
        surface = make_surface(4, 5, 7)
        assert surface.bp_ratio == Fraction(5, 2)
        assert repr(surface) == "P(4,5,7)"
        with pytest.raises(ValueError):
            _ = make_surface(4, 5, 19).bp_ratio  # p > 0 has no abscissa


class TestPolytopes:
    def test_frozen_vertices(self):
        surface = make_surface(4, 5, 7)
        tri = polytope(surface, DivisorSpec("B", 1))
        assert [(v.x, v.y) for v in tri.vertices] == [
            (0, 0), (-1, 0), (Fraction(-15, 7), Fraction(20, 7)),
        ]
        tri = polytope(surface, DivisorSpec("C", 1))
        assert [(v.x, v.y) for v in tri.vertices] == [
            (0, 0), (Fraction(-7, 5), 0), (-3, 4),
        ]
        tri = polytope(surface, DivisorSpec("AZ", 1))
        assert [(v.x, v.y) for v in tri.vertices] == [
            (0, 0), (3, -4), (Fraction(8, 5), -4),
        ]

    @given(surfaces(), st.integers(1, 10**6))
    @settings(max_examples=300)
    @example(make_surface(4, 5, 7), 10**6)  # p = -2
    @example(make_surface(4, 5, 19), 10**6)  # p = 1
    @example(make_surface(3, 5, 7), 10**6)  # a = 3, p = -1
    @example(make_surface(2, 3, 7), 999_983)  # a = 2, p = 2
    @example(make_surface(1, 2, 3), 1)  # a = 1, q = 0
    def test_integer_vertices_match_fraction_oracle(self, surface, n):
        families = ("B", "C", "AZ") if (surface.a, surface.q) == (4, 3) else ("AZ",)
        for family in families:
            tri = polytope(surface, DivisorSpec(family, n))
            assert [(v.x, v.y) for v in tri.vertices] == polytope_fraction(surface, family, n)
            for v in tri.vertices:
                assert type(v.x) is Fraction and type(v.y) is Fraction

    def test_b_and_c_shapes_need_reduced_type(self):
        # On P(4,5,9) the Cartier residue is 1, not 3; the two x-divisor
        # shapes do not apply and must be refused rather than miscounted.
        surface = make_surface(4, 5, 9)
        for family in ("B", "C"):
            with pytest.raises(ValueError):
                polytope(surface, DivisorSpec(family, 1))
        # The z-divisor shape applies to every surface.
        assert h0(surface, DivisorSpec("AZ", 1)) == monomial_count(4, 5, 9, 36)

    def test_divisor_spec_validation(self):
        with pytest.raises(ValueError):
            DivisorSpec("X", 1)
        with pytest.raises(ValueError):
            DivisorSpec("B", 0)


class TestH0:
    @pytest.mark.parametrize(
        "weights, family, n, expected",
        [
            ((4, 5, 7), "B", 1, 3),
            ((4, 5, 7), "B", 2, 9),
            ((4, 5, 7), "B", 7, 79),
            ((4, 5, 7), "C", 1, 5),
            ((4, 5, 7), "C", 5, 79),
            ((4, 5, 7), "AZ", 1, 5),
            ((4, 13, 23), "C", 1, 6),
            ((4, 13, 23), "C", 3, 37),
            ((4, 7, 9), "B", 9, 137),
            ((4, 7, 13), "B", 2, 7),
        ],
    )
    def test_frozen(self, weights, family, n, expected):
        surface = make_surface(*weights)
        assert h0(surface, DivisorSpec(family, n)) == expected

    def test_monomial_oracle_all_families(self):
        cases = [
            (make_surface(4, 5, 7), ("B", "C", "AZ")),
            (make_surface(4, 13, 23), ("B", "C", "AZ")),
            (make_surface(4, 5, 19), ("B", "C", "AZ")),  # p > 0, reduced type 3
            # b/(-p) >= 16/3: no level classifies, but q = 3 and B, C apply.
            (make_surface(4, 7, 17), ("B", "C", "AZ")),
            (make_surface(4, 11, 29), ("B", "C", "AZ")),
            (make_surface(4, 13, 35), ("B", "C", "AZ")),
            (make_surface(3, 5, 7), ("AZ",)),
            (make_surface(2, 3, 7), ("AZ",)),
            (make_surface(1, 2, 3), ("AZ",)),
        ]
        for surface, families in cases:
            for family in families:
                for n in (1, 2, 3, 5):
                    spec = DivisorSpec(family, n)
                    expected = monomial_count(
                        surface.a, surface.b, surface.c, degree(surface, spec)
                    )
                    assert h0(surface, spec) == expected, (surface, spec)

    def test_monomial_oracle_on_pool_sample(self):
        for surface, _, _ in build_pool()[::9]:
            for family in ("B", "C"):
                for n in (1, 4, 11):
                    spec = DivisorSpec(family, n)
                    expected = monomial_count(
                        surface.a, surface.b, surface.c, degree(surface, spec)
                    )
                    assert h0(surface, spec) == expected, (surface, spec)

    @given(surfaces(), st.integers(1, 30))
    @settings(max_examples=100)
    def test_monomial_oracle_property(self, surface, n):
        families = ("B", "C", "AZ") if (surface.a, surface.q) == (4, 3) else ("AZ",)
        for family in families:
            spec = DivisorSpec(family, n)
            expected = monomial_count(surface.a, surface.b, surface.c, degree(surface, spec))
            assert h0(surface, spec) == expected, (surface, spec)

    def test_az_matches_c_when_degrees_agree(self):
        surface = make_surface(4, 13, 23)
        for n in range(1, 8):
            assert h0(surface, DivisorSpec("AZ", n)) == h0(surface, DivisorSpec("C", n))

    @given(st.integers(1, 25))
    @settings(max_examples=25)
    def test_strictly_increasing(self, n):
        surface = make_surface(4, 7, 13)
        for family in ("B", "C", "AZ"):
            assert h0(surface, DivisorSpec(family, n + 1)) > h0(
                surface, DivisorSpec(family, n)
            )


@st.composite
def bc_surfaces(draw):
    """P(4, b, 3b + 4p) with q = 3 and odd b up to about 2*10^6: b just above
    2|p| (c just above b), b near 16|p|/3 (the top of the classified range),
    or p > 0."""
    m = draw(st.integers(1, 10**6))
    side = draw(st.sampled_from(("near 2|p|", "near 16|p|/3", "p > 0")))
    if side == "near 2|p|":
        b, p = 2 * m + 2 * draw(st.integers(0, 20)) + 1, -m
    elif side == "near 16|p|/3":
        b, p = (16 * m // 3 + draw(st.integers(-40, 40))) | 1, -m
    else:
        b, p = 2 * draw(st.integers(2, 10**6)) + 1, m
    assume(b > max(4, 2 * -p) and gcd(b, m) == 1)
    return make_surface(4, b, 3 * b + 4 * p)


@st.composite
def bc_cells(draw):
    """(surface, n) with a :func:`bc_surfaces` surface and n up to 10^18."""
    surface = draw(bc_surfaces())
    n = draw(st.one_of(st.integers(1, 400), st.integers(1, 10**18)))
    return surface, n


def general_counts(surface, family, n_max):
    return [count_points_rowscan(polytope(surface, DivisorSpec(family, n)))
            for n in range(1, n_max + 1)]


class TestSectionCount:
    """``section_counts`` and the per-cell closed form it replaced, which the
    tests keep as an oracle (``conftest.section_count``)."""

    def test_right_edge_sum_is_the_direct_sum(self):
        for rows in range(1000):
            assert right_edge_sum(rows) == sum(-3 * y // 4 for y in range(rows)), rows

    @given(bc_cells())
    @settings(max_examples=400)
    @example((make_surface(4, 5, 7), 10**18))  # b = 2|p| + 1
    @example((make_surface(4, 5, 19), 10**18))  # p = 1
    @example((make_surface(4, 7, 17), 1))  # b/(-p) = 7 > 16/3
    @example((make_surface(4, 2 * 10**6 + 1, 2 * 10**6 + 3), 10**18 - 1))
    def test_matches_general_counter(self, cell):
        # The closed-form oracle, cell by cell at any n.
        surface, n = cell
        for family in ("B", "C"):
            expected = count_points_rowscan(polytope(surface, DivisorSpec(family, n)))
            assert section_count(surface, family, n) == expected, (surface, family, n)

    @given(bc_surfaces(), st.integers(1, 400))
    @settings(max_examples=200, deadline=None)
    @example(make_surface(4, 5, 7), 400)  # b = 2|p| + 1
    @example(make_surface(4, 5, 19), 400)  # p = 1
    @example(make_surface(4, 7, 17), 1)  # b/(-p) = 7 > 16/3
    @example(make_surface(4, 2 * 10**6 + 1, 2 * 10**6 + 3), 400)
    def test_running_sum_matches_general_counter(self, surface, n_max):
        for family in ("B", "C"):
            counts = section_counts(surface, family, n_max)
            assert counts == general_counts(surface, family, n_max), (surface, family)

    def test_matches_general_counter_on_pool(self, pool, named_surfaces):
        # Every cell of a verify sweep at n_max = 200, against h0 and the oracle.
        surfaces = dict.fromkeys(named_surfaces + [surface for surface, _, _ in pool])
        for surface in surfaces:
            for family in ("B", "C"):
                counts = section_counts(surface, family, 200)
                assert len(counts) == 200
                for n, count in enumerate(counts, 1):
                    assert count == h0(surface, DivisorSpec(family, n)), (surface, family, n)
                    assert count == section_count(surface, family, n), (surface, family, n)

    @given(surfaces(), st.integers(1, 60))
    @settings(max_examples=200, deadline=None)
    @example(make_surface(1, 2, 3), 60)  # a = 1, q = 0
    @example(make_surface(2, 3, 7), 60)  # p = 2 > 0
    @example(make_surface(3, 5, 7), 60)  # p = -1 < 0
    @example(make_surface(4, 5, 7), 60)  # p = -2 < 0, q = 3
    @example(make_surface(4, 5, 19), 60)  # p = 1 > 0, q = 3
    @example(make_surface(4, 5, 9), 60)  # q = 1: B and C are refused, AZ is not
    def test_az_matches_h0_and_monomial_oracle(self, surface, n_max):
        counts = section_counts(surface, "AZ", n_max)
        for n, count in enumerate(counts, 1):
            assert count == h0(surface, DivisorSpec("AZ", n)), (surface, n)
        for n, count in enumerate(counts[:6], 1):  # the enumeration grows as n^2
            expected = monomial_count(
                surface.a, surface.b, surface.c, degree(surface, DivisorSpec("AZ", n))
            )
            assert count == expected, (surface, n)

    def test_matches_monomial_oracle(self):
        for weights in ((4, 5, 7), (4, 5, 19), (4, 7, 17), (4, 13, 23), (4, 49, 87)):
            surface = make_surface(*weights)
            for family in ("B", "C", "AZ"):
                counts = section_counts(surface, family, 12)
                for n in (1, 2, 3, 7, 12):
                    expected = monomial_count(
                        4, surface.b, surface.c, degree(surface, DivisorSpec(family, n))
                    )
                    assert counts[n - 1] == expected, (surface, family, n)

    def test_refusals(self):
        surface = make_surface(4, 5, 9)  # q = 1
        for family in ("B", "C"):
            message = rf"^family {family} polytope requires a = 4 and q = 3, got P\(4,5,9\)$"
            with pytest.raises(ValueError, match=message):
                section_counts(surface, family, 1)
        for family in ("X", "az"):
            message = rf"^unknown family '{family}'; expected one of \('B', 'C', 'AZ'\)$"
            with pytest.raises(ValueError, match=message):
                section_counts(make_surface(4, 5, 7), family, 1)
        for n_max in (0, -3):
            with pytest.raises(ValueError, match=f"^require n_max >= 1, got {n_max}$"):
                section_counts(make_surface(4, 5, 7), "B", n_max)


class TestAbscissaRange:
    def test_above_two_on_pool(self):
        for surface, _, _ in build_pool():
            assert surface.bp_ratio > 2

    def test_large_abscissa_exists(self):
        # The classification interval (2, 16/3) does not bound all valid
        # surfaces: here the abscissa is 7.
        surface = make_surface(4, 7, 17)
        assert surface.p == -1
        assert surface.bp_ratio == 7 > Fraction(16, 3)
