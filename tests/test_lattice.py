"""Lattice-point counting: the floor-sum counter vs the row loop, Pick and
brute force, plus geometry."""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from effcone import (
    RationalTriangle,
    count_points_pick,
    count_points_rowscan,
    point,
    triangle,
)

from conftest import brute_count, contains_point, rowscan_loop

coords = st.integers(-50, 50)
small_coords = st.integers(-12, 12)
small_rationals = st.builds(
    Fraction, st.integers(-36, 36), st.integers(1, 3)
)


def adversarial_rationals(bound):
    """Rationals in [-bound, bound] with small or huge (up to 10^12) denominators."""
    return st.one_of(st.integers(1, 12), st.integers(1, 10**12)).flatmap(
        lambda den: st.builds(Fraction, st.integers(-bound * den, bound * den), st.just(den))
    )


SHAPES = ("generic", "horizontal", "flat", "collinear", "repeated", "lattice")


@st.composite
def adversarial_triangles(draw, bound):
    """Rational triangles, forced with equal odds into each degenerate shape:
    a horizontal edge, all three vertices at one height, collinear vertices,
    a repeated vertex, or vertices rounded onto lattice points."""
    coord = adversarial_rationals(bound)
    (x0, y0), (x1, y1), (x2, y2) = (draw(st.tuples(coord, coord)) for _ in range(3))
    shape = draw(st.sampled_from(SHAPES))
    if shape == "horizontal":
        y1 = y0
    elif shape == "flat":
        y1 = y2 = y0
    elif shape == "collinear":
        t = draw(st.builds(Fraction, st.integers(-2, 3), st.integers(1, 4)))
        x2, y2 = x0 + t * (x1 - x0), y0 + t * (y1 - y0)
    elif shape == "repeated":
        x2, y2 = x0, y0
    elif shape == "lattice":
        x0, y0, x1, y1, x2, y2 = (v.numerator // v.denominator for v in (x0, y0, x1, y1, x2, y2))
    vertices = [(x0, y0), (x1, y1), (x2, y2)]
    return triangle(*draw(st.permutations(vertices)))


def integral_triangles(coord):
    return st.builds(
        triangle,
        st.tuples(coord, coord),
        st.tuples(coord, coord),
        st.tuples(coord, coord),
    )


class TestFrozenCounts:
    @pytest.mark.parametrize(
        "vertices, expected",
        [
            # Dilates of the family-B polytope of P(4,5,7), n = 1 and 4.
            (((0, 0), (-1, 0), (Fraction(-15, 7), Fraction(20, 7))), 3),
            (((0, 0), (-4, 0), (Fraction(-60, 7), Fraction(80, 7))), 28),
            # Integral triangle (also Pick-checkable).
            (((0, 0), (-5, 0), (-15, 20)), 61),
            # Unit-ish shapes.
            (((0, 0), (1, 0), (0, 1)), 3),
            (((0, 0), (0, 0), (0, 0)), 1),          # a single point
            (((0, 0), (3, 0), (0, 0)), 4),          # a horizontal segment
            (((0, 0), (0, 3), (0, 1)), 4),          # a vertical segment
            (((Fraction(1, 2), 0), (Fraction(1, 2), 1), (Fraction(1, 2), 2)), 0),
            # Thin sliver with empty interior but boundary points.
            (((0, 0), (100, 1), (50, Fraction(1, 2))), 2),
        ],
    )
    def test_rowscan(self, vertices, expected):
        assert count_points_rowscan(triangle(*vertices)) == expected

    def test_pick_matches_integral(self):
        tri = triangle((0, 0), (-5, 0), (-15, 20))
        assert count_points_pick(tri) == 61

    def test_pick_rejects_rational(self):
        tri = triangle((0, 0), (1, 0), (Fraction(1, 2), 1))
        with pytest.raises(ValueError):
            count_points_pick(tri)

    def test_pick_rejects_degenerate(self):
        with pytest.raises(ValueError):
            count_points_pick(triangle((0, 0), (2, 2), (4, 4)))


class TestRowscanAgainstOracles:
    @given(integral_triangles(coords))
    @settings(max_examples=200)
    def test_pick_agreement(self, tri):
        area2 = abs(
            (tri.vertices[1].x - tri.vertices[0].x)
            * (tri.vertices[2].y - tri.vertices[0].y)
            - (tri.vertices[1].y - tri.vertices[0].y)
            * (tri.vertices[2].x - tri.vertices[0].x)
        )
        if area2 == 0:
            return
        assert count_points_rowscan(tri) == count_points_pick(tri)

    @given(integral_triangles(small_coords))
    @settings(max_examples=150)
    def test_brute_agreement_integral(self, tri):
        assert count_points_rowscan(tri) == brute_count(tri.vertices)

    @given(
        st.tuples(small_rationals, small_rationals),
        st.tuples(small_rationals, small_rationals),
        st.tuples(small_rationals, small_rationals),
    )
    @settings(max_examples=150)
    def test_brute_agreement_rational(self, p0, p1, p2):
        tri = triangle(p0, p1, p2)
        assert count_points_rowscan(tri) == brute_count(tri.vertices)


class TestFloorSumCounter:
    """The floor-sum counter against oracles that share no code with it."""

    @given(adversarial_triangles(40))
    @settings(max_examples=300)
    # One row: the count is floor(max x) - ceil(min x) + 1.
    @example(triangle((Fraction(-7, 2), 2), (Fraction(5, 3), 2), (Fraction(1, 2), 2)))
    @example(triangle((Fraction(1, 3), 0), (Fraction(2, 3), 0), (Fraction(1, 2), 0)))
    # A horizontal bottom edge, then a horizontal top edge.
    @example(triangle((0, 0), (Fraction(7, 2), 0), (Fraction(-3, 10**12), 5)))
    @example(triangle((0, 5), (Fraction(7, 2), 5), (Fraction(-3, 10**12), 0)))
    # Collinear through lattice points, and the middle vertex off-lattice.
    @example(triangle((0, 0), (3, 6), (1, 2)))
    @example(triangle((0, 0), (3, 6), (Fraction(3, 2), 3)))
    def test_row_loop_agreement(self, tri):
        assert count_points_rowscan(tri) == rowscan_loop(tri)

    @given(adversarial_triangles(6))
    @settings(max_examples=200)
    @example(triangle((Fraction(1, 10**12), 0), (1, Fraction(-1, 10**12)), (0, 1)))
    def test_brute_agreement(self, tri):
        assert count_points_rowscan(tri) == brute_count(tri.vertices)

    @given(integral_triangles(st.integers(-10**9, 10**9)))
    @settings(max_examples=200)
    @example(triangle((0, 0), (10**9, 1), (-10**9, 10**9)))
    def test_pick_agreement_far_beyond_row_scanning(self, tri):
        v0, v1, v2 = tri.vertices
        if (v1.x - v0.x) * (v2.y - v0.y) == (v1.y - v0.y) * (v2.x - v0.x):
            return
        assert count_points_rowscan(tri) == count_points_pick(tri)


class TestInvariance:
    @given(integral_triangles(coords), st.integers(-30, 30), st.integers(-30, 30))
    @settings(max_examples=100)
    def test_translation(self, tri, dx, dy):
        moved = triangle(*((v.x + dx, v.y + dy) for v in tri.vertices))
        assert count_points_rowscan(tri) == count_points_rowscan(moved)

    @given(integral_triangles(coords))
    @settings(max_examples=100)
    def test_vertex_permutation(self, tri):
        v0, v1, v2 = tri.vertices
        for perm in ((v1, v2, v0), (v2, v1, v0), (v0, v2, v1)):
            assert count_points_rowscan(tri) == count_points_rowscan(
                triangle(*((v.x, v.y) for v in perm))
            )

    @given(adversarial_triangles(40))
    @settings(max_examples=200)
    # Distinct heights: the six orders take the six paths of the height sort.
    @example(triangle((0, 0), (Fraction(7, 3), Fraction(5, 2)), (-4, Fraction(9, 2))))
    # The two lowest heights tie, then the two highest (equal as fractions
    # with different denominators), then all three.
    @example(triangle((Fraction(1, 2), Fraction(2, 3)), (5, Fraction(4, 6)), (1, 7)))
    @example(triangle((0, -3), (Fraction(-11, 4), Fraction(10, 4)), (3, Fraction(5, 2))))
    @example(triangle((Fraction(-5, 2), 1), (Fraction(7, 3), 1), (0, 1)))
    def test_every_vertex_order_matches_row_loop(self, tri):
        expected = rowscan_loop(tri)
        for order in permutations(tri.vertices):
            assert count_points_rowscan(RationalTriangle(order)) == expected

    @given(integral_triangles(coords))
    @settings(max_examples=100)
    def test_unimodular_shear(self, tri):
        sheared = triangle(*((v.x + v.y, v.y) for v in tri.vertices))
        reflected = triangle(*((-v.x, v.y) for v in tri.vertices))
        swapped = triangle(*((v.y, v.x) for v in tri.vertices))
        expected = count_points_rowscan(tri)
        assert count_points_rowscan(sheared) == expected
        assert count_points_rowscan(reflected) == expected
        assert count_points_rowscan(swapped) == expected


class TestContainsPoint:
    def test_vertices_and_interior(self):
        tri = triangle((0, 0), (-5, 0), (-15, 20))
        for v in tri.vertices:
            assert contains_point(tri, v)
        assert contains_point(tri, point(-5, 4))
        assert not contains_point(tri, point(1, 0))
        assert not contains_point(tri, point(0, 1))

    def test_degenerate_segment(self):
        tri = triangle((0, 0), (4, 4), (2, 2))
        assert contains_point(tri, point(3, 3))
        assert contains_point(tri, point(Fraction(1, 2), Fraction(1, 2)))
        assert not contains_point(tri, point(5, 5))
        assert not contains_point(tri, point(1, 2))
