"""One-parameter surface sequences solving alpha*b - beta*(-p) = tau."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import effcone.families
from effcone import FamilyRequest, branch_interval, solve_family


def bc_pairs(req):
    return [(s.b, s.c) for s in solve_family(req)]


class TestFrozenSequences:
    def test_target_three(self):
        assert bc_pairs(FamilyRequest(1, 3, 1, 2)) == [(7, 13), (13, 23)]
        filtered = FamilyRequest(1, 3, 1, 2, interval=branch_interval(1, "I'+"))
        assert bc_pairs(filtered) == [(13, 23), (19, 33)]

    def test_target_five_halves(self):
        assert bc_pairs(FamilyRequest(2, 5, 1, 1)) == [(13, 19)]
        assert [b for b, _ in bc_pairs(FamilyRequest(2, 5, -1, 6))] == [
            7, 17, 27, 37, 47, 57,
        ]

    def test_target_four(self):
        assert bc_pairs(FamilyRequest(1, 4, 1, 4)) == [
            (5, 11), (9, 19), (13, 27), (17, 35),
        ]
        assert bc_pairs(FamilyRequest(1, 4, -1, 5)) == [
            (7, 13), (11, 21), (15, 29), (19, 37), (23, 45),
        ]

    def test_deep_level_targets(self):
        assert bc_pairs(FamilyRequest(23, 64, 1, 2)) == [(39, 61), (103, 161)]
        assert bc_pairs(FamilyRequest(11, 36, 1, 3)) == [(23, 41), (59, 105), (95, 169)]
        assert bc_pairs(FamilyRequest(59, 144, 1, 2)) == [(83, 113), (227, 309)]
        assert bc_pairs(FamilyRequest(11, 36, -1, 2)) == [(13, 23), (49, 87)]


class TestRequestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            FamilyRequest(2, 4, 1, 1)  # not coprime
        with pytest.raises(ValueError):
            FamilyRequest(0, 3, 1, 1)
        with pytest.raises(ValueError):
            FamilyRequest(1, 3, 0, 1)
        with pytest.raises(ValueError):
            FamilyRequest(1, 3, 1, 0)
        with pytest.raises(ValueError):
            FamilyRequest(1, 3, 1, 1, interval=(Fraction(3), Fraction(2)))


class TestSequenceProperties:
    REQUESTS = [
        FamilyRequest(1, 3, 1, 6),
        FamilyRequest(1, 3, -1, 6),
        FamilyRequest(2, 5, 1, 6),
        FamilyRequest(2, 5, -1, 6),
        FamilyRequest(11, 36, 1, 4),
        FamilyRequest(11, 36, -1, 4),
        FamilyRequest(1, 4, 1, 6),
    ]

    @pytest.mark.parametrize("req", REQUESTS, ids=lambda r: f"{r.alpha}-{r.beta}-{r.tau:+d}")
    def test_divisibility_identity(self, req):
        for surface in solve_family(req):
            assert req.alpha * surface.b - req.beta * (-surface.p) == req.tau

    @pytest.mark.parametrize("req", REQUESTS, ids=lambda r: f"{r.alpha}-{r.beta}-{r.tau:+d}")
    def test_monotone_convergence(self, req):
        surfaces = solve_family(req)
        target = Fraction(req.beta, req.alpha)
        ratios = [s.bp_ratio for s in surfaces]
        gaps = [abs(r - target) for r in ratios]
        for r in ratios:
            # tau is the side: ratio - target = tau/(alpha*m) has tau's sign.
            assert (r - target > 0) == (req.tau == 1)
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert all(
            (x > y) == (req.tau == 1) for x, y in zip(ratios, ratios[1:])
        )

    def test_valid_weights(self):
        for surface in solve_family(FamilyRequest(3, 10, 1, 8)):
            assert surface.a == 4 and surface.b % 2 == 1 and surface.b >= 5
            assert surface.c > surface.b and surface.p < 0

    def test_interval_filter_applies(self):
        lo, hi = branch_interval(2, "I''-")
        req = FamilyRequest(3, 8, -1, 3, interval=(lo, hi))
        for surface in solve_family(req):
            assert lo <= surface.bp_ratio <= hi


def enumerate_family(req):
    """First req.count (b, c) solving alpha*b - beta*m = tau, by scanning b."""
    out = []
    b = 5
    while len(out) < req.count:
        if b % 2 == 1 and (req.alpha * b - req.tau) % req.beta == 0:
            m = (req.alpha * b - req.tau) // req.beta
            c = 3 * b - 4 * m
            if m >= 1 and c > b:
                out.append((b, c))
        b += 1
    return out


class TestAgainstEnumeration:
    @given(
        st.integers(1, 12), st.integers(1, 60), st.sampled_from((1, -1)),
        st.integers(1, 5),
    )
    @settings(max_examples=150)
    def test_matches_scan_over_b(self, alpha, beta, tau, count):
        # beta/alpha > 2 keeps the tail of every progression valid (c > b).
        assume(gcd(alpha, beta) == 1 and beta > 2 * alpha)
        req = FamilyRequest(alpha, beta, tau, count)
        assert bc_pairs(req) == enumerate_family(req)


class TestExhaustion:
    def test_unreachable_filter_raises(self, monkeypatch):
        monkeypatch.setattr(effcone.families, "SCAN_LIMIT", 500)
        req = FamilyRequest(1, 3, 1, 1, interval=(Fraction(100), Fraction(101)))
        with pytest.raises(ValueError, match="scan bound 500 exhausted"):
            solve_family(req)
