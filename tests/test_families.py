"""One-parameter surface sequences solving alpha*b - beta*(-p) = tau."""

import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import scan_family
from effcone import BRANCHES, FamilyRequest, branch_interval, solve_family


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

    @pytest.mark.parametrize("fields, message", [
        ((True, 3, 1, 1), "alpha must be an int, got True"),
        ((1, 3.0, 1, 1), "beta must be an int, got 3.0"),
        ((1, 3, True, 1), "tau must be an int, got True"),
        ((1, 3, 1, True), "count must be an int, got True"),
        ((1, 3, 1, 2.0), "count must be an int, got 2.0"),
        ((True, 3, 1, True), "alpha must be an int, got True"),
    ])
    def test_fields_must_be_ints(self, fields, message):
        with pytest.raises(TypeError) as excinfo:
            FamilyRequest(*fields)
        assert str(excinfo.value) == message

    def test_endpoints_are_stored_as_fractions(self):
        req = FamilyRequest(1, 3, 1, 2, interval=("5/2", 3))
        assert req.interval == (Fraction(5, 2), Fraction(3))
        assert all(type(end) is Fraction for end in req.interval)
        # Compared as numbers, not as text ("5/2" > "11/4").
        assert FamilyRequest(1, 3, 1, 1, interval=("5/2", "11/4")).interval == (
            Fraction(5, 2), Fraction(11, 4))
        assert bc_pairs(FamilyRequest(1, 3, 1, 2, interval=("3", "36/11"))) == [(13, 23), (19, 33)]

    @pytest.mark.parametrize("interval", [(2.5, 3), (Fraction(5, 2), 3.0)])
    def test_float_endpoint_refused(self, interval):
        with pytest.raises(TypeError, match="refusing a float interval endpoint"):
            FamilyRequest(1, 3, 1, 1, interval=interval)


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
    def test_unreachable_filter_raises(self):
        req = FamilyRequest(1, 3, 1, 1, interval=(Fraction(100), Fraction(101)))
        with pytest.raises(ValueError) as excinfo:
            solve_family(req)
        assert str(excinfo.value) == (
            "only 0/1 surfaces for alpha=1, beta=3, tau=1, "
            "interval=[100, 101]"
        )

    def test_unfiltered_exhaustion_names_no_interval(self):
        # beta/alpha = 2/1 with tau = -1 gives b - 2m = -1 < 1 at every index.
        with pytest.raises(ValueError) as excinfo:
            solve_family(FamilyRequest(1, 2, -1, 1))
        assert str(excinfo.value) == "only 0/1 surfaces for alpha=1, beta=2, tau=-1, interval=None"

    def test_finite_filter_names_its_members(self):
        # 3 + 1/m lies in [13/4, 10/3] for m = 3 and 4 only, and b = 3m + 1
        # is odd for m = 4 alone: the filter admits P(4,13,23).
        req = FamilyRequest(1, 3, 1, 5, interval=(Fraction(13, 4), Fraction(10, 3)))
        with pytest.raises(ValueError) as excinfo:
            solve_family(req)
        assert str(excinfo.value) == (
            "only 1/5 surfaces for alpha=1, beta=3, tau=1, "
            "interval=[13/4, 10/3]"
        )


class TestNoWindow:
    """The members are not drawn from a window of indices: the progression
    has no end, and a filter may keep only members far along it."""

    def test_narrow_endpoint_filter(self):
        # 3 - 1/m >= 3 - 1/10^7 needs m >= 10^7, an index past 3*10^6.
        req = FamilyRequest(1, 3, -1, 2, interval=(Fraction(29999999, 10**7), Fraction(3)))
        start = time.perf_counter()
        members = solve_family(req)
        elapsed = time.perf_counter() - start
        assert [(s.b, s.c) for s in members] == [(29999999, 49999997), (30000005, 50000007)]
        assert elapsed < 0.01


@st.composite
def filtered_requests(draw):
    alpha = draw(st.integers(1, 30))
    beta = draw(st.integers(1, 80))
    assume(gcd(alpha, beta) == 1)
    tau = draw(st.sampled_from((1, -1)))
    kind = draw(st.sampled_from(("none", "branch", "point", "target", "low", "unreachable")))
    interval = None
    if kind == "branch":
        interval = branch_interval(draw(st.integers(1, 7)), draw(st.sampled_from(BRANCHES)))
    elif kind == "point":
        # One progression member's abscissa (if its m is positive), so the
        # degenerate filter can keep a member.
        b0 = pow(alpha, -1, beta) * tau
        m0 = (alpha * b0 - tau) // beta
        t = draw(st.integers(0, 40))
        m = m0 + alpha * t
        point = Fraction(b0 + beta * t, m) if m > 0 else Fraction(5, 2)
        interval = (point, point)
    elif kind == "target":
        # beta/alpha as one endpoint: a filter row is then the same at every
        # index, alpha*b - beta*m = tau, which keeps all of them or none.
        width = draw(st.fractions(0, 2, max_denominator=12))
        target = Fraction(beta, alpha)
        interval = draw(st.sampled_from(((target, target + width), (target - width, target))))
    elif kind == "low":
        lo = draw(st.fractions(-3, 2, max_denominator=12).filter(lambda x: x < 2))
        interval = (lo, lo + draw(st.fractions(0, 4, max_denominator=12)))
    elif kind == "unreachable":
        lo = Fraction(beta, alpha) + draw(st.fractions(0, 2, max_denominator=12).filter(bool))
        interval = (lo, lo + draw(st.fractions(0, 2, max_denominator=12)))
    return FamilyRequest(alpha, beta, tau, draw(st.integers(1, 40)), interval=interval)


class TestAgainstScan:
    """``solve_family`` works out the valid progression indices; the scan
    over every index it replaced must give the same members and errors."""

    # Every finite set the strategy draws lies within this many indices: a
    # member is 1/(alpha*m) from beta/alpha, so a filter that keeps beta/alpha's
    # tail out admits only m up to its nearer endpoint's denominator (at most
    # 479 for the branch intervals with k <= 7).
    SCAN_BOUND = 3000

    @given(filtered_requests())
    @settings(max_examples=400, deadline=None)
    @example(FamilyRequest(1, 3, 1, 5, interval=(Fraction(5, 2), Fraction(11, 4))))
    # beta = 2*alpha: b - 2m = tau is the same at every index (all or none).
    @example(FamilyRequest(1, 2, 1, 3))
    @example(FamilyRequest(1, 2, -1, 3))
    # An endpoint at the target 3 on the side the members never reach.
    @example(FamilyRequest(1, 3, -1, 2, interval=branch_interval(1, "I'+")))
    @example(FamilyRequest(1, 3, 1, 2, interval=branch_interval(1, "I'-")))
    def test_matches_the_scan(self, req):
        scanned = [(s.b, s.c) for s in scan_family(req, self.SCAN_BOUND)]
        if len(scanned) == req.count:
            assert bc_pairs(req) == scanned
        else:
            with pytest.raises(ValueError) as excinfo:
                solve_family(req)
            assert str(excinfo.value).startswith(f"only {len(scanned)}/{req.count} surfaces ")

    def test_unreachable_filter_at_the_default_bound(self):
        # Every member of 3 + 1/m lies above 11/4, which is known without
        # visiting any index.
        req = FamilyRequest(1, 3, 1, 5, interval=(Fraction(5, 2), Fraction(11, 4)))
        with pytest.raises(ValueError) as excinfo:
            solve_family(req)
        assert str(excinfo.value) == (
            "only 0/5 surfaces for alpha=1, beta=3, "
            "tau=1, interval=[5/2, 11/4]"
        )
