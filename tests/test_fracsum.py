"""Fractional-part sums, one-step reduction errors, and reduction chains."""

import inspect
import re
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from effcone import (
    FamilyRequest,
    ReductionChain,
    calibrated_delta,
    ceil_sum,
    deficit,
    floor_sum,
    frac_sum,
    full_sum,
    make_surface,
    paper_delta,
    reduce_chain,
    solve_family,
    standard_chain,
    step_error,
    step_error_bounds,
)

from effcone import fracsum
from effcone.fracsum import DELTA_POLICIES, _residue_sum, _step_error_base

from conftest import forced_jump, frac_sum_direct

coprime_pairs = st.tuples(st.integers(1, 60), st.integers(1, 60)).filter(
    lambda ab: gcd(*ab) == 1
)


class TestFracSum:
    def test_frozen(self):
        assert frac_sum(3, 4, 2) == Fraction(5, 4)
        assert frac_sum(2, 5, 2) == Fraction(6, 5)
        assert frac_sum(1, 1, 5) == 0
        assert frac_sum(-2, 5, 3) == Fraction(3, 5) + Fraction(1, 5) + Fraction(4, 5)

    @given(st.integers(-30, 30), st.integers(1, 30), st.integers(0, 40))
    @settings(max_examples=60)
    def test_direct_definition(self, alpha, beta, u):
        total = sum(Fraction((alpha * j) % beta, beta) for j in range(u + 1))
        assert frac_sum(alpha, beta, u) == total

    @given(
        st.one_of(st.integers(-10**4, -1), st.integers(-10**15, 10**15)),
        st.one_of(st.integers(1, 60), st.integers(1, 10**12)),
        st.integers(0, 600),
    )
    @settings(max_examples=200)
    @example(-7, 5, 12)  # negative alpha, u past several periods
    @example(10**15 + 1, 10**12, 0)
    def test_direct_oracle(self, alpha, beta, u):
        assert frac_sum(alpha, beta, u) == frac_sum_direct(alpha, beta, u)

    @given(
        st.one_of(st.integers(-10**4, -1), st.integers(-10**15, -1)),
        st.one_of(st.integers(1, 60), st.integers(1, 10**12)),
        st.integers(0, 600),
    )
    @settings(max_examples=200)
    @example(-7, 5, 12)
    @example(-(10**4), 9999, 600)  # alpha = -1 mod beta
    @example(-1, 1, 0)
    def test_residue_sum_with_negative_alpha(self, alpha, beta, u):
        # The integer core of frac_sum, which the Ehrhart closed forms call.
        residues = _residue_sum(alpha, beta, u)
        assert type(residues) is int
        assert Fraction(residues, beta) == frac_sum_direct(alpha, beta, u)

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError, match="beta >= 1"):
            frac_sum(1, 0, 3)
        with pytest.raises(ValueError, match="u >= 0"):
            frac_sum(1, 3, -1)


class TestDeficit:
    def test_frozen(self):
        assert deficit(2, 0, 1) == Fraction(1, 4)
        assert deficit(5, 1, 2) == Fraction(2, 5)
        assert deficit(5, 4, 3) == 0
        assert deficit(1, 0, 1) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            deficit(4, 0, 2)  # not coprime
        with pytest.raises(ValueError):
            deficit(5, 5, 2)  # u out of range
        with pytest.raises(ValueError):
            deficit(0, 0, 1)

    @given(coprime_pairs)
    @settings(max_examples=40)
    def test_full_period_vanishes(self, pair):
        alpha, beta = pair
        assert deficit(beta, beta - 1, alpha) == 0


class TestClosedSums:
    def test_frozen(self):
        assert floor_sum(3, 5) == 4
        assert ceil_sum(3, 5) == 8
        assert floor_sum(1, 2) == 0
        assert ceil_sum(1, 2) == 1

    def test_against_direct_enumeration(self):
        for beta in range(1, 61):
            for alpha in range(1, 61):
                if gcd(alpha, beta) != 1:
                    continue
                floors = sum((alpha * k) // beta for k in range(beta))
                ceils = sum(-((-alpha * k) // beta) for k in range(beta))
                assert floor_sum(alpha, beta) == floors
                assert ceil_sum(alpha, beta) == ceils
                assert ceil_sum(alpha, beta) - floor_sum(alpha, beta) == beta - 1

    def test_validation(self):
        with pytest.raises(ValueError):
            floor_sum(2, 4)
        with pytest.raises(ValueError):
            ceil_sum(0, 3)

    def test_full_sum_frozen(self):
        assert full_sum(3, 5, 2, -1) == Fraction(4, 5)
        assert full_sum(2, 5, 2, 1) == Fraction(6, 5)

    def test_full_sum_matches_direct(self):
        for beta0 in range(2, 40):
            for alpha0 in range(1, beta0):
                if gcd(alpha0, beta0) != 1:
                    continue
                for beta1 in range(1, beta0):
                    for sigma in (1, -1):
                        if (sigma + beta1 * alpha0) % beta0 != 0:
                            continue
                        alpha1 = (sigma + beta1 * alpha0) // beta0
                        if alpha1 < 1:
                            continue
                        assert full_sum(alpha0, beta0, beta1, sigma) == frac_sum(
                            alpha0, beta0, beta1
                        )

    def test_full_sum_validation(self):
        with pytest.raises(ValueError):
            full_sum(2, 5, 2, -1)  # no integer partner
        with pytest.raises(ValueError):
            full_sum(1, 5, 1, -1)  # partner would be zero
        with pytest.raises(ValueError):
            full_sum(3, 5, 5, 1)  # beta1 not below beta0
        with pytest.raises(ValueError):
            full_sum(3, 5, 2, 2)  # sigma not +-1


class TestStepError:
    def test_frozen(self):
        assert step_error(1, 0, 1, 5, 2) == Fraction(2, 5)
        assert step_error(-1, 0, 1, 5, 2) == Fraction(1, 5)
        assert step_error(1, 0, 0, 7, 3) == Fraction(2, 21)

    def test_policies_disagree_only_by_jump(self):
        # (sigma, t, u, beta0, beta1) = (-1, 2, 0, 5, 2): the literal jump
        # condition fires (3 <= 4) but the exact identity needs no jump.
        assert paper_delta(-1, 2, 0, 5, 2) == 1
        assert calibrated_delta(-1, 2, 0, 5, 2) == 0
        assert step_error(-1, 2, 0, 5, 2, delta="paper") == Fraction(3, 4)
        assert step_error(-1, 2, 0, 5, 2, delta="calibrated") == Fraction(-1, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            step_error(2, 0, 0, 5, 2)
        with pytest.raises(ValueError):
            step_error(1, 0, 2, 5, 2)  # u >= beta1
        with pytest.raises(ValueError):
            step_error(1, -1, 0, 5, 2)
        with pytest.raises(ValueError):
            step_error(1, 0, 0, 5, 2, delta="guess")

    @pytest.mark.parametrize(
        "args, message",
        [
            ((0, 0, 0, 5, 2), "sigma must be +-1, got 0"),
            ((1, 0, 0, 2, 3), "got u = 0, beta1 = 3, beta0 = 2"),  # beta1 > beta0
            ((-1, 0, 2, 5, 2), "got u = 2, beta1 = 2, beta0 = 5"),  # u >= beta1
            ((-1, 0, 0, 5, 0), "got u = 0, beta1 = 0, beta0 = 5"),
        ],
    )
    def test_paper_rejects_out_of_range(self, args, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            paper_delta(*args)

    def test_each_policy_checks_the_range_once(self, monkeypatch):
        calls, check = [], fracsum._check_step
        monkeypatch.setattr(fracsum, "_check_step", lambda *args: calls.append(args) or check(*args))
        for policy in DELTA_POLICIES:
            calls.clear()
            step_error(-1, 0, 1, 5, 2, delta=policy)
            assert calls == [(-1, 0, 1, 5, 2)], policy
        # A bad range is refused before an unknown policy.
        with pytest.raises(ValueError, match=re.escape("got u = 2, beta1 = 2")):
            step_error(1, 0, 2, 5, 2, delta="guess")
        with pytest.raises(TypeError, match="sigma must be an int"):
            step_error(True, 0, 1, 5, 2, delta="guess")
        with pytest.raises(ValueError, match="unknown delta policy 'guess'"):
            step_error(1, 0, 1, 5, 2, delta="guess")

    def test_calibrated_requires_in_range_start(self):
        with pytest.raises(ValueError):
            calibrated_delta(-1, 3, 0, 5, 2)  # beta1*t + u = 6 >= beta0
        # The literal condition has no such restriction.
        assert paper_delta(-1, 3, 0, 5, 2) == 1

    @pytest.mark.parametrize(
        "args, message",
        [
            ((-3, 2, 0, 4, 1), "sigma must be +-1, got -3"),
            ((0, 0, 0, 5, 2), "sigma must be +-1, got 0"),
            ((1, -1, 0, 5, 2), "require t >= 0, got -1"),
            ((1, 0, 0, 2, 3), "got u = 0, beta1 = 3, beta0 = 2"),  # beta1 > beta0
            ((1, 0, 0, 4, 4), "got u = 0, beta1 = 4, beta0 = 4"),
            ((1, 0, 2, 5, 2), "got u = 2, beta1 = 2, beta0 = 5"),  # u >= beta1
            ((1, 0, -1, 5, 2), "got u = -1, beta1 = 2, beta0 = 5"),
            ((1, 0, 0, 5, 0), "got u = 0, beta1 = 0, beta0 = 5"),
            ((1, 0, 0, 6, 4), "got gcd(6, 4) = 2"),
            ((-1, 1, 1, 9, 6), "got gcd(9, 6) = 3"),
        ],
    )
    def test_calibrated_rejects_out_of_range(self, args, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            calibrated_delta(*args)

    def test_calibrated_defined_exactly_on_the_step_range(self):
        # Every integer input in a box: a value iff the step is in range.
        for sigma, t, u, beta0, beta1 in product(
            range(-2, 3), range(-1, 4), range(-1, 6), range(0, 9), range(0, 9)
        ):
            valid = (
                sigma in (-1, 1) and t >= 0 and 0 <= u < beta1 < beta0
                and gcd(beta0, beta1) == 1 and beta1 * t + u < beta0
            )
            if valid:
                assert calibrated_delta(sigma, t, u, beta0, beta1) == 0
            else:
                with pytest.raises(ValueError):
                    calibrated_delta(sigma, t, u, beta0, beta1)

    def test_calibrated_matches_deficit_difference(self):
        # The jump is exactly what the one-step identity forces, for the
        # canonical partner and therefore for every alpha0 in its class.
        checked = 0
        for beta0 in range(3, 26):
            for beta1 in range(2, beta0):
                if gcd(beta0, beta1) != 1:
                    continue
                for sigma in (1, -1):
                    alpha0 = next(
                        a
                        for a in range(1, 2 * beta0)
                        if (sigma + beta1 * a) % beta0 == 0
                        and (sigma + beta1 * a) // beta0 >= 1
                    )
                    alpha1 = (sigma + beta1 * alpha0) // beta0
                    for u0 in range(beta0):
                        t, u = divmod(u0, beta1)
                        expected = deficit(beta0, u0, alpha0) - deficit(
                            beta1, u, alpha1
                        )
                        got = step_error(sigma, t, u, beta0, beta1, delta="calibrated")
                        assert got == expected
                        assert calibrated_delta(sigma, t, u, beta0, beta1) == 0
                        checked += 1
        assert checked > 2000


@st.composite
def partner_steps(draw):
    """(sigma, t, u, beta0, beta1, alpha0): any alpha0 coprime to beta0, the
    partner beta1 < beta0 its +-1 relation fixes, and any u0 < beta0."""
    beta0 = draw(st.one_of(st.integers(2, 60), st.integers(2, 10**18)))
    alpha0 = draw(st.integers(-10**20, 10**20).filter(lambda a: gcd(a, beta0) == 1))
    sigma = draw(st.sampled_from((1, -1)))
    beta1 = (-sigma * pow(alpha0, -1, beta0)) % beta0
    u0 = draw(st.one_of(
        st.integers(0, beta0 - 1), st.sampled_from((0, beta0 - beta1, beta0 - 1)),
    ))
    t, u = divmod(u0, beta1)
    return sigma, t, u, beta0, beta1, alpha0


class TestCalibratedJumpTheorem:
    """The jump is 0 for every partner pair (the fracsum module's theorem),
    checked against the two-deficit oracle away from any exhaustive grid."""

    @given(partner_steps())
    @settings(max_examples=300)
    @example((-1, 2, 0, 5, 2, 3))  # the published jump fires here; the true one is 0
    @example((1, 4, 0, 5, 1, 4))  # beta1 = 1: every u' is 0
    @example((-1, 4, 0, 5, 1, 1))  # beta1 = 1, sigma = -1, alpha1 = 0
    @example((1, 1, 289156626506024098, 10**18 + 9, 710843373493975910, -(10**19 + 7)))
    def test_identity_without_jump(self, step):
        sigma, t, u, beta0, beta1, alpha0 = step
        alpha1 = (sigma + beta1 * alpha0) // beta0
        assert forced_jump(sigma, t, u, beta0, beta1, alpha0) == 0
        assert calibrated_delta(sigma, t, u, beta0, beta1) == 0
        assert deficit(beta0, beta1 * t + u, alpha0) == deficit(beta1, u, alpha1) + step_error(
            sigma, t, u, beta0, beta1, delta="calibrated"
        )

    def test_oracle_on_canonical_partners(self):
        # The canonical partner the library used to back-solve the jump.
        for beta0 in range(2, 40):
            for beta1 in range(1, beta0):
                if gcd(beta0, beta1) != 1:
                    continue
                for sigma, u0 in product((1, -1), range(beta0)):
                    t, u = divmod(u0, beta1)
                    assert forced_jump(sigma, t, u, beta0, beta1) == 0


class TestAlgebraicForms:
    """The two published single-variable forms of the step error (v = u + beta1*t)."""

    def grid(self, max_beta0):
        for beta0 in range(3, max_beta0 + 1):
            for beta1 in range(2, beta0):
                if gcd(beta0, beta1) != 1:
                    continue
                for u in range(beta1):
                    for t in range((beta0 - 1 - u) // beta1 + 1):
                        yield beta0, beta1, t, u

    def test_v_forms(self):
        for beta0, beta1, t, u in self.grid(16):
            v = u + beta1 * t
            neg = -Fraction((v + 1) * (v + beta1 - beta0), 2 * beta0 * beta1)
            neg += paper_delta(-1, t, u, beta0, beta1)
            pos = Fraction((v + 1) * (v - beta0 - beta1), 2 * beta0 * beta1)
            pos += Fraction(u + 1, beta1)
            assert step_error(-1, t, u, beta0, beta1, delta="paper") == neg
            assert step_error(1, t, u, beta0, beta1, delta="paper") == pos

    def test_monotone_in_v(self):
        # sigma = -1: a function of v alone; rises up to (beta0-beta1-1)/2
        # then falls, jump pairs exempt.  sigma = +1 (u fixed, t stepping):
        # falls up to midpoint (beta0+beta1-1)/2 then rises.
        for beta0 in range(3, 17):
            for beta1 in range(2, beta0):
                if gcd(beta0, beta1) != 1:
                    continue
                peak = Fraction(beta0 - beta1 - 1, 2)
                for v in range(beta0 - 2):
                    t0, u0 = divmod(v, beta1)
                    t1, u1 = divmod(v + 1, beta1)
                    if paper_delta(-1, t0, u0, beta0, beta1) != paper_delta(
                        -1, t1, u1, beta0, beta1
                    ):
                        continue
                    diff = step_error(-1, t1, u1, beta0, beta1, delta="paper") - step_error(
                        -1, t0, u0, beta0, beta1, delta="paper"
                    )
                    gap = peak - (v + Fraction(1, 2))
                    assert (diff > 0) == (gap > 0) and (diff == 0) == (gap == 0)
                trough = Fraction(beta0 + beta1 - 1, 2)
                for u in range(beta1):
                    for t in range((beta0 - 1 - u) // beta1):
                        v = u + beta1 * t
                        diff = step_error(1, t + 1, u, beta0, beta1, delta="paper") - step_error(
                            1, t, u, beta0, beta1, delta="paper"
                        )
                        mid = v + Fraction(beta1, 2)
                        assert (diff < 0) == (mid < trough) and (diff == 0) == (
                            mid == trough
                        )


class TestBounds:
    def test_frozen(self):
        pos = step_error_bounds(1, 5, 2)
        assert (pos.lower, pos.upper_small, pos.upper_large) == (
            Fraction(-3, 10), Fraction(2, 5), Fraction(2, 5),
        )
        neg = step_error_bounds(-1, 5, 2)
        assert (neg.lower, neg.upper_small, neg.upper_large) == (
            Fraction(3, 20), Fraction(3, 20), Fraction(1),
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            step_error_bounds(0, 5, 2)
        with pytest.raises(ValueError):
            step_error_bounds(1, 2, 2)

    def test_true_bounds_small_grid(self):
        # Lower bounds, the sigma=+1 upper, and the sigma=-1 out-of-regime
        # upper all hold; the sigma=-1 small-regime upper does not (below).
        for beta0 in range(3, 17):
            for beta1 in range(2, beta0):
                if gcd(beta0, beta1) != 1:
                    continue
                for sigma in (1, -1):
                    bounds = step_error_bounds(sigma, beta0, beta1)
                    for u in range(beta1):
                        for t in range((beta0 - 1 - u) // beta1 + 1):
                            err = step_error(sigma, t, u, beta0, beta1, delta="paper")
                            assert err >= bounds.lower
                            if sigma == 1:
                                assert err <= bounds.upper_large
                            elif u + beta1 * t >= beta0 - beta1:
                                assert err <= bounds.upper_large

    def test_small_regime_upper_has_counterexamples(self):
        # The published in-regime sigma=-1 upper is falsified; two witnesses.
        assert step_error(-1, 0, 0, 3, 2, delta="paper") == Fraction(1, 12)
        assert step_error_bounds(-1, 3, 2).upper_small == 0
        assert step_error(-1, 0, 1, 5, 2, delta="paper") == Fraction(1, 5)
        assert step_error_bounds(-1, 5, 2).upper_small == Fraction(3, 20)
        # Both sit inside the claimed regime u + beta1*t < beta0 - beta1.
        for t, u, beta0, beta1 in ((0, 0, 3, 2), (0, 1, 5, 2)):
            assert u + beta1 * t < beta0 - beta1


class TestStepErrorAlgebra:
    """The step error's algebra for every (t, u, beta0, beta1), proved with
    sympy: the last step of the ``fracsum`` theorem, and the sigma = -1
    small-regime form, excess and sharp constant that ``step_error_bounds``
    states.  Each symbolic form is tied to the library at beta0 <= 30."""

    @staticmethod
    def error(sigma, t, u, beta0, beta1):
        """The Delta-free step error as ``_step_error_base`` writes it, for
        sympy symbols or Fractions."""
        return ((u + 1) * (sigma * u + beta0 - beta1) / (2 * beta0 * beta1)
                + sigma * t * (beta1 * (t - sigma) + 2 * u + 1 - beta0) / (2 * beta0))

    @staticmethod
    def proof_form(sigma, t, u, beta0, beta1):
        """2*beta0*beta1 times the deficit difference, as the theorem's proof
        sums it."""
        return ((u + 1) * (sigma * u + beta0 - beta1)
                + t * beta1 * (sigma * beta1 * t + sigma * (2 * u + 1) - beta1 + beta0
                               - 2 * beta0 * int(sigma == 1)))

    @staticmethod
    def steps(max_beta0):
        """(beta0, beta1, t, u) of every step with 2 <= beta1 < beta0 <= max_beta0."""
        for beta0 in range(3, max_beta0 + 1):
            for beta1 in range(2, beta0):
                if gcd(beta0, beta1) == 1:
                    for v in range(beta0):
                        yield (beta0, beta1, *divmod(v, beta1))

    def test_last_step_of_the_theorem(self):
        sympy = pytest.importorskip("sympy")
        t, u, beta0, beta1 = sympy.symbols("t u beta0 beta1")
        for sigma in (1, -1):
            twice = 2 * beta0 * beta1 * self.error(sigma, t, u, beta0, beta1)
            assert sympy.expand(sympy.cancel(twice) - self.proof_form(sigma, t, u, beta0, beta1)) == 0

    def test_last_step_is_the_library_step_error(self):
        for beta0, beta1, t, u in self.steps(30):
            for sigma in (1, -1):
                error = step_error(sigma, t, u, beta0, beta1, delta="calibrated")
                assert error == _step_error_base(sigma, t, u, beta0, beta1)
                assert error == self.error(sigma, *map(Fraction, (t, u, beta0, beta1)))
                assert error * 2 * beta0 * beta1 == self.proof_form(sigma, t, u, beta0, beta1)

    def test_small_regime_form_and_excess(self):
        # With d = beta0 - beta1 and v = u + beta1*t, the sigma = -1 error is
        # a function of v alone, and its excess over the published constant
        # (d+3)(d-1)/(8*beta0*beta1) is (4 - (d-1-2v)^2)/(8*beta0*beta1).
        sympy = pytest.importorskip("sympy")
        t, v, beta0, beta1, x = sympy.symbols("t v beta0 beta1 x")
        d = beta0 - beta1
        error = self.error(-1, t, v - beta1 * t, beta0, beta1)
        form = (v + 1) * (d - v) / (2 * beta0 * beta1)
        assert sympy.cancel(error - form) == 0
        excess = form - (d + 3) * (d - 1) / (8 * beta0 * beta1)
        assert sympy.cancel(excess - (4 - (d - 1 - 2 * v) ** 2) / (8 * beta0 * beta1)) == 0
        # d - 1 - 2v is an integer x, and 4 - x^2 > 0 exactly for |x| <= 1.
        positive = sympy.solveset(4 - x**2 > 0, x, sympy.S.Reals)
        assert sympy.Intersection(positive, sympy.S.Integers) == sympy.Range(-1, 2)

    def test_small_regime_sharp_constant(self):
        # 4(v+1)(d-v) = (d+1)^2 - (d-1-2v)^2, so (v+1)(d-v) <= (d+1)^2/4, and
        # being an integer, <= floor((d+1)^2/4).  At v = floor((d-1)/2) it is
        # ((d+1)^2 - r)/4 with r = 0 for d = 2s+1 and r = 1 for d = 2s: an
        # integer polynomial in s that is floor((d+1)^2/4), as 0 <= r < 4.
        sympy = pytest.importorskip("sympy")
        d, v, s = sympy.symbols("d v s")
        assert sympy.expand(4 * (v + 1) * (d - v) - ((d + 1) ** 2 - (d - 1 - 2 * v) ** 2)) == 0
        for d_s, v_s, r in ((2 * s + 1, s, 0), (2 * s, s - 1, 1)):
            peak = ((d_s + 1) ** 2 - r) / 4
            assert sympy.expand((v_s + 1) * (d_s - v_s) - peak) == 0
            assert all(coeff.is_Integer for coeff in sympy.Poly(peak, s).all_coeffs())

    def test_small_regime_is_the_library_bound(self):
        by_pair = {}
        for beta0, beta1, t, u in self.steps(30):
            d, v = beta0 - beta1, u + beta1 * t
            if v >= d:
                continue
            error = step_error(-1, t, u, beta0, beta1, delta="paper")
            scale = 2 * beta0 * beta1
            assert error == Fraction((v + 1) * (d - v), scale)
            published = step_error_bounds(-1, beta0, beta1).upper_small
            assert published == Fraction((d + 3) * (d - 1), 4 * scale)
            assert error - published == Fraction(4 - (d - 1 - 2 * v) ** 2, 4 * scale)
            by_pair.setdefault((beta0, beta1), {})[v] = error
        for (beta0, beta1), errors in by_pair.items():
            d = beta0 - beta1
            sharp = Fraction((d + 1) ** 2 // 4, 2 * beta0 * beta1)
            assert max(errors.values()) == sharp == errors[(d - 1) // 2], (beta0, beta1)


class TestReductionChain:
    def test_final_link_may_repeat_alpha(self):
        chain = ReductionChain(pairs=((1, 3), (1, 2)))
        assert chain.pairs[-1] == (1, 2)

    def test_non_final_alpha_repeat_rejected(self):
        with pytest.raises(ValueError, match="strictly decrease"):
            ReductionChain(pairs=((1, 4), (1, 3), (1, 2)))

    def test_beta_must_strictly_decrease(self):
        with pytest.raises(ValueError, match="strictly decrease"):
            ReductionChain(pairs=((3, 5), (2, 5)))

    def test_determinants_checked(self):
        with pytest.raises(ValueError, match="link 1 determinant 3 is not"):
            ReductionChain(pairs=((5, 13), (1, 2)))
        with pytest.raises(ValueError, match="link 2 determinant -3 is not"):
            ReductionChain(pairs=((7, 24), (2, 7), (1, 5)))

    def test_sigmas_are_the_link_determinants(self):
        assert list(inspect.signature(ReductionChain).parameters) == ["pairs"]
        assert ReductionChain(pairs=((2, 5),)).sigmas == ()
        assert ReductionChain(pairs=((3, 5), (1, 2))).sigmas == (-1,)
        assert ReductionChain(pairs=((3, 7), (1, 2))).sigmas == (1,)
        assert ReductionChain(pairs=((7, 24), (2, 7), (1, 3))).sigmas == (-1, 1)

    def test_head_must_be_coprime(self):
        with pytest.raises(ValueError, match="coprime"):
            ReductionChain(pairs=((2, 4),))

    def test_prepend_consumes_lead(self):
        chain = ReductionChain(pairs=((3, 5), (1, 2)))
        longer = chain.prepend(4, 7)  # 3*7 - 5*4 = 1
        assert longer.pairs == ((4, 7), (3, 5), (1, 2))
        assert longer.sigmas == (1, -1)

    def test_prepend_checks_the_lead_sign(self):
        chain = ReductionChain(pairs=((3, 5), (1, 2)))
        with pytest.raises(ValueError, match="link 1 determinant 2 is not"):
            chain.prepend(5, 9)


class TestReduceChain:
    def test_frozen_trace_negative_link(self):
        chain = ReductionChain(pairs=((3, 5), (1, 2)))
        trace = reduce_chain(chain, 1)
        assert trace.total == Fraction(1, 5) == deficit(5, 1, 3)
        assert trace.terminal == 0
        assert trace.steps[0].t == 0 and trace.steps[0].u == 1

    def test_frozen_trace_positive_link(self):
        chain = ReductionChain(pairs=((2, 5), (1, 2)))
        trace = reduce_chain(chain, 0)
        assert trace.steps[0].error == Fraction(3, 20)
        assert trace.terminal == Fraction(1, 4)
        assert trace.total == Fraction(2, 5) == deficit(5, 0, 2)

    def test_paper_policy_can_drift(self):
        chain = ReductionChain(pairs=((3, 5), (1, 2)))
        assert reduce_chain(chain, 4, delta="paper").total == 1
        assert reduce_chain(chain, 4, delta="calibrated").total == 0 == deficit(5, 4, 3)

    def test_u0_validation(self):
        chain = ReductionChain(pairs=((3, 5), (1, 2)))
        with pytest.raises(ValueError):
            reduce_chain(chain, 5)
        with pytest.raises(ValueError):
            reduce_chain(chain, -1)

    @pytest.mark.parametrize("bad", [1.0, True, Fraction(1)], ids=["float", "bool", "Fraction"])
    def test_non_int_u0_is_named(self, bad):
        # 1.0 passes the range check; the refusal must name u0 before the
        # Euclidean split hands the first step t = 0.0.
        chain = ReductionChain(pairs=((3, 5), (1, 2)))
        with pytest.raises(TypeError) as caught:
            reduce_chain(chain, bad)
        assert str(caught.value) == f"u0 must be an int, got {bad!r}"

    def test_telescoping_multi_link(self):
        chain = ReductionChain(pairs=((7, 24), (2, 7), (1, 3)))
        for u0 in range(24):
            assert reduce_chain(chain, u0).total == deficit(24, u0, 7)


# The link signs of the four published chains, the same for every k.
PUBLISHED_SIGNS = {1: (1, -1, -1, 1), 2: (1, -1, 1, 1), 3: (1, 1), 4: (1,)}


def link_determinants(chain):
    return tuple(ai * bp - bi * ap
                 for (ap, bp), (ai, bi) in zip(chain.pairs, chain.pairs[1:]))


class TestStandardChains:
    def test_frozen_entry_two_k_one(self):
        chain = standard_chain(2, 1)
        assert chain.pairs == ((11, 36), (4, 13), (3, 10), (1, 3), (1, 2))
        assert chain.sigmas == (1, -1, 1, 1)

    def test_frozen_entry_one_k_two(self):
        chain = standard_chain(1, 2)
        assert chain.pairs == ((23, 64), (9, 25), (5, 14), (1, 3), (1, 2))
        assert chain.sigmas == (1, -1, -1, 1)

    def test_frozen_short_entries(self):
        assert standard_chain(3, 2).pairs == ((3, 8), (2, 5), (1, 2))
        assert standard_chain(4, 1).pairs == ((1, 3), (1, 2))
        assert standard_chain(4, 3).pairs == ((3, 7), (1, 2))

    @pytest.mark.parametrize("entry", [1, 2, 3, 4])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_all_validate(self, entry, k):
        if entry == 1 and k == 1:
            with pytest.raises(ValueError, match="entry 1 requires k >= 2"):
                standard_chain(entry, k)
            return
        if entry == 3 and k == 1:
            with pytest.raises(ValueError, match="strictly decrease"):
                standard_chain(entry, k)
            return
        assert standard_chain(entry, k).sigmas == PUBLISHED_SIGNS[entry]

    @pytest.mark.parametrize("entry", [1, 2, 3, 4])
    def test_published_signs_up_to_k_60(self, entry):
        for k in range(1 if entry in (2, 4) else 2, 61):
            chain = standard_chain(entry, k)
            assert chain.sigmas == PUBLISHED_SIGNS[entry] == link_determinants(chain)

    def test_bad_entry_or_k(self):
        with pytest.raises(ValueError):
            standard_chain(5, 1)
        with pytest.raises(ValueError):
            standard_chain(2, 0)

    def test_prepend_surface_heads(self):
        cases = [
            (make_surface(4, 103, 161), standard_chain(1, 2)),
            (make_surface(4, 49, 87), standard_chain(2, 1)),
            (make_surface(4, 13, 23), standard_chain(4, 1)),
        ]
        for surface, chain in cases:
            full = chain.prepend(-surface.p, surface.b)
            for u0 in range(surface.b):
                assert reduce_chain(full, u0).total == deficit(
                    surface.b, u0, -surface.p
                )

    @pytest.mark.parametrize("entry", [1, 2, 3, 4])
    def test_prepended_surface_link_sign_is_its_side(self, entry):
        # A surface with alpha*b - beta*m = tau in front of a chain with head
        # (alpha, beta) gets the link sign tau, worked out from the pairs.
        heads = 0
        for k in range(1 if entry in (2, 4) else 2, 7):
            chain = standard_chain(entry, k)
            alpha, beta = chain.pairs[0]
            for tau in (1, -1):
                for surface in solve_family(FamilyRequest(alpha, beta, tau, 6)):
                    if surface.b <= beta:
                        continue
                    m = -surface.p
                    full = chain.prepend(m, surface.b)
                    assert full.sigmas[0] == tau
                    for u0 in range(0, surface.b, max(1, surface.b // 20)):
                        assert reduce_chain(full, u0).total == deficit(surface.b, u0, m)
                    heads += 1
        assert heads >= 50

    def test_prepend_rejects_small_b(self):
        # P(4,13,23) has b = 13 < 36, so it cannot head the entry-2 chain.
        with pytest.raises(ValueError, match="strictly decrease"):
            standard_chain(2, 1).prepend(4, 13)
        with pytest.raises(ValueError, match="strictly decrease"):
            standard_chain(1, 2).prepend(14, 39)  # b = 39 < 64
