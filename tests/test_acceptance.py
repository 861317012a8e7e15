"""Acceptance suite: one test per release criterion, exact tolerances.

Each criterion is a single test function so the -v report shows one
pass/fail line per criterion.  Criterion 8 checks the published step-error
bounds; the exhaustive grid refutes the in-regime upper bound for the
sigma = -1 step error, and the test pins that refutation exactly (the
closed-form set of counterexamples and their excess) together with the
sharp replacement constant, so it passes only while the finding stands.
"""

import time
from fractions import Fraction
from math import gcd

from effcone import (
    DivisorSpec,
    FamilyRequest,
    coefficients,
    count_points_pick,
    count_points_rowscan,
    deficit,
    frac_sum,
    gamma_search,
    h0,
    lower_bound_small_a,
    make_surface,
    nu,
    paper_delta,
    reduce_chain,
    solve_family,
    standard_chain,
    step_error,
    step_error_bounds,
)
from effcone.threshold import classify_surface
from effcone.verify import aggregate_sweep, calibrate_delta, sweep

from conftest import (
    c0_middle_terms,
    c0_upper_bound,
    ceil_sum,
    expected_count_large,
    expected_count_small,
    family_supremum,
    floor_sum,
    full_sum,
    reference_triangle,
)


def test_criterion_01_ehrhart_exactness(pool):
    """Closed-form quadratic equals the lattice count: both families, n <= 100."""
    start = time.perf_counter()
    assert len(pool) >= 20
    assert {branch for _, branch, _ in pool} == {"I'-", "I'+", "I''-", "I''+"}
    assert max(k for _, _, k in pool) <= 6
    assert all(surface.b <= 400 for surface, _, _ in pool)
    checked = 0
    for surface, _, _ in pool:
        for family in ("B", "C"):
            for n in range(1, 101):
                value = coefficients(surface, family, n).value()
                assert value == h0(surface, DivisorSpec(family, n)), (
                    surface, family, n,
                )
                checked += 1
    assert checked == len(pool) * 200
    assert time.perf_counter() - start < 120


def test_criterion_02_reference_triangle_counts():
    """8k^2+18k+11 and 2k^2+3k+2 points for k <= 50, via Pick and rowscan."""
    start = time.perf_counter()
    for k in range(1, 51):
        for which, expected in (
            ("large", expected_count_large(k)),
            ("small", expected_count_small(k)),
        ):
            tri = reference_triangle(k, which)
            assert count_points_rowscan(tri) == expected
            assert count_points_pick(tri) == expected
    assert time.perf_counter() - start < 1


def test_criterion_03_classified_nu_values(pool, named_surfaces):
    """nu of the predicted divisor equals nu0 on the pool and worked examples."""
    for surface, _, _ in pool:
        for cls in classify_surface(surface):
            assert nu(surface, DivisorSpec(cls.family, cls.m0)) == cls.nu0, surface
    expected_nu0 = {5: 12, 7: 3, 13: 8}
    for surface in named_surfaces:
        for cls in classify_surface(surface):
            assert nu(surface, DivisorSpec(cls.family, cls.m0)) == cls.nu0
        if surface.b == 7 and surface.c == 9:
            assert classify_surface(surface)[0].nu0 == 16
        else:
            assert classify_surface(surface)[0].nu0 == expected_nu0[surface.b]


def test_criterion_04_gamma_search_attains_prediction(pool, named_surfaces):
    """Best candidate over n <= 200 equals the prediction, attained at m0."""
    start = time.perf_counter()
    for surface, _, _ in pool + [(s, None, None) for s in named_surfaces]:
        result = gamma_search(surface, 200)
        assert result.matches is True, surface
        for cls in classify_surface(surface):
            assert result.best == cls.gamma_pred
            assert any(
                family == cls.family and n == cls.m0 and d == cls.nu0
                for family, n, d in result.witnesses
            ), (surface, cls.branch)
    frozen = {(5, 7): Fraction(12), (13, 23): Fraction(104, 3), (7, 13): Fraction(39, 2)}
    for (b, c), value in frozen.items():
        assert gamma_search(make_surface(4, b, c), 200).best == value
    assert time.perf_counter() - start < 300


def test_criterion_05_margin_sweep(pool, named_surfaces):
    """Every off-peak cell keeps margin >= 1 up to n = 200, m0-routing applied."""
    surfaces = [surface for surface, _, _ in pool] + list(named_surfaces)
    aggregate = aggregate_sweep(sweep(surfaces, 200))
    assert aggregate["surfaces"] == len(surfaces)
    assert aggregate["min_margin"] >= 1
    assert aggregate["failure_count"] == 0
    assert aggregate["all_gamma_match"] is True


def test_criterion_06_reduction_identity_calibrated():
    """One-step identity exact for beta0 <= 60; chains telescope; report enumerates."""
    start = time.perf_counter()
    report = calibrate_delta(60)
    assert report["instances"] == 88460
    assert report["matrix"] == {
        "agree_0": 66345,
        "agree_1": 0,
        "paper_1_true_0": 22115,
        "paper_0_true_1": 0,
    }
    # Disagreements are findings, not failures; they are exactly the
    # sigma = -1 instances with beta0 - beta1 <= u0.
    assert report["disagreement_count"] == 22115 > 0
    assert all(
        d["sigma"] == -1 and d["beta0"] - d["beta1"] <= d["u0"]
        for d in report["disagreements"]
    )
    # Spot identity sweep through the public step_error API.
    for beta0 in range(3, 26):
        for alpha0 in range(1, beta0):
            if gcd(alpha0, beta0) != 1:
                continue
            for sigma in (1, -1):
                beta1 = (-sigma * pow(alpha0, -1, beta0)) % beta0
                if beta1 == 0 or beta1 == beta0:
                    continue
                alpha1 = (sigma + beta1 * alpha0) // beta0
                if alpha1 == 0:
                    alpha1 = beta1  # beta1 = 1; any representative works mod 1
                for u0 in range(beta0):
                    t, u = divmod(u0, beta1)
                    lhs = deficit(beta0, u0, alpha0)
                    rhs = deficit(beta1, u, alpha1) + step_error(
                        sigma, t, u, beta0, beta1, delta="calibrated"
                    )
                    assert lhs == rhs, (alpha0, beta0, beta1, sigma, u0)
    # Three-step chains (surface head + two standard links) telescope exactly.
    for k in (2, 3, 4):
        chain = standard_chain(3, k)
        # Prepending needs b above the chain head's beta = 4k; take the
        # first family member past it.
        members = solve_family(FamilyRequest(2 * k - 1, 4 * k, 1, 4))
        head = next(s for s in members if s.b > 4 * k)
        full = chain.prepend(-head.p, head.b)
        assert len(full.pairs) == 4
        for u0 in range(head.b):
            assert reduce_chain(full, u0).total == deficit(head.b, u0, -head.p)
    assert time.perf_counter() - start < 60


def test_criterion_07_closed_sums():
    """Floor/ceiling closed forms to beta <= 200; full/partial identities to 60."""
    for beta in range(1, 201):
        for alpha in range(1, beta + 1):
            if gcd(alpha, beta) != 1:
                continue
            floors = sum((alpha * k) // beta for k in range(beta))
            assert floor_sum(alpha, beta) == floors
            assert ceil_sum(alpha, beta) == floors + beta - 1
    for beta0 in range(2, 61):
        for alpha0 in range(1, beta0):
            if gcd(alpha0, beta0) != 1:
                continue
            for sigma in (1, -1):
                beta1 = (-sigma * pow(alpha0, -1, beta0)) % beta0
                if beta1 == 0:
                    continue
                alpha1 = (sigma + beta1 * alpha0) // beta0
                # Full-sum closed form against direct summation.
                if alpha1 >= 1:
                    assert full_sum(alpha0, beta0, beta1, sigma) == frac_sum(
                        alpha0, beta0, beta1
                    )
                # Partial-sum identity for every u below beta1.
                for u in range(beta1):
                    lhs = frac_sum(alpha0, beta0, u)
                    rhs = frac_sum(alpha1, beta1, u) - Fraction(
                        sigma * u * (u + 1), 2 * beta0 * beta1
                    )
                    assert lhs == rhs, (alpha0, beta0, alpha1, beta1, sigma, u)


def test_criterion_08_step_error_bounds_and_monotonicity():
    """Published bounds and v-monotonicity over beta1 < beta0 <= 40, paper jump.

    Every published bound holds except the in-regime sigma = -1 upper
    ((d+3)(d-1))/(8*beta0*beta1), d = beta0 - beta1, which the grid refutes
    (e.g. beta0 = 3, beta1 = 2, t = u = 0 gives 1/12 > 0).  The final block
    pins that refutation exactly: the violations are the closed-form set of
    the one or two v nearest the peak, each with its closed-form excess (589
    in all).  The sharp repair, the integer-vertex constant
    floor((d+1)^2/4)/(2*beta0*beta1), is asserted to hold everywhere in the
    regime and to be attained for every pair.
    """
    mono_violations = []
    other_bound_violations = []
    small_regime_violations = {}
    for beta0 in range(3, 41):
        for beta1 in range(2, beta0):
            if gcd(beta0, beta1) != 1:
                continue
            for sigma in (1, -1):
                bounds = step_error_bounds(sigma, beta0, beta1)
                # The integer-vertex constant is the sharp repair of the
                # published small-regime sigma = -1 one.
                repaired = Fraction((beta0 - beta1 + 1) ** 2 // 4, 2 * beta0 * beta1)
                small_regime_max = Fraction(0)
                errors = {}
                for u in range(beta1):
                    for t in range((beta0 - 1 - u) // beta1 + 1):
                        err = step_error(sigma, t, u, beta0, beta1, delta="paper")
                        errors[(t, u)] = err
                        if err < bounds.lower:
                            other_bound_violations.append((sigma, beta0, beta1, t, u, "lower"))
                        if sigma == 1 and err > bounds.upper_large:
                            other_bound_violations.append((sigma, beta0, beta1, t, u, "upper"))
                        if sigma == -1:
                            if u + beta1 * t < beta0 - beta1:
                                if err > bounds.upper_small:
                                    small_regime_violations[(beta0, beta1, t, u)] = (
                                        err - bounds.upper_small
                                    )
                                # Both jumps are 0 here, so err is the exact
                                # reduction error, not an artefact of the formula.
                                assert err == step_error(
                                    sigma, t, u, beta0, beta1, delta="calibrated"
                                ), (beta0, beta1, t, u, err)
                                assert err <= repaired, (beta0, beta1, t, u, err)
                                small_regime_max = max(small_regime_max, err)
                            elif err > bounds.upper_large:
                                other_bound_violations.append(
                                    (sigma, beta0, beta1, t, u, "upper_large")
                                )
                if sigma == -1:
                    # The sharp constant is attained, not merely an upper bound.
                    assert small_regime_max == repaired, (beta0, beta1, small_regime_max)
                    # Error depends on v alone; peak at (beta0-beta1-1)/2.
                    peak = Fraction(beta0 - beta1 - 1, 2)
                    by_v = {u + beta1 * t: e for (t, u), e in errors.items()}
                    for v in range(beta0 - 2):
                        t0, u0 = divmod(v, beta1)
                        t1, u1 = divmod(v + 1, beta1)
                        if paper_delta(-1, t0, u0, beta0, beta1) != paper_delta(
                            -1, t1, u1, beta0, beta1
                        ):
                            continue  # the jump step is exempt
                        diff = by_v[v + 1] - by_v[v]
                        gap = peak - (v + Fraction(1, 2))
                        if (diff > 0) != (gap > 0) or (diff == 0) != (gap == 0):
                            mono_violations.append((sigma, beta0, beta1, v))
                else:
                    # At fixed u, decreasing in t until v passes the trough.
                    trough = Fraction(beta0 + beta1 - 1, 2)
                    for u in range(beta1):
                        for t in range((beta0 - 1 - u) // beta1):
                            v = u + beta1 * t
                            diff = errors[(t + 1, u)] - errors[(t, u)]
                            mid = v + Fraction(beta1, 2)
                            if (diff < 0) != (mid < trough) or (diff == 0) != (
                                mid == trough
                            ):
                                mono_violations.append((sigma, beta0, beta1, t, u))
    assert not mono_violations
    assert not other_bound_violations
    # The published small-regime sigma = -1 upper is refuted, and exactly so.
    # In the regime v = u + beta1*t < d = beta0 - beta1 the paper jump is 0
    # and the step error is (v+1)(d-v)/(2*beta0*beta1), so its excess over
    # the published (d+3)(d-1)/(8*beta0*beta1) is
    # (4 - (d-1-2v)^2)/(8*beta0*beta1): positive exactly when
    # (d-1-2v)^2 < 4, i.e. at the one v (d odd) or two v (d even) nearest
    # the peak (d-1)/2, by 1/(2*beta0*beta1) or 3/(8*beta0*beta1).
    expected_violations = {}
    for beta0 in range(3, 41):
        for beta1 in range(2, beta0):
            if gcd(beta0, beta1) != 1:
                continue
            d = beta0 - beta1
            for v in range(d):
                off = d - 1 - 2 * v
                if off * off < 4:
                    t, u = divmod(v, beta1)
                    expected_violations[(beta0, beta1, t, u)] = Fraction(
                        4 - off * off, 8 * beta0 * beta1
                    )
    assert small_regime_violations == expected_violations
    assert len(small_regime_violations) == 589


def test_criterion_09_constant_term_bounds(pool):
    """Oscillating-block range facts and the c0 upper bound, n <= 500."""
    for surface, _, _ in pool:
        b, c = surface.b, surface.c
        cut = Fraction(1, 2) + Fraction(c, 80 * b)
        for n in range(1, 501):
            mid = c0_middle_terms(surface, n)
            frac_sn = Fraction((b * n) % c, c)
            assert mid <= Fraction(1, 8)
            assert (mid > 0) == (Fraction(1, 4) < frac_sn < Fraction(3, 10))
            if mid > -Fraction(c, 32 * b):
                assert frac_sn < cut
            assert coefficients(surface, "B", n).c0 <= c0_upper_bound(surface, n)


def test_criterion_10_small_weight_lower_bounds(small_a_pool):
    """First z-divisor certifies the combinatorial bound for small a."""
    samples = list(small_a_pool) + [
        make_surface(4, 5, 9),    # a = 4, p >= 0
        make_surface(4, 5, 19),   # a = 4, p >= 0
        make_surface(4, 9, 19),   # a = 4, p < 0 with -pa/b <= 1
        make_surface(4, 13, 43),  # a = 4, p < 0 with -pa/b <= 1
    ]
    assert len(samples) >= 34
    for surface in samples:
        floor = surface.q + 1 if surface.p >= 0 else surface.a - 1
        assert lower_bound_small_a(surface) == floor * surface.b
        assert nu(surface, DivisorSpec("AZ", 1)) >= floor, surface


def test_criterion_11_restricted_suprema_monotone(monotone_triples):
    """Abscissa-ordered triples: center suprema bounded by the outer ones."""
    for s_lower, s_center, s_upper in monotone_triples:
        sup_b_center = family_supremum(s_center, "B", 100)
        sup_b_lower = family_supremum(s_lower, "B", 100)
        sup_c_center = family_supremum(s_center, "C", 100)
        sup_c_upper = family_supremum(s_upper, "C", 100)
        assert sup_b_center <= sup_b_lower, (s_center, s_lower)
        assert sup_c_center <= sup_c_upper, (s_center, s_upper)
