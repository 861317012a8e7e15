"""Margins, sweeps, and the exhaustive jump calibration."""

import math
from collections import Counter
from fractions import Fraction

import pytest

from effcone import DivisorSpec, classify_surface, h0, make_surface, section_count, threshold
from effcone.verify import (
    aggregate_sweep,
    attainment_step,
    calibrate_delta,
    margin_at_multiple,
    margin_general,
    sweep,
    sweep_one,
)


@pytest.fixture(scope="module")
def s457():
    return make_surface(4, 5, 7)


@pytest.fixture(scope="module")
def s41323():
    return make_surface(4, 13, 23)


class TestMargins:
    def test_frozen_general(self, s457, s41323):
        cls_minus, cls_plus = classify_surface(s457)
        assert margin_general(s457, cls_minus, "B", 1, h0(s457, DivisorSpec("B", 1))) == 1
        assert margin_general(s457, cls_minus, "B", 2, h0(s457, DivisorSpec("B", 2))) == 2
        (cls,) = classify_surface(s41323)
        assert margin_general(s41323, cls, "C", 1, h0(s41323, DivisorSpec("C", 1))) == 1

    def test_frozen_at_multiples(self, s457, s41323):
        for cls in classify_surface(s457):
            assert margin_at_multiple(cls, 1, h0(s457, DivisorSpec(cls.family, cls.m0))) == 12
        (cls,) = classify_surface(s41323)
        assert margin_at_multiple(cls, 1, h0(s41323, DivisorSpec(cls.family, cls.m0))) == 8
        s479 = make_surface(4, 7, 9)
        for cls in classify_surface(s479):
            count = h0(s479, DivisorSpec(cls.family, cls.m0))
            assert margin_at_multiple(cls, 1, count) == 16  # 153 - 137

    def test_routing(self, s457):
        cls_minus, _ = classify_surface(s457)  # family B, m0 = 7
        with pytest.raises(ValueError, match="multiple of m0 = 7"):
            margin_general(s457, cls_minus, "B", 7, h0(s457, DivisorSpec("B", 7)))
        with pytest.raises(ValueError, match="multiple of m0 = 7"):
            margin_general(s457, cls_minus, "B", 14, h0(s457, DivisorSpec("B", 14)))
        # (C, 5) names the same divisor as the attaining (B, 7): 5*7 = 7*5.
        with pytest.raises(ValueError, match="attainment step t = 1"):
            margin_general(s457, cls_minus, "C", 5, h0(s457, DivisorSpec("C", 5)))
        with pytest.raises(ValueError, match="attainment step t = 2"):
            margin_general(s457, cls_minus, "C", 10, h0(s457, DivisorSpec("C", 10)))
        # Off-ray cells of the other family stay with margin_general:
        # (C, 7) has degree 7*7 = 49, not a multiple of 7*5 = 35.
        count = h0(s457, DivisorSpec("C", 7))
        assert isinstance(margin_general(s457, cls_minus, "C", 7, count), int)
        with pytest.raises(ValueError):
            margin_general(s457, cls_minus, "B", 0, 1)
        with pytest.raises(ValueError):
            margin_at_multiple(cls_minus, 0, 1)

    @pytest.mark.parametrize("family", ["AZ", "X"])
    @pytest.mark.parametrize("n", [5, 7])
    def test_non_bc_family_is_rejected(self, s457, family, n):
        # Read as family C, (AZ, 5) would sit on the I'- ray (5*7 = 7*5)
        # and (AZ, 7) off it; only B and C cells have a margin.
        cls_minus, _ = classify_surface(s457)
        with pytest.raises(ValueError, match=f"got {family!r}"):
            attainment_step(s457, cls_minus, family, n)
        with pytest.raises(ValueError, match=f"got {family!r}"):
            margin_general(s457, cls_minus, family, n, 1)

    def test_attainment_step(self, s457, s41323):
        cls_minus, cls_plus = classify_surface(s457)
        # cls_minus: family B, m0 = 7 (degree 35); cls_plus: family C,
        # m0 = 5 (degree 35).  Both rays coincide at this endpoint surface.
        assert attainment_step(s457, cls_minus, "B", 7) == 1
        assert attainment_step(s457, cls_minus, "C", 5) == 1
        assert attainment_step(s457, cls_plus, "B", 14) == 2
        assert attainment_step(s457, cls_minus, "B", 6) is None
        assert attainment_step(s457, cls_minus, "C", 7) is None
        # Interior surface, family C, m0 = 3 (degree 69): the first family-B
        # collision needs 69 | 13n, i.e. n = 69.
        (cls,) = classify_surface(s41323)
        assert attainment_step(s41323, cls, "B", 69) == 13
        assert all(
            attainment_step(s41323, cls, "B", n) is None for n in range(1, 69)
        )


class TestSweepOne:
    def test_frozen_endpoint_report(self, s457):
        report = sweep_one(s457, 20)
        assert report["surface"] == {"a": 4, "b": 5, "c": 7, "p": -2, "q": 3}
        assert [c["branch"] for c in report["classifications"]] == ["I'-", "I'+"]
        assert report["min_margin"] == 1
        assert report["failures"] == []
        assert report["gamma_best"] == 12 == report["gamma_pred"]
        assert report["gamma_match"] is True
        # 2 classifications x 2 families x 20 levels.
        assert len(report["rows"]) == 80

    def test_endpoint_cells_route_to_attainment_bound(self, s457):
        # The attaining cell (C, 5) names the same divisor as (B, 7): both
        # classifications route it to the attainment bound and certify the
        # same margin, so no classification ever reports a spurious failure.
        report = sweep_one(s457, 20)
        rows = {
            (r["branch"], r["family"], r["n"]): r
            for r in report["rows"]
        }
        for branch in ("I'-", "I'+"):
            assert rows[(branch, "C", 5)] == {
                "branch": branch, "family": "C", "n": 5,
                "h0": 79, "rhs": 91, "margin": 12,
            }
            assert rows[(branch, "B", 7)]["margin"] == 12
            assert rows[(branch, "B", 7)]["rhs"] == 91

    def test_interior_surface_report(self, s41323):
        report = sweep_one(s41323, 15)
        assert len(report["classifications"]) == 1
        assert report["min_margin"] >= 1
        assert report["gamma_match"] is True

    def test_unit_m0_cross_family_collisions(self):
        # m0 = 1 makes every family-C level attaining, so the family-B grid
        # hits the ray at every multiple of c: (B, 11) is the divisor of
        # (C, 5) (11*5 = 5*11), meets the threshold exactly (h0 = 121 =
        # C(16, 2) + 1), and must be judged by the attainment bound.
        surface = make_surface(4, 5, 11)
        (cls,) = classify_surface(surface)
        assert (cls.m0, cls.family, cls.nu0) == (1, "C", 3)
        assert attainment_step(surface, cls, "B", 11) == 5
        with pytest.raises(ValueError, match="attainment step t = 5"):
            margin_general(surface, cls, "B", 11, h0(surface, DivisorSpec("B", 11)))
        report = sweep_one(surface, 22)
        rows = {(r["family"], r["n"]): r for r in report["rows"]}
        assert rows[("B", 11)] == {
            "branch": "I''+", "family": "B", "n": 11,
            "h0": 121, "rhs": 136, "margin": 15,
        }
        # At step t = 10 the count dips below exact attainment
        # (nu = 29 < 30), so the margin exceeds the minimal 15t.
        assert rows[("B", 22)] == {
            "branch": "I''+", "family": "B", "n": 22,
            "h0": 461, "rhs": 496, "margin": 35,
        }
        assert report["min_margin"] >= 1
        assert report["failures"] == []
        assert report["gamma_match"] is True


    def test_rhs_matches_closed_forms(self, named_surfaces, pool):
        # Every row's rhs, recomputed from the classification: C(nu0*t + 2, 2)
        # on the attainment ray, else C(ceil(nu0*n*delta'/(m0*delta)) + 1, 2) + 1
        # with delta = b for family B and c for family C.  pool[15] is
        # P(4, 23, 33), whose off-ray cell (B, 55) has an integral level.
        surfaces = named_surfaces + [surface for surface, _, _ in pool[::15]]
        assert (surfaces[5].b, surfaces[5].c) == (23, 33)
        for surface in surfaces:
            degree = {"B": surface.b, "C": surface.c}
            by_branch = {cls.branch: cls for cls in classify_surface(surface)}
            for row in sweep_one(surface, 60)["rows"]:
                cls, family, n = by_branch[row["branch"]], row["family"], row["n"]
                if (n * degree[family]) % (cls.m0 * degree[cls.family]) == 0:
                    t = n * degree[family] // (cls.m0 * degree[cls.family])
                    rhs = math.comb(cls.nu0 * t + 2, 2)
                else:
                    level = math.ceil(Fraction(
                        cls.nu0 * n * degree[family], cls.m0 * degree[cls.family]
                    ))
                    rhs = math.comb(level + 1, 2) + 1
                assert row["rhs"] == rhs, (surface, row)
                assert row["h0"] == h0(surface, DivisorSpec(family, n))
                assert row["margin"] == rhs - row["h0"]


    @pytest.mark.parametrize("b, c", [(13, 23), (5, 7)], ids=["P(4,13,23)", "P(4,5,7)"])
    def test_each_cell_counted_once(self, b, c, monkeypatch):
        # The counts come from the gamma search's table: one family count
        # per (family, n), however many classifications the surface has,
        # and no call of the general counter h0.
        surface = make_surface(4, b, c)
        counted = Counter()

        def counting(surface, family, n):
            counted[family, n] += 1
            return section_count(surface, family, n)

        monkeypatch.setattr(threshold, "section_count", counting)
        h0.cache_clear()
        sweep_one(surface, 30)
        info = h0.cache_info()
        assert (info.hits, info.misses) == (0, 0)
        assert counted == {(family, n): 1 for family in "BC" for n in range(1, 31)}

    def test_cross_family_ray_cells_count_the_attaining_divisor(self, pool, named_surfaces):
        # A cell of the other family on the attainment ray reads its count at
        # (family, n), which names the attaining divisor at m0*t: same count,
        # also where m0*t lies beyond the sweep's n_max = 200.
        cells = beyond = 0
        for surface in named_surfaces + [surface for surface, _, _ in pool]:
            for cls in classify_surface(surface):
                other = "C" if cls.family == "B" else "B"
                for n in range(1, 201):
                    t = attainment_step(surface, cls, other, n)
                    if t is None:
                        continue
                    cells += 1
                    beyond += cls.m0 * t > 200
                    attaining = h0(surface, DivisorSpec(cls.family, cls.m0 * t))
                    assert h0(surface, DivisorSpec(other, n)) == attaining, (surface, cls, n)
        assert (cells, beyond) == (234, 48)  # the pool alone: (100, 23)


class TestSweepAggregation:
    def test_aggregate_fields(self, s457, s41323):
        reports = sweep([s457, s41323], 20)
        agg = aggregate_sweep(reports)
        assert agg["surfaces"] == 2
        assert agg["min_margin"] == 1
        assert agg["failure_count"] == 0
        assert agg["all_gamma_match"] is True
        assert agg["smallest_clean_b"] == 5
        assert agg["by_b"] == [
            {"b": 5, "min_margin": 1, "gamma_match": True},
            {"b": 13, "min_margin": 1, "gamma_match": True},
        ]

    def test_empty_aggregate(self):
        agg = aggregate_sweep([])
        assert agg["surfaces"] == 0 and agg["min_margin"] is None
        assert agg["smallest_clean_b"] is None

    def test_parallel_matches_serial(self, s457, s41323):
        surfaces = [s457, s41323, make_surface(4, 7, 13)]
        assert sweep(surfaces, 8, jobs=2) == sweep(surfaces, 8)


class TestCalibration:
    def test_frozen_small_run(self):
        result = calibrate_delta(5)
        assert result["instances"] == 72
        assert result["matrix"] == {
            "agree_0": 54, "agree_1": 0, "paper_1_true_0": 18, "paper_0_true_1": 0,
        }
        assert result["disagreement_count"] == 18
        hits = [
            (d["beta0"], d["beta1"], d["sigma"], d["u0"])
            for d in result["disagreements"]
            if d["beta0"] == 5 and d["beta1"] == 2
        ]
        assert hits == [(5, 2, -1, 3), (5, 2, -1, 4)]

    def test_matrix_is_consistent(self):
        result = calibrate_delta(12)
        assert sum(result["matrix"].values()) == result["instances"]
        assert result["disagreement_count"] == (
            result["matrix"]["paper_1_true_0"] + result["matrix"]["paper_0_true_1"]
        )

    def test_forced_jump_never_fires(self):
        # Over the whole grid the identity holds with no jump at all; the
        # published condition over-fires exactly on sigma = -1 instances
        # with beta0 - beta1 <= u0.
        result = calibrate_delta(20)
        assert result["matrix"]["agree_1"] == 0
        assert result["matrix"]["paper_0_true_1"] == 0
        for d in result["disagreements"]:
            assert d["delta_true"] == 0 and d["delta_paper"] == 1
            assert d["sigma"] == -1
            assert d["beta0"] - d["beta1"] <= d["u0"]

    def test_validation(self):
        with pytest.raises(ValueError):
            calibrate_delta(2)
