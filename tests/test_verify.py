"""Margins, sweeps, and the exhaustive jump calibration."""

import json
import math
import pickle
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import conftest
from conftest import calibration_loop, check_partners_by_values, sweep_cells
from effcone import DivisorSpec, classify_surface, h0, make_surface, threshold, verify
from effcone.surface import _family_counts
from effcone.verify import (
    CalibrationError,
    Records,
    _check_partners,
    aggregate_sweep,
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


def three_blocks() -> Records:
    return Records(("b", "a", "n"), [
        ({"b": "x", "a": Fraction(1, 3)}, {"n": range(3)}),
        ({"b": "y"}, {"a": [True, None], "n": (5, 6)}),
        ({"a": 1, "b": 2}, {"n": []}),
    ])


THREE_BLOCKS = [
    {"b": "x", "a": Fraction(1, 3), "n": 0},
    {"b": "x", "a": Fraction(1, 3), "n": 1},
    {"b": "x", "a": Fraction(1, 3), "n": 2},
    {"b": "y", "a": True, "n": 5},
    {"b": "y", "a": None, "n": 6},
]


class TestRecords:
    def test_length_and_iteration(self):
        records = three_blocks()
        assert len(records) == 5
        assert list(records) == THREE_BLOCKS
        assert [list(record) for record in records] == [["b", "a", "n"]] * 5  # key order

    def test_equality_in_both_directions(self):
        records = three_blocks()
        rows = [dict(record) for record in THREE_BLOCKS]
        regrouped = Records(("b", "a", "n"), [
            ({"b": "x"}, {"a": [Fraction(1, 3)] * 3, "n": [0, 1, 2]}),
            ({"a": True, "b": "y"}, {"n": [5]}),
            ({}, {"b": ["y"], "a": [None], "n": [6]}),
        ])
        for other in (rows, list(records), regrouped):
            assert records == other and other == records
            assert not records != other and not other != records
        for unequal in (rows[:-1], rows + rows[:1], rows[::-1], [dict(rows[0], n=9)] + rows[1:],
                        Records(("b", "a", "n"))):
            assert records != unequal and unequal != records
        assert records != tuple(rows) and records != "records"
        with pytest.raises(TypeError):
            hash(records)

    def test_pickle_round_trip(self):
        records = three_blocks()
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(records, protocol))
            assert type(copy) is Records and copy == records
            assert copy.keys == records.keys and copy.blocks == records.blocks

    def test_repr_rebuilds(self):
        records = three_blocks()
        text = repr(records)
        assert text.startswith("Records(('b', 'a', 'n'), [({'b': 'x', 'a': Fraction(1, 3)}, ")
        assert eval(text, {"Records": Records, "Fraction": Fraction}) == records

    def test_empty(self):
        for records in (Records(("k",)), Records(("k", "j"), [({"j": 1}, {"k": range(0)})])):
            assert len(records) == 0 and not records
            assert list(records) == [] and records == [] and [] == records

    @pytest.mark.parametrize("keys, blocks", [
        (("a", "a"), []),
        (("a", "b"), [({"a": 1}, {})]),  # no column
        (("a", "b"), [({"a": 1}, {"b": [1], "c": [2]})]),  # a key outside keys
        (("a", "b"), [({"a": 1}, {"a": [1], "b": [2]})]),  # a key both shared and a column
        (("a", "b"), [({}, {"b": [1]})]),  # a key missing
        (("a", "b"), [({}, {"a": [1, 2], "b": range(3)})]),  # columns of two lengths
        (("a", "b"), [({"a": 1}, {"a": [1]})]),  # sizes add up, but a is in both and b in neither
    ])
    def test_malformed_blocks_are_refused(self, keys, blocks):
        with pytest.raises(ValueError):
            Records(keys, blocks)

    def test_refusals_name_the_block(self):
        with pytest.raises(ValueError) as caught:
            Records(("a", "b"), [({"a": 1}, {"a": [1]})])
        assert str(caught.value) == (
            "a block's shared keys ['a'] and column keys ['a'] do not split ('a', 'b')")
        with pytest.raises(ValueError) as caught:
            Records(("a", "b"), [({}, {"a": [1, 2], "b": range(3)})])
        assert str(caught.value) == (
            "a block needs one or more columns of one length, got lengths [2, 3]")

    def test_producers_keep_their_key_order(self, s457):
        rows = sweep_one(s457, 6)["rows"]
        assert type(rows) is Records and len(rows) == 2 * 2 * 6
        assert {tuple(row) for row in rows} == {("branch", "family", "n", "h0", "rhs", "margin")}
        records = calibrate_delta(9)["disagreements"]
        assert type(records) is Records
        assert {tuple(record) for record in records} == {(
            "alpha0", "beta0", "alpha1", "beta1", "sigma", "u0", "delta_true", "delta_paper",
        )}


class TestMargins:
    def test_frozen_general(self, s457, s41323):
        # margin_general takes the cell's degree n*delta' and the attaining
        # degree m0*delta: 7*5 for I'- of P(4,5,7), 3*23 for P(4,13,23).
        cls_minus, cls_plus = classify_surface(s457)
        assert margin_general(cls_minus, 5, 35, h0(s457, DivisorSpec("B", 1))) == 1
        assert margin_general(cls_minus, 10, 35, h0(s457, DivisorSpec("B", 2))) == 2
        (cls,) = classify_surface(s41323)
        assert margin_general(cls, 23, 69, h0(s41323, DivisorSpec("C", 1))) == 1

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
        cls_minus, _ = classify_surface(s457)  # family B, m0 = 7, degree 35
        degree = {"B": s457.b, "C": s457.c}

        def general(family, n, count):
            return margin_general(cls_minus, n * degree[family], 35, count)

        with pytest.raises(ValueError, match="multiple of m0 = 7"):
            general("B", 7, h0(s457, DivisorSpec("B", 7)))
        with pytest.raises(ValueError, match="multiple of m0 = 7"):
            general("B", 14, h0(s457, DivisorSpec("B", 14)))
        # (C, 5) names the same divisor as the attaining (B, 7): 5*7 = 7*5.
        with pytest.raises(ValueError, match="attainment step t = 1"):
            general("C", 5, h0(s457, DivisorSpec("C", 5)))
        with pytest.raises(ValueError, match="attainment step t = 2"):
            general("C", 10, h0(s457, DivisorSpec("C", 10)))
        # Off-ray cells of the other family stay with margin_general:
        # (C, 7) has degree 7*7 = 49, not a multiple of 7*5 = 35.
        assert isinstance(general("C", 7, h0(s457, DivisorSpec("C", 7))), int)
        with pytest.raises(ValueError):
            margin_at_multiple(cls_minus, 0, 1)

    @pytest.mark.parametrize("degree, base", [(0, 35), (-5, 35), (5, 0), (5, -35)])
    def test_degree_and_base_must_be_positive(self, s457, degree, base):
        cls_minus, _ = classify_surface(s457)
        with pytest.raises(ValueError, match=f"got {degree} and {base}"):
            margin_general(cls_minus, degree, base, 1)

    def test_attainment_step(self, s457, s41323):
        # sweep_one routes a cell at step t of the attainment ray (degree
        # n*delta' = t*m0*delta) to rhs C(nu0*t + 2, 2), every other cell to
        # the general rhs C(ceil(nu0*n*delta'/(m0*delta)) + 1, 2) + 1.
        def rhs_by_cell(surface, n_max):
            rows = sweep_one(surface, n_max)["rows"]
            return {(r["branch"], r["family"], r["n"]): r["rhs"] for r in rows}

        def ray(cls, t):
            return math.comb(cls.nu0 * t + 2, 2)

        def general(cls, degree, base):
            return math.comb(math.ceil(Fraction(cls.nu0 * degree, base)) + 1, 2) + 1

        cls_minus, cls_plus = classify_surface(s457)
        # cls_minus: family B, m0 = 7 (degree 35); cls_plus: family C,
        # m0 = 5 (degree 35).  Both rays coincide at this endpoint surface.
        rhs = rhs_by_cell(s457, 14)
        assert rhs[("I'-", "B", 7)] == ray(cls_minus, 1)
        assert rhs[("I'-", "C", 5)] == ray(cls_minus, 1)
        assert rhs[("I'+", "B", 14)] == ray(cls_plus, 2)
        assert rhs[("I'-", "B", 6)] == general(cls_minus, 6 * 5, 35)
        assert rhs[("I'-", "C", 7)] == general(cls_minus, 7 * 7, 35)
        # Interior surface, family C, m0 = 3 (degree 69): the first family-B
        # collision needs 69 | 13n, i.e. n = 69.
        (cls,) = classify_surface(s41323)
        rhs = rhs_by_cell(s41323, 69)
        assert rhs[(cls.branch, "B", 69)] == ray(cls, 13)
        assert all(
            rhs[(cls.branch, "B", n)] == general(cls, 13 * n, 69) for n in range(1, 69)
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
        degree, base = 11 * surface.b, cls.m0 * surface.c
        assert divmod(degree, base) == (5, 0)
        with pytest.raises(ValueError, match="attainment step t = 5"):
            margin_general(cls, degree, base, h0(surface, DivisorSpec("B", 11)))
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
        # The counts come from the gamma search's table: one shared counting
        # pass per surface, returning both families at every n, however many
        # classifications the surface has, and no call of the general
        # counter h0.
        surface = make_surface(4, b, c)
        calls = []

        def counting(surface, families, n_max):
            counts = _family_counts(surface, families, n_max)
            calls.append(tuple(zip(families, map(len, counts))))
            return counts

        monkeypatch.setattr(threshold, "_family_counts", counting)
        h0.cache_clear()
        sweep_one(surface, 30)
        info = h0.cache_info()
        assert (info.hits, info.misses) == (0, 0)
        assert calls == [(("B", 30), ("C", 30))]  # 60 cells per surface

    def test_cross_family_ray_cells_count_the_attaining_divisor(self, pool, named_surfaces):
        # A cell of the other family on the attainment ray reads its count at
        # (family, n), which names the attaining divisor at m0*t: same count,
        # also where m0*t lies beyond the sweep's n_max = 200.
        cells = beyond = 0
        for surface in named_surfaces + [surface for surface, _, _ in pool]:
            degree = {"B": surface.b, "C": surface.c}
            for cls in classify_surface(surface):
                other = "C" if cls.family == "B" else "B"
                for n in range(1, 201):
                    t, rest = divmod(n * degree[other], cls.m0 * degree[cls.family])
                    if rest:
                        continue
                    cells += 1
                    beyond += cls.m0 * t > 200
                    attaining = h0(surface, DivisorSpec(cls.family, cls.m0 * t))
                    assert h0(surface, DivisorSpec(other, n)) == attaining, (surface, cls, n)
        assert (cells, beyond) == (234, 48)  # the pool alone: (100, 23)



def routing_steps(surface) -> set[int]:
    """step = base/gcd(base, delta) of every (classification, family) block:
    the family's cell n lies on the attainment ray iff step divides n."""
    delta = {"B": surface.b, "C": surface.c}
    steps = set()
    for cls in classify_surface(surface):
        base = cls.m0 * delta[cls.family]
        steps.update(base // math.gcd(base, d) for d in delta.values())
    return steps


def n_max_grid(surface) -> list[int]:
    """1, 200, and step - 1, step, step + 1 of every block, within [1, 200]."""
    grid = {1, 200}
    for step in routing_steps(surface):
        grid.update(n for n in (step - 1, step, step + 1) if 1 <= n <= 200)
    return sorted(grid)


def assert_matches_the_oracle(surface, n_max):
    got, expected = sweep_one(surface, n_max), sweep_cells(surface, n_max)
    assert got == expected, (surface, n_max)
    # Key order too, at every depth: the JSON writer keeps it for the rows.
    got = dict(got, rows=list(got["rows"]))  # Records is not stdlib-JSON-serializable
    assert json.dumps(got, default=str) == json.dumps(expected, default=str), (surface, n_max)


@st.composite
def classified_surfaces(draw):
    """P(4, b, 3b - 4m) with 2 < b/m < 16/3: every surface verify sweeps."""
    b = draw(st.integers(2, 300)) * 2 + 1
    m = draw(st.integers(3 * b // 16 + 1, (b - 1) // 2))
    assume(math.gcd(b, m) == 1)
    return make_surface(4, b, 3 * b - 4 * m)


class TestSweepOneOracle:
    """``sweep_one`` routes a column of cells at a time; ``conftest.sweep_cells``
    is the per-cell ``divmod`` loop it replaced."""

    def test_grid_covers_every_routing_case(self, pool, named_surfaces):
        surfaces = named_surfaces + [surface for surface, _, _ in pool]
        steps = set().union(*map(routing_steps, surfaces))
        assert 1 in steps and max(steps) > 200  # a whole ray column, and none
        endpoints = [s for s in named_surfaces if len(classify_surface(s)) == 2]
        assert [(s.b, s.c) for s in endpoints] == [(5, 7), (7, 9)]

    def test_named_and_pool_surfaces(self, pool, named_surfaces):
        for surface in named_surfaces + [surface for surface, _, _ in pool]:
            for n_max in n_max_grid(surface):
                assert_matches_the_oracle(surface, n_max)

    @given(classified_surfaces())
    @settings(max_examples=40, deadline=None)
    @example(make_surface(4, 5, 11))  # m0 = 1: step 1 for family C
    @example(make_surface(4, 5, 7))  # two classifications
    @example(make_surface(4, 7, 9))  # two classifications
    @example(make_surface(4, 401, 463))  # a cross-family step above 200
    def test_random_surfaces(self, surface):
        for n_max in n_max_grid(surface):
            assert_matches_the_oracle(surface, n_max)

    @pytest.mark.parametrize("b, c", [(5, 7), (7, 9), (5, 11), (13, 23)])
    def test_failures_match_the_oracle(self, b, c, monkeypatch):
        # Lowered margins make failures, on both sides alike: the report
        # keeps each cell's best margin over the classifications, in
        # (family, n) order.
        for module in (verify, conftest):
            for name in ("margin_general", "margin_at_multiple"):
                original = getattr(module, name)
                monkeypatch.setattr(
                    module, name, lambda *args, f=original: f(*args) - 8,
                )
        surface = make_surface(4, b, c)
        for n_max in (1, 7, 40):
            report = sweep_one(surface, n_max)
            assert report["failures"] and report["min_margin"] < 1
            assert_matches_the_oracle(surface, n_max)

    def test_one_margin_call_per_cell(self, monkeypatch):
        calls = []
        for name in ("margin_general", "margin_at_multiple"):
            original = getattr(verify, name)
            monkeypatch.setattr(
                verify, name, lambda cls, *args, f=original: calls.append(args) or f(cls, *args),
            )
        for b, c in ((5, 7), (5, 11), (13, 23), (401, 463)):
            calls.clear()
            report = sweep_one(make_surface(4, b, c), 200)
            assert len(calls) == len(report["rows"]) == 200 * 2 * len(report["classifications"])


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
        assert aggregate_sweep([]) == {
            "surfaces": 0,
            "min_margin": None,
            "failure_count": 0,
            "all_gamma_match": None,
            "by_b": [],
            "smallest_clean_b": None,
        }

    def test_parallel_matches_serial(self, s457, s41323):
        surfaces = [s457, s41323, make_surface(4, 7, 13)]
        assert sweep(surfaces, 8, jobs=2) == sweep(surfaces, 8)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_refused(self, s457, jobs):
        with pytest.raises(ValueError, match=f"^require jobs >= 1, got {jobs}$"):
            sweep([s457], 5, jobs=jobs)
        with pytest.raises(ValueError, match="^require n_max >= 1, got 0$"):
            sweep([s457], 0, jobs=jobs)


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

    def test_matches_the_loop_at_every_beta_max(self):
        # The loop runs once, at 80 (the benchmark's grid); the report at a
        # smaller beta_max is its restriction to beta0 <= beta_max.  The
        # loop checked agree_1 = paper_0_true_1 = 0 on every instance, so the
        # restricted matrix follows from the restricted records and the
        # grid's size, counted here pair by pair.
        oracle = calibration_loop(80)
        assert calibrate_delta(80) == oracle
        (keys,) = set(map(tuple, oracle["disagreements"]))  # one key order throughout
        for beta_max in range(3, 81):
            got = calibrate_delta(beta_max)
            records = [d for d in oracle["disagreements"] if d["beta0"] <= beta_max]
            size = sum(
                2 * beta0
                for beta0 in range(2, beta_max + 1)
                for alpha0 in range(1, beta0)
                if math.gcd(alpha0, beta0) == 1
            )
            assert got == {
                "beta_max": beta_max,
                "instances": size,
                "matrix": {
                    "agree_0": size - len(records), "agree_1": 0,
                    "paper_1_true_0": len(records), "paper_0_true_1": 0,
                },
                "disagreement_count": len(records),
                "disagreements": records,
            }, beta_max
            assert list(got) == list(oracle) and list(got["matrix"]) == list(oracle["matrix"])
            assert set(map(tuple, got["disagreements"])) == {keys}
            assert 4 * got["disagreement_count"] == got["instances"]

    def test_without_instances_builds_no_records(self):
        tracemalloc.start()
        try:
            report = calibrate_delta(80, instances=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert report == {
            "beta_max": 80,
            "instances": 210776,
            "matrix": {"agree_0": 158082, "agree_1": 0, "paper_1_true_0": 52694,
                       "paper_0_true_1": 0},
            "disagreement_count": 52694,
            "disagreements": None,
        }


def true_partners(beta_limit: int):
    """Every (alpha0, beta0, alpha1, beta1, sigma) with 2 <= beta0 <= beta_limit,
    coprime 1 <= alpha0 < beta0, and alpha1*beta0 - beta1*alpha0 = sigma for
    the beta1 in [1, beta0) that sigma determines; alpha1 is the true partner,
    which is 0 for alpha0 = 1, sigma = -1."""
    for beta0 in range(2, beta_limit + 1):
        for alpha0 in range(1, beta0):
            if math.gcd(alpha0, beta0) != 1:
                continue
            for sigma in (1, -1):
                beta1 = next(b for b in range(1, beta0) if (sigma + b * alpha0) % beta0 == 0)
                yield alpha0, beta0, (sigma + beta1 * alpha0) // beta0, beta1, sigma


class TestPartnerCheck:
    def test_accepts_every_true_partner(self):
        pairs = list(true_partners(30))
        assert len(pairs) == 2 * sum(
            1 for b in range(2, 31) for a in range(1, b) if math.gcd(a, b) == 1
        )
        for alpha0, beta0, alpha1, beta1, sigma in pairs:
            _check_partners(alpha0, beta0, (alpha1, beta1, sigma))

    def test_rejects_a_beta1_off_by_one(self):
        # Every wrong beta1 >= 1 changes the determinant by alpha0 != 0: 554
        # partners, two neighbours each, less the 58 with beta1 = 1.
        rejected = 0
        for alpha0, beta0, alpha1, beta1, sigma in true_partners(30):
            for wrong in (beta1 - 1, beta1 + 1):
                if wrong >= 1:
                    with pytest.raises(CalibrationError, match=f"beta0={beta0}, sigma={sigma}"):
                        _check_partners(alpha0, beta0, (alpha1, wrong, sigma))
                    rejected += 1
        assert rejected == 1050

    def test_rejects_the_wrong_sigma(self):
        for alpha0, beta0, alpha1, beta1, sigma in true_partners(30):
            with pytest.raises(CalibrationError, match=f"alpha0={alpha0}, beta0={beta0}"):
                _check_partners(alpha0, beta0, (alpha1, beta1, -sigma))

    def test_both_partners_share_one_lower_side(self):
        # Both partners in one call, sigma = +1 first, as calibrate_delta
        # checks them; a wrong second partner is still caught and named.
        for beta0 in range(2, 31):
            for alpha0 in range(1, beta0):
                if math.gcd(alpha0, beta0) != 1:
                    continue
                beta1 = pow(alpha0, -1, beta0)
                alpha1 = (beta1 * alpha0 - 1) // beta0
                plus = (alpha0 - alpha1, beta0 - beta1, 1)
                _check_partners(alpha0, beta0, plus, (alpha1, beta1, -1))
                with pytest.raises(CalibrationError, match=f"beta0={beta0}, sigma=-1"):
                    _check_partners(alpha0, beta0, plus, (alpha1 + 1, beta1, -1))

    def test_rejects_an_alpha1_off_by_one(self):
        for alpha0, beta0, alpha1, beta1, sigma in true_partners(30):
            for wrong in (alpha1 - 1, alpha1 + 1):
                with pytest.raises(CalibrationError):
                    _check_partners(alpha0, beta0, (wrong, beta1, sigma))


def refuses(check, alpha0, beta0, *partners) -> bool:
    """Whether ``check`` raises :class:`CalibrationError` on the partners."""
    try:
        check(alpha0, beta0, *partners)
    except CalibrationError:
        return True
    return False


def perturbed_partners(beta_limit: int):
    """For every coprime 1 <= alpha0 < beta0 <= beta_limit, the two true
    partners, as calibrate_delta passes them and swapped, and each partner
    with alpha1 +- 1 (down to 0 and -1), beta1 +- 1 (down to 1), the sigma
    flipped, and the two partners' pairs exchanged between the sigmas."""
    for beta0 in range(2, beta_limit + 1):
        for alpha0 in range(1, beta0):
            if math.gcd(alpha0, beta0) != 1:
                continue
            beta1 = pow(alpha0, -1, beta0)
            alpha1 = (beta1 * alpha0 - 1) // beta0
            plus, minus = (alpha0 - alpha1, beta0 - beta1, 1), (alpha1, beta1, -1)
            yield alpha0, beta0, (plus, minus)
            yield alpha0, beta0, (minus, plus)
            yield alpha0, beta0, ((plus[0], plus[1], -1), (minus[0], minus[1], 1))
            for a1, b1, sigma in (plus, minus):
                yield alpha0, beta0, ((a1, b1, -sigma),)
                for wrong in (a1 - 1, a1 + 1):
                    yield alpha0, beta0, ((wrong, b1, sigma),)
                for wrong in (b1 - 1, b1 + 1):
                    if wrong >= 1:
                        yield alpha0, beta0, ((a1, wrong, sigma),)


def is_partner(alpha0, beta0, partner) -> bool:
    """Whether ``partner`` = (alpha1, beta1, sigma) has the +-1 determinant
    alpha1*beta0 - beta1*alpha0 = sigma."""
    alpha1, beta1, sigma = partner
    return alpha1 * beta0 - beta1 * alpha0 == sigma


class TestDeterminantCheck:
    """``_check_partners`` tests each partner's +-1 determinant; the value
    comparison that came before it, kept as ``check_partners_by_values``, is
    its oracle.  By the lemma in its docstring, the determinant check must
    refuse whatever the oracle refuses.  It may refuse more, but only
    non-partners: a triple whose determinant is not its sigma, which can
    still satisfy the per-term identity, such as (0, beta1, -1) for any
    beta1 when alpha0 = 1."""

    def test_matches_the_value_check_on_perturbed_partners(self):
        extra, checked, accepted = [], 0, 0
        for alpha0, beta0, partners in perturbed_partners(60):
            by_values = refuses(check_partners_by_values, alpha0, beta0, *partners)
            by_determinant = refuses(_check_partners, alpha0, beta0, *partners)
            assert by_determinant or not by_values, (alpha0, beta0, partners)
            if by_determinant and not by_values:
                extra.append((alpha0, beta0, partners))
            checked += 1
            accepted += not by_determinant
        assert all(
            not all(is_partner(alpha0, beta0, partner) for partner in partners)
            for alpha0, beta0, partners in extra
        )
        assert len(extra) == 118
        assert checked > 14000 and 2000 < accepted < checked // 2

    @settings(max_examples=400, deadline=None)
    @given(beta0=st.integers(2, 150), alpha0=st.integers(1, 300),
           beta1=st.integers(1, 300), offset=st.integers(-2, 2), sigma=st.sampled_from((1, -1)))
    @example(beta0=5, alpha0=1, beta1=5, offset=-1, sigma=1)  # (0, 5): determinant -5
    @example(beta0=5, alpha0=2, beta1=6, offset=0, sigma=1)  # (2, 6): determinant -2
    @example(beta0=7, alpha0=3, beta1=5, offset=0, sigma=-1)  # a true partner, (2, 5)
    def test_never_weaker_than_the_value_check(self, beta0, alpha0, beta1, offset, sigma):
        # alpha1 near alpha0*beta1/beta0, so that both checks often accept.
        alpha1 = alpha0 * beta1 // beta0 + offset
        partner = (alpha1, beta1, sigma)
        by_values = refuses(check_partners_by_values, alpha0, beta0, partner)
        by_determinant = refuses(_check_partners, alpha0, beta0, partner)
        assert by_determinant or not by_values
        if by_determinant and not by_values:
            assert not is_partner(alpha0, beta0, partner)

    def test_lemma_every_partner_satisfies_the_identity(self):
        # The docstring's lemma, for beta1 >= beta0 too: every (alpha1,
        # beta1, sigma) with the +-1 determinant and 1 <= beta1 <= 3*beta0
        # passes the value oracle, and the determinant check.
        checked = 0
        for beta0 in range(2, 61):
            for alpha0 in range(1, beta0):
                if math.gcd(alpha0, beta0) != 1:
                    continue
                for sigma in (1, -1):
                    for beta1 in range(1, 3 * beta0 + 1):
                        if (sigma + beta1 * alpha0) % beta0 == 0:
                            partner = ((sigma + beta1 * alpha0) // beta0, beta1, sigma)
                            check_partners_by_values(alpha0, beta0, partner)
                            _check_partners(alpha0, beta0, partner)
                            checked += 1
        assert checked == 6606

    def test_refuses_the_non_partners_the_value_check_accepts(self):
        # Both satisfy the per-term identity, but neither has the determinant:
        # 0*5 - 7*1 = -7, not -1, and 1*2 - 2*1 = 0, not 1.
        for alpha0, beta0, partner in ((1, 5, (0, 7, -1)), (1, 2, (1, 2, 1))):
            check_partners_by_values(alpha0, beta0, partner)
            with pytest.raises(CalibrationError, match=f"beta0={beta0}"):
                _check_partners(alpha0, beta0, partner)

    def test_refuses_a_denominator_below_1(self):
        # The lemma needs beta1 >= 1.  The first three fail the determinant as
        # well; the last three have it, and only the guard refuses them.
        assert refuses(check_partners_by_values, 1, 5, (1, -1, -1))
        for alpha0, beta0, partner in (
            (1, 5, (1, -1, -1)), (1, 5, (0, 0, -1)), (1, 5, (1, 0, 1)),
            (1, 5, (0, -1, 1)), (2, 5, (-1, -2, -1)), (0, 1, (1, 0, 1)),
        ):
            with pytest.raises(CalibrationError, match=f"beta0={beta0}"):
                _check_partners(alpha0, beta0, partner)

    def test_refuses_a_sigma_other_than_1_or_minus_1(self):
        # Determinant 2 = sigma: the guard refuses it, as the lemma needs +-1.
        assert is_partner(1, 5, (1, 3, 2))
        with pytest.raises(CalibrationError, match="sigma=2"):
            _check_partners(1, 5, (1, 3, 2))
