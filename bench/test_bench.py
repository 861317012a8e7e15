"""Self-checks of the benchmark: inputs, tracer, isolation and result format.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from harness import (
    REFERENCE_SECONDS, at_reference_speed, golden_mismatches, load_program, run_call, run_pass,
)
from run import END_TO_END, GOLDEN, PER_LAYER, SRC
from tracer import Tracer, self_check, trace_pass
from workloads import (
    WORKLOADS, Invocation, branch_pool, check_ehrhart, check_reduce, verify_invocation,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


@pytest.fixture(scope="module")
def program():
    return load_program(SRC)


def _argvs(invocations):
    return [invocation.argv for invocation in invocations]


def test_pool_is_the_test_suite_pool(program):
    path = ROOT / "tests" / "conftest.py"
    if not path.exists():
        pytest.skip("no test-suite next to the benchmark")
    spec = importlib.util.spec_from_file_location("effcone_suite_conftest", path)
    suite = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(suite)
    expected = [(s.a, s.b, s.c) for s, _, _ in suite.build_pool()]
    assert [(s.a, s.b, s.c) for s in branch_pool(program.package)] == expected
    assert len(expected) == 82


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_inputs_come_from_the_seed(program, workload):
    generate = WORKLOADS[workload]
    first = _argvs(generate(program.package, 1))
    assert _argvs(generate(program.package, 1)) == first
    other = _argvs(generate(program.package, 2))
    assert other != first
    if workload == "pool-verify":
        assert sorted(other) == sorted(first)  # the seed only shuffles
    assert len(first) == {"pool-verify": 86, "deep-ehrhart": 40, "calibrate-reduce": 25}[workload]


def test_seeded_inputs_stay_in_their_ranges(program):
    for seed in range(1, 6):
        for argv in _argvs(WORKLOADS["deep-ehrhart"](program.package, seed)):
            b = int(argv[2].split(",")[1])
            assert 1000 <= b <= 3000 and 10**4 <= int(argv[-1]) <= 10**5
        for argv in _argvs(WORKLOADS["calibrate-reduce"](program.package, seed)):
            if argv[0] == "reduce":
                entry, k, u0 = int(argv[2]), int(argv[4]), int(argv[6])
                beta0 = program.package.standard_chain(entry, k).pairs[0][1]
                assert 0.9 * 10**5 <= beta0 <= 1.1 * 10**6 and 0 <= u0 < beta0


def _small_pass(program):
    """A few cheap calls of every kind the workloads make."""
    pool = branch_pool(program.package)
    named = program.package.make_surface(4, 5, 7)  # two classifications
    calls = [verify_invocation(surface, 24) for surface in (pool[0], pool[5], named)]
    calls += [
        Invocation(("ehrhart", "--surface", "4,13,23", "--family", family, "--n", "300"),
                   check_ehrhart)
        for family in "BC"
    ]
    calls += [
        Invocation(("reduce", "--entry", "2", "--k", "5", "--u0", "300"), check_reduce),
        Invocation(("calibrate-delta", "--beta-max", "12"), lambda payload: {}),
    ]
    return calls


def test_tracer_self_checks(program):
    calls = _small_pass(program)
    metrics, traced, untraced, leftovers = trace_pass(program, calls)
    assert [record.error for record in untraced + traced] == [None] * 2 * len(calls)
    assert self_check(metrics, traced, untraced) == []
    assert leftovers == []
    assert metrics["surface.h0.calls"] == metrics["surface.h0.hits"] + metrics["surface.h0.misses"]
    assert metrics["lattice.count_points_rowscan.calls"] == metrics["surface.h0.misses"]
    rows = sum(record.counts.get("rows", 0) for record in traced)
    assert metrics["verify.cells"] == rows > 0
    assert [r.digest for r in traced] == [r.digest for r in untraced]
    assert metrics["ehrhart.coefficients.calls"] == 2
    assert metrics["fracsum.reduce_chain.calls"] == 1
    assert metrics["verify.calibrate_delta.calls"] == 1
    assert metrics["cli.main.calls"] == len(calls)
    assert metrics["fracsum.frac_sum.terms"] > 0
    for name in PER_LAYER:
        if name.endswith(".calls"):
            assert metrics[name] >= 0, name
    # Every self time is a share of the pass: none exceeds the traced wall time.
    wall = sum(record.seconds for record in traced)
    assert all(0 <= metrics[n] <= wall for n in metrics if n.endswith(".self_s"))


def test_tracer_restores_every_name(program):
    modules = program.modules
    before = {
        (namespace.__name__, name): value
        for namespace in program.namespaces
        for name, value in vars(namespace).items()
        if callable(value)
    }
    tracer = Tracer(program)
    with tracer:
        assert modules["verify"].h0 is modules["threshold"].h0 is modules["cli"].h0
        assert modules["verify"].h0 is not program.h0
        assert modules["fracsum"].frac_sum is modules["ehrhart"].frac_sum
        assert program.package.h0 is modules["surface"].h0
    patched = {(ns.__name__, name) for ns, name, _ in tracer.patched}
    assert ("effcone.verify", "h0") in patched and ("effcone", "frac_sum") in patched
    assert tracer.leftovers() == []
    assert modules["verify"].h0 is modules["surface"].h0 is program.h0
    for namespace in program.namespaces:
        for name, value in vars(namespace).items():
            if callable(value):
                assert value is before[namespace.__name__, name], (namespace.__name__, name)


def test_self_check_reports_broken_invariants(program):
    calls = _small_pass(program)[:1]
    metrics, traced, untraced, _ = trace_pass(program, calls)
    broken = dict(metrics, **{"surface.h0.calls": metrics["surface.h0.calls"] + 1})
    assert len(self_check(broken, traced, untraced)) == 1
    broken = dict(metrics, **{"verify.cells": metrics["verify.cells"] - 1})
    assert len(self_check(broken, traced, untraced)) == 1
    untraced[0].digest = "0" * 64
    assert len(self_check(metrics, traced, untraced)) == 1


def test_failures_are_recorded_not_raised(program):
    bad_weights = ("h0", "--surface", "4,6,7", "--family", "B", "--n", "1")
    rejected = run_call(program, Invocation(bad_weights, lambda payload: {}))
    assert rejected.code == 2 and rejected.error.startswith("exit 2")
    unparsable = run_call(program, Invocation(("verify", "--no-such-flag"), lambda payload: {}))
    assert unparsable.code == 2 and unparsable.error is not None
    failing = run_call(program, Invocation(("reduce", "--entry", "4", "--k", "3", "--u0", "2"),
                                           check_ehrhart))
    assert failing.code == 0 and failing.error.startswith("output check")


def test_pass_times_are_scaled_to_the_reference_speed(program):
    records = run_pass(program, _small_pass(program)[:2])
    assert all(record.reference > 0 for record in records)
    for record in records:
        assert record.scaled == pytest.approx(
            record.seconds * REFERENCE_SECONDS / record.reference
        )
    # A host at half speed doubles both the call and the kernel: no change.
    assert at_reference_speed(2.0, 2 * REFERENCE_SECONDS) == pytest.approx(1.0)


def test_h0_cache_must_be_empty_before_a_call(program):
    class StuckCache:
        def cache_clear(self):
            pass

        def cache_info(self):
            return program.h0.cache_info()._replace(currsize=1)

    stuck = type(program)(package=program.package, modules=program.modules, h0=StuckCache())
    with pytest.raises(RuntimeError, match="not empty"):
        run_call(stuck, _small_pass(program)[0])


def test_cheap_golden_outputs_match(program):
    golden = json.loads(GOLDEN.read_text())
    for workload, argv_text in (
        ("pool-verify", "verify --surface 4,7,9 --n-max 200 --jobs 1"),
        ("calibrate-reduce", min(
            (text for text in golden["calibrate-reduce"]["digests"] if text.startswith("reduce")),
            key=lambda text: int(text.split()[-1]),
        )),
    ):
        digests = golden[workload]["digests"]
        invocation = next(i for i in WORKLOADS[workload](program.package, golden[workload]["seed"])
                          if " ".join(i.argv) == argv_text)
        record = run_call(program, invocation)
        assert record.error is None
        assert golden_mismatches([record], digests) == []
        assert record.digest == digests[argv_text]


def test_benchmark_json_matches_the_runner():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert config["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in config["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in config["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in config["per_layer"]} == PER_LAYER
    assert max(m["bound"] for m in config["end_to_end"]) == next(
        m["bound"] for m in config["end_to_end"] if m["name"] == "setup_s"
    )


def test_runner_refuses_a_checkout_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pool-verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
