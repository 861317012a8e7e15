"""effcone benchmark: seeded CLI workloads run in-process, one workload per process.

    python3 bench/run.py --workload pool-verify --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the library is imported from the
checkout's ``src/``.  With ``--trace 0`` it sets the workload up and runs a
whole pass of it, again and again (at least twice) while the next
pass is due to end within ``--seconds``, and reports the end-to-end
metrics.  With ``--trace 1`` it sets up once, runs each invocation untraced
and then traced, and reports the per-layer metrics.  A human summary goes to
stderr; the last line of stdout is the JSON result.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from harness import (
    at_reference_speed, golden_mismatches, latency_summary, load_program, reference_reading,
    run_pass, tail_percentile,
)
from tracer import self_check, trace_pass
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
GOLDEN = BENCH / "golden.json"

#: Set-ups timed before each pass; setup_s is the median of all of them.
SETUPS_PER_PASS = 4

#: Passes every timed run makes, however long they take: each invocation's
#: latency is its median over the passes.
MIN_PASSES = 2

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "call_p50_ms": "ms",
    "call_tail_ms": "ms",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    "lattice.count_points_rowscan.calls": "count",
    "lattice.count_points_rowscan.rows": "count",
    "lattice.count_points_rowscan.self_s": "s",
    "surface.polytope.calls": "count",
    "surface.polytope.self_s": "s",
    "lattice.triangle.calls": "count",
    "lattice.triangle.self_s": "s",
    "surface.h0.calls": "count",
    "surface.h0.hits": "count",
    "surface.h0.misses": "count",
    "surface.h0.hit_ratio": "ratio",
    "surface.h0.self_s": "s",
    "ehrhart.coefficients.calls": "count",
    "ehrhart.coefficients.self_s": "s",
    "fracsum.frac_sum.calls": "count",
    "fracsum.frac_sum.terms": "count",
    "fracsum.frac_sum.self_s": "s",
    "fracsum.reduce_chain.calls": "count",
    "fracsum.reduce_chain.self_s": "s",
    "fracsum.calibrated_delta.calls": "count",
    "threshold.gamma_search.calls": "count",
    "threshold.gamma_search.self_s": "s",
    "threshold.classify_surface.self_s": "s",
    "verify.sweep_one.self_s": "s",
    "verify.margin_general.calls": "count",
    "verify.margin_general.self_s": "s",
    "verify.margin_at_multiple.calls": "count",
    "verify.margin_at_multiple.self_s": "s",
    "verify.cells": "count",
    "verify.calibrate_delta.self_s": "s",
    "verify.calibrate_delta.instances": "count",
    "cli.main.self_s": "s",
    "cli.output_bytes": "bytes",
    "families.solve_family.self_s": "s",
    "trace.overhead_s": "s",
}


def log(message: str) -> None:
    print(message, file=sys.stderr)


def set_up(workload: str, seed: int, times: list[float]):
    """Import the library afresh and generate the inputs, SETUPS_PER_PASS times.

    Appends each set-up's duration at the reference speed to ``times``;
    returns the last program and its invocations.
    """
    generated = []
    before = reference_reading()
    for _ in range(SETUPS_PER_PASS):
        start = time.perf_counter()
        program = load_program(SRC)
        invocations = WORKLOADS[workload](program.package, seed)
        seconds = time.perf_counter() - start
        after = reference_reading()
        times.append(at_reference_speed(seconds, (before + after) / 2))
        before = after
        generated.append(invocations)
    if any(invocations != other for other in generated):
        raise RuntimeError(f"{workload} inputs differ between set-ups at seed {seed}")
    return program, invocations


def failures(records, golden: dict) -> list[str]:
    out = [f"{' '.join(r.argv)}: {r.error}" for r in records if r.error is not None]
    return out + golden_mismatches(records, golden)


def timed_run(workload: str, seconds: int, seed: int, golden: dict) -> dict:
    """Set up and run whole passes, at least MIN_PASSES, while the next one is
    due to end within ``seconds``.

    Times are at the reference speed (see harness.py).  Each invocation's
    latency is its median over the passes, and setup_s is the median set-up.
    """
    setup_times, passes = [], []
    start = time.perf_counter()
    longest = 0.0
    while len(passes) < MIN_PASSES or time.perf_counter() - start + longest <= seconds:
        began = time.perf_counter()
        program, invocations = set_up(workload, seed, setup_times)
        if passes and [i.argv for i in invocations] != [r.argv for r in passes[0]]:
            raise RuntimeError(f"{workload} inputs differ between passes at seed {seed}")
        passes.append(run_pass(program, invocations))
        longest = max(longest, time.perf_counter() - began)
    latency = latency_summary([[record.scaled for record in records] for records in passes])
    records = [record for records in passes for record in records]
    failed = failures(records, golden)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": latency["wall"],
        "call_p50_ms": 1000 * latency["p50"],
        "call_tail_ms": 1000 * latency["tail"],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    calls = len(passes[0])
    log(f"{workload} seed {seed}: {len(passes)} passes of {calls} calls, "
        f"{len(setup_times)} set-ups; pass walls measured "
        f"{[round(sum(r.seconds for r in p), 3) for p in passes]} s, "
        f"at the reference speed {[round(sum(r.scaled for r in p), 3) for p in passes]} s")
    log(f"call_tail_ms is the p{tail_percentile(calls):.1f} of {calls} per-call median latencies")
    log(f"fail_ratio {len(failed)}/{len(records)} = {len(failed) / len(records)}")
    for line in failed[:10]:
        log(f"FAILED {line}")
    return {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()
        },
    }


def traced_run(workload: str, seed: int, golden: dict) -> dict:
    program, invocations = set_up(workload, seed, [])
    metrics, traced, untraced, leftovers = trace_pass(
        program, invocations, generate=lambda: WORKLOADS[workload](program.package, seed),
    )
    problems = self_check(metrics, traced, untraced)
    problems += [f"not restored: {name}" for name in leftovers]
    records = untraced + traced
    failed = failures(records, golden)
    for name in sorted(metrics):
        log(f"{name:45s} {metrics[name]}")
    for line in failed[:10] + problems:
        log(f"FAILED {line}")
    return {
        "correct": not failed and not problems,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {
            name: {"value": metrics.get(name, 0), "unit": unit} for name, unit in PER_LAYER.items()
        },
    }


def write_golden(workload: str, seed: int) -> None:
    """Record the output digest of every invocation of one pass at this seed."""
    program, invocations = set_up(workload, seed, [])
    records = run_pass(program, invocations)
    errors = [f"{' '.join(r.argv)}: {r.error}" for r in records if r.error is not None]
    if errors:
        raise RuntimeError(f"refusing to record failing outputs: {errors[:3]}")
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    golden[workload] = {
        "seed": seed,
        "digests": {" ".join(r.argv): r.digest for r in records},
    }
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="record this seed's output digests in bench/golden.json and exit")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        if args.write_golden:
            write_golden(args.workload, args.seed)
            return 0
        golden = json.loads(GOLDEN.read_text())[args.workload]["digests"]
        if args.trace:
            result = traced_run(args.workload, args.seed, golden)
        else:
            result = timed_run(args.workload, args.seconds, args.seed, golden)
    except ImportError as exc:
        log(f"bench: cannot import effcone from {SRC}: {exc}")
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
