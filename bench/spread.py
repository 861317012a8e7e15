"""Run one workload over several seeds and report each end-to-end metric's spread.

    python3 bench/spread.py --workload deep-ehrhart --seeds 1-10

Each run is a separate ``bench/run.py`` process, one after another.  For every
metric it prints the median and the quartile spread (Q3 - Q1) / median of the
runs, next to the metric's bound from BENCHMARK.json and a third of it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"), help="FIRST-LAST")
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    args = parser.parse_args()
    runs = []
    for seed in args.seeds:
        command = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        done = subprocess.run(command, capture_output=True, text=True, check=True, cwd=ROOT)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(done.stderr, file=sys.stderr)
            return 1
        runs.append({name: m["value"] for name, m in result["metrics"].items()})
        print(f"seed {seed}: " + ", ".join(f"{k} {v:.4g}" for k, v in runs[-1].items()), flush=True)
    if len(runs) < 2:
        return 0
    for metric in config["end_to_end"]:
        values = [run[metric["name"]] for run in runs]
        print(f"{metric['name']:14s} median {statistics.median(values):10.4f} "
              f"{metric['unit']:4s} spread {spread(values):.4f}  bound {metric['bound']}  "
              f"third {metric['bound'] / 3:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
