"""Run effcone CLI invocations in-process, one at a time, as fresh processes.

A user's CLI call is a fresh process, so before every invocation the harness
collects garbage and empties the ``h0`` cache (and refuses to go on if it is
not empty).  Only the ``effcone.cli.main(argv)`` call itself is timed; the
output checks and digests run outside the timed region.

The host's CPU speed swings by up to about 1.5x for seconds to minutes at a
time (other tenants of the machine), and the guest cannot see it: process
time swings with wall time.  So a pass also times a fixed pure-Python
reference kernel before the first call and after every call, and a call's
latency is reported at the reference speed: its measured time scaled by
``REFERENCE_SECONDS`` over the kernel's time around the call.  A program
change moves the call's time but not the kernel's, so it shows in full; a
swing of the host's speed moves both and cancels.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import io
import json
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from workloads import CheckFailure, Invocation

#: A latency quantile is taken at the highest rank with this many samples above it.
TAIL_BEYOND = 10

#: The reference kernel's time at the reference speed: its fastest reading on
#: a 2-vCPU Xeon (Sapphire Rapids, KVM guest) with Python 3.11.7.  Scaled
#: times read as seconds on that host when it is quiet.
REFERENCE_SECONDS = 0.0200


def _reference_kernel() -> int:
    """Fixed work in two halves of about 10 ms each: integer arithmetic shaped
    like the library's row scans, which tracks the core's speed, then building
    and dropping some 4 MB of small objects, which tracks the memory system
    the large payloads lean on."""
    total = 0
    edges = ((3, 7, 11), (5, 2, 13), (17, 19, 4))
    for y in range(24000):
        for a, b, d in edges:
            xn = a + b * y
            if xn * d < y * 7 + total % 97:
                total += xn // d
            else:
                total -= 1
    rows = [(i, str(i), [i]) for i in range(20000)]
    return total + sum(len(row[1]) for row in rows)


def reference_reading() -> float:
    """Seconds the reference kernel takes now."""
    start = time.perf_counter()
    _reference_kernel()
    return time.perf_counter() - start


def at_reference_speed(seconds: float, reading: float) -> float:
    """``seconds`` measured while the kernel read ``reading``, at the reference speed."""
    return seconds * REFERENCE_SECONDS / reading


@dataclass
class Program:
    """The freshly imported package, its modules and the undecorated ``h0``."""

    package: object
    modules: dict  # module name ("cli", "surface", ...) -> module
    h0: object  # the lru_cache function itself, kept apart from any wrapper

    @property
    def namespaces(self) -> list:
        """The package and every submodule: each place a name can be looked up."""
        return [self.package, *self.modules.values()]


def load_program(src: Path) -> Program:
    """Import ``effcone`` and its CLI afresh from ``src``.

    Raises ImportError when ``src`` holds no effcone package, rather than
    falling back to some other copy on the path.
    """
    for name in [name for name in sys.modules if name == "effcone" or name.startswith("effcone.")]:
        del sys.modules[name]
    src = src.resolve()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    package = importlib.import_module("effcone")
    importlib.import_module("effcone.cli")
    origin = Path(package.__file__).resolve()
    if src not in origin.parents:
        raise ImportError(f"effcone was imported from {origin}, not from {src}")
    modules = {
        name.split(".", 1)[1]: module
        for name, module in sorted(sys.modules.items())
        if name.startswith("effcone.")
    }
    return Program(package=package, modules=modules, h0=modules["surface"].h0)


@dataclass
class CallRecord:
    """What one invocation did: its latency, exit code, output and counts."""

    argv: tuple[str, ...]
    seconds: float
    code: int | None
    digest: str
    nbytes: int
    h0_hits: int
    h0_misses: int
    counts: dict = field(default_factory=dict)
    error: str | None = None
    reference: float | None = None  # the kernel's reading around the call, if taken

    @property
    def scaled(self) -> float:
        """The latency at the reference speed (needs ``reference``)."""
        return at_reference_speed(self.seconds, self.reference)


def run_call(program: Program, invocation: Invocation) -> CallRecord:
    """Run one invocation against an empty ``h0`` cache and check its output."""
    gc.collect()
    program.h0.cache_clear()
    if program.h0.cache_info().currsize != 0:
        raise RuntimeError("the h0 cache is not empty before an invocation")
    out, err = io.StringIO(), io.StringIO()
    error = None
    main = program.modules["cli"].main  # looked up per call: the tracer may wrap it
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(invocation.argv))
    except SystemExit as exc:  # argparse rejects bad flags by exiting
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # any crash is one failed invocation, not a crashed run
        code, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    info = program.h0.cache_info()
    data = out.getvalue().encode("utf-8")
    counts = {}
    if error is None and code != 0:
        error = f"exit {code}: {err.getvalue().strip()}"
    if error is None:
        try:
            counts = invocation.check(json.loads(data))
        except (CheckFailure, ValueError, KeyError, TypeError) as exc:
            error = f"output check: {type(exc).__name__}: {exc}"
    return CallRecord(
        argv=invocation.argv, seconds=seconds, code=code,
        digest=hashlib.sha256(data).hexdigest(), nbytes=len(data),
        h0_hits=info.hits, h0_misses=info.misses, counts=counts, error=error,
    )


def run_pass(program: Program, invocations: list[Invocation]) -> list[CallRecord]:
    """Run the invocations in order; each record's ``reference`` is the mean of
    the kernel's readings just before and just after its call."""
    records = []
    before = reference_reading()
    for invocation in invocations:
        record = run_call(program, invocation)
        after = reference_reading()
        record.reference = (before + after) / 2
        records.append(record)
        before = after
    return records


def tail_rank(samples: int) -> int:
    """0-based rank of the highest quantile with TAIL_BEYOND samples above it."""
    if samples <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} samples, got {samples}")
    return samples - TAIL_BEYOND - 1


def latency_summary(passes: list[list[float]]) -> dict:
    """wall (the sum), median and tail of call latencies over whole passes, in seconds.

    ``passes`` holds each pass's latencies, call by call in the same order;
    each call counts at its median over the passes.
    """
    ordered = sorted(statistics.median(latencies) for latencies in zip(*passes))
    return {
        "wall": sum(ordered),
        "p50": statistics.median(ordered),
        "tail": ordered[tail_rank(len(ordered))],
    }


def tail_percentile(samples: int) -> float:
    """The percentile :func:`tail_rank` reads: the share of samples at or below it."""
    return 100.0 * (tail_rank(samples) + 1) / samples


def golden_mismatches(records: list[CallRecord], golden: dict) -> list[str]:
    """Invocations whose output digest differs from the captured one.

    Invocations with no captured digest (argv another seed drew) are skipped.
    """
    out = []
    for record in records:
        expected = golden.get(" ".join(record.argv))
        if expected is not None and expected != record.digest:
            out.append(f"{' '.join(record.argv)}: digest {record.digest[:12]} != {expected[:12]}")
    return out
