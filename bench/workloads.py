"""Seeded CLI workloads and their output checks.

Each generator takes the freshly imported ``effcone`` package and a seed and
returns the list of CLI invocations of one pass.  The program sees only the
generated argv.  Seeds that change the inputs jitter each call inside a fixed
stratum of a design grid (and shuffle the call order), so every seed draws new
inputs while the spread of per-call work, and with it the latency quantiles,
stays comparable from seed to seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable

#: Share of a stratum over which the seed moves a design point (each way).
JITTER = 0.1

#: What ``calibrate-delta --beta-max 80`` reports; the library's value at the
#: commit the golden digests were captured from.
CALIBRATE_EXPECTED = {
    "instances": 210776,
    "matrix": {"agree_0": 158082, "agree_1": 0, "paper_0_true_1": 0, "paper_1_true_0": 52694},
}

NAMED_SURFACES = ((5, 7), (7, 9), (13, 23), (7, 13))


class CheckFailure(Exception):
    """A CLI payload does not say what it must."""


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its argv and the check its parsed JSON payload must pass.

    ``check`` raises :class:`CheckFailure` or returns counts taken from the
    payload (summed per pass by the harness).
    """

    argv: tuple[str, ...]
    check: Callable[[dict], dict] = field(compare=False)


def _jittered(rng: random.Random, index: int, strata: int) -> float:
    """A point of stratum ``index`` of [0, 1), moved by the seed around its centre."""
    return (index + 0.5 + JITTER * (2 * rng.random() - 1)) / strata


def _surface_arg(surface) -> str:
    return f"{surface.a},{surface.b},{surface.c}"


# -- pool-verify ---------------------------------------------------------------


def branch_members(effcone, k: int, branch: str, count) -> list[tuple[object, int]]:
    """Strict-interior members of one branch, from both endpoint families.

    ``count(endpoint)`` is how many members to ask the solver for.  Returns
    ``(surface, side)`` pairs, ``side`` 0 for the family converging to the
    lower endpoint and 1 for the upper one, in solver order.
    """
    lo, hi = effcone.branch_interval(k, branch)
    out = []
    for side, (tau, end) in enumerate(((1, lo), (-1, hi))):
        request = effcone.FamilyRequest(
            alpha=end.denominator, beta=end.numerator, tau=tau,
            count=count(end), interval=(lo, hi),
        )
        try:
            members = effcone.solve_family(request)
        except ValueError:
            continue
        out.extend((s, side) for s in members if s.bp_ratio not in (lo, hi))
    return out


def branch_pool(effcone) -> list:
    """The verification pool of the test-suite: the first two strict-interior
    members toward each endpoint of every branch with k <= 6, b <= 400,
    distinct by (b, c), ordered by (b, c)."""
    pool = {}
    for k in range(1, 7):
        for branch in effcone.BRANCHES:
            for surface, _ in branch_members(effcone, k, branch, lambda end: 2):
                if surface.b <= 400:
                    pool.setdefault((surface.b, surface.c), surface)
    return [pool[key] for key in sorted(pool)]


def check_verify(payload: dict) -> dict:
    aggregate = payload["aggregate"]
    if aggregate["min_margin"] < 1:
        raise CheckFailure(f"min_margin {aggregate['min_margin']} < 1")
    if aggregate["failure_count"] != 0:
        raise CheckFailure(f"failure_count {aggregate['failure_count']}")
    if aggregate["all_gamma_match"] is not True:
        raise CheckFailure("gamma search missed the prediction")
    return {"rows": sum(len(report["rows"]) for report in payload["reports"])}


def verify_invocation(surface, n_max: int) -> Invocation:
    argv = ("verify", "--surface", _surface_arg(surface), "--n-max", str(n_max), "--jobs", "1")
    return Invocation(argv, check_verify)


def pool_verify(effcone, seed: int) -> list[Invocation]:
    """One ``verify --n-max 200`` per pool surface and per named surface.

    The seed only shuffles the call order.
    """
    surfaces = branch_pool(effcone) + [effcone.make_surface(4, b, c) for b, c in NAMED_SURFACES]
    calls = [verify_invocation(surface, 200) for surface in surfaces]
    random.Random(seed).shuffle(calls)
    return calls


# -- deep-ehrhart --------------------------------------------------------------

EHRHART_CALLS = 40
EHRHART_B = (1000, 3000)
EHRHART_N = (10**4, 10**5)


def check_ehrhart(payload: dict) -> dict:
    if payload["exact_match"] is not True:
        raise CheckFailure(f"coefficients value {payload['value']} != h0 {payload['h0']}")
    return {}


def deep_ehrhart(effcone, seed: int) -> list[Invocation]:
    """``ehrhart`` at large dilations on k = 1 surfaces with 1000 <= b <= 3000.

    Design point i fixes the family (i mod 2), the branch ((i div 2) mod 4),
    the endpoint the surface converges to ((i div 8) mod 2) and stratum i of
    log n over [10^4, 10^5].  The seed picks the surface among that branch
    side's members and n inside its stratum.
    """
    rng = random.Random(seed)
    lo_b, hi_b = EHRHART_B
    candidates = {}
    for branch in effcone.BRANCHES:
        # Members come by increasing b, at most one per progression step of
        # the endpoint's numerator, so this count reaches past hi_b.
        for surface, side in branch_members(
            effcone, 1, branch, lambda end: hi_b // end.numerator + 2
        ):
            if lo_b <= surface.b <= hi_b:
                candidates.setdefault((branch, side), []).append(surface)
    log_lo, log_hi = (math.log(n) for n in EHRHART_N)
    calls = []
    for i in range(EHRHART_CALLS):
        family = "BC"[i % 2]
        branch = effcone.BRANCHES[(i // 2) % 4]
        surface = rng.choice(candidates[branch, (i // 8) % 2])
        n = round(math.exp(log_lo + _jittered(rng, i, EHRHART_CALLS) * (log_hi - log_lo)))
        argv = ("ehrhart", "--surface", _surface_arg(surface), "--family", family, "--n", str(n))
        calls.append(Invocation(argv, check_ehrhart))
    rng.shuffle(calls)
    return calls


# -- calibrate-reduce ----------------------------------------------------------

REDUCE_CALLS = 24
REDUCE_BETA = (10**5, 10**6)
#: 80, not 120: at 120 the one ``calibrate-delta`` call (about 3.5 s, 30 MB of
#: payload, 400 MB RSS) was three quarters of a pass, and its run-to-run
#: swings on a shared host set the spread of the whole workload.
CALIBRATE_BETA_MAX = 80


def check_calibrate(payload: dict) -> dict:
    for key, expected in CALIBRATE_EXPECTED.items():
        if payload[key] != expected:
            raise CheckFailure(f"calibrate-delta {key} {payload[key]} != {expected}")
    return {}


def check_reduce(payload: dict) -> dict:
    if payload["identity_exact"] is not True:
        raise CheckFailure(f"chain total {payload['total']} != {payload['deficit_direct']}")
    return {}


def _chain_parameter(entry: int, beta: float) -> int:
    """The k whose standard chain of this entry has head denominator nearest beta."""
    if entry == 1:  # beta0 = 16 k^2
        return max(2, round(math.sqrt(beta / 16)))
    if entry == 2:  # beta0 = 4 (2k + 1)^2
        return max(1, round((math.sqrt(beta / 4) - 1) / 2))
    if entry == 3:  # beta0 = 4 k
        return max(2, round(beta / 4))
    return max(1, round((beta - 1) / 2))  # entry 4: beta0 = 2k + 1


def calibrate_reduce(effcone, seed: int) -> list[Invocation]:
    """One ``calibrate-delta --beta-max 80 --instances`` and 24 ``reduce`` calls.

    Design point i fixes the chain entry (1 + i mod 4), stratum i of log
    beta0 over [10^5, 10^6] and stratum 7i mod 24 of u0/beta0 over [0, 1);
    the fixed pairing spreads u0 over the whole period at every scale.  The
    seed picks beta0 and u0 inside their strata.  The reduce calls use the
    default (calibrated) jump policy.
    """
    rng = random.Random(seed)
    calls = [
        Invocation(
            ("calibrate-delta", "--beta-max", str(CALIBRATE_BETA_MAX), "--instances"),
            check_calibrate,
        )
    ]
    log_lo, log_hi = (math.log(b) for b in REDUCE_BETA)
    for i in range(REDUCE_CALLS):
        entry = 1 + i % 4
        target = math.exp(log_lo + _jittered(rng, i, REDUCE_CALLS) * (log_hi - log_lo))
        k = _chain_parameter(entry, target)
        beta0 = effcone.standard_chain(entry, k).pairs[0][1]
        share = _jittered(rng, (7 * i) % REDUCE_CALLS, REDUCE_CALLS)
        u0 = min(beta0 - 1, int(share * beta0))
        argv = ("reduce", "--entry", str(entry), "--k", str(k), "--u0", str(u0))
        calls.append(Invocation(argv, check_reduce))
    rng.shuffle(calls)
    return calls


WORKLOADS = {
    "pool-verify": pool_verify,
    "deep-ehrhart": deep_ehrhart,
    "calibrate-reduce": calibrate_reduce,
}
