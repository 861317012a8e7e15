"""Fractional-part sums and their exact mediant-style reduction machinery.

The central object is the deficit

    deficit(beta, u, alpha) = (u+1)(beta-1)/(2*beta) - sum_{j=0}^{u} {alpha*j/beta}

for coprime alpha, beta and 0 <= u < beta, i.e. how far the partial
fractional-part sum falls short of its equidistributed average.  A single
reduction step replaces (alpha0, beta0) by a smaller pair (alpha1, beta1)
with alpha1*beta0 - beta1*alpha0 = sigma = +-1 at the cost of an explicit
rational correction (:func:`step_error`); chaining steps down to (1, 2)
evaluates the deficit in closed form (:func:`reduce_chain`).

The step error carries an integer jump Delta.  ``"paper"`` takes it from the
published condition; ``"calibrated"`` takes the value that makes the step
identity exact, which is always 0:

Theorem.  If alpha1*beta0 - beta1*alpha0 = sigma = +-1 with 1 <= beta1 <
beta0 and u0 = beta1*t + u < beta0 with 0 <= u < beta1, then
deficit(beta0, u0, alpha0) = deficit(beta1, u, alpha1) + E, where E is the
Delta-free step error.

Proof (the Euclid step of Dedekind-sum reciprocity).  For j = beta1*t' + u'
<= u0 with 0 <= u' < beta1, alpha0*j/beta0 = alpha1*t' + alpha1*u'/beta1 -
sigma*e with e = j/(beta0*beta1) in [0, 1/beta1).  As gcd(alpha1, beta1) = 1,
{alpha1*u'/beta1} lies in [1/beta1, 1 - 1/beta1] unless u' = 0, so the shift
by -sigma*e leaves [0, 1) only when u' = 0, t' >= 1 and sigma = 1:
{alpha0*j/beta0} = {alpha1*u'/beta1} - sigma*e + [sigma = 1, u' = 0, t' >= 1].
Summed over j <= u0: the t full blocks give t(beta1-1)/2, the last block the
sum S1 of {alpha1*u'/beta1} over u' <= u, the e terms
-sigma*u0(u0+1)/(2*beta0*beta1), and the bracket t*[sigma = 1].  S1 is the
sum inside deficit(beta1, u, alpha1), so it cancels, and 2*beta0*beta1 times
the deficit difference is (u+1)(sigma*u + beta0 - beta1) + t*beta1*(sigma*
beta1*t + sigma*(2u+1) - beta1 + beta0 - 2*beta0*[sigma = 1]).  As beta0 -
2*beta0*[sigma = 1] = -sigma*beta0, that is 2*beta0*beta1*E.  (For beta1 = 1
every u' is 0.)

``verify.calibrate_delta`` certifies the per-term identity above, the floor
form floor(alpha1*j/beta1) - floor(alpha0*j/beta0) = [sigma = 1, beta1 | j,
j > 0] for 0 <= j < beta0, for every partner pair of its grid, and finds the
published jump wrong on a documented set of sigma = -1 steps.  It checks
each pair's +-1 determinant, one multiplication, from which the identity
follows for any beta1 >= 1 (the lemma and its proof are in
``verify._check_partners``).  The tests check the theorem independently, by
back-solving the jump from two deficits and by the per-instance residue-sum
loop that calibration replaced, and the determinant check against the value
check that came before it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .numerics import Frozen, floor_sum_linear, require_int

__all__ = [
    "frac_sum",
    "deficit",
    "step_error",
    "step_error_bounds",
    "StepErrorBounds",
    "paper_delta",
    "calibrated_delta",
    "DELTA_POLICIES",
    "ReductionChain",
    "ReductionStep",
    "ReductionTrace",
    "reduce_chain",
    "standard_chain",
]

DELTA_POLICIES = ("paper", "calibrated")


def frac_sum(alpha: int, beta: int, u: int) -> Fraction:
    """sum_{j=0}^{u} {alpha*j/beta}, exactly, in O(log beta) steps.

    Since (alpha*j mod beta) = alpha*j - beta*floor(alpha*j/beta), the
    numerator is alpha*u(u+1)/2 - beta*sum_{j<=u} floor(alpha*j/beta), and
    the floor sum is one :func:`~effcone.numerics.floor_sum_linear` call.
    ``alpha`` may be any integer, ``beta`` any positive integer, ``u >= 0``.
    The closed forms of this module are tested against it, and it against
    the term-by-term sum kept in the test suite's ``frac_sum_direct``.
    """
    require_int("alpha", alpha)
    require_int("beta", beta, 1)
    require_int("u", u, 0)
    return Fraction(_residue_sum(alpha, beta, u), beta)


def _residue_sum(alpha: int, beta: int, u: int) -> int:
    """sum_{j=0}^{u} (alpha*j mod beta), :func:`frac_sum` times beta (unchecked)."""
    return alpha * (u * (u + 1) // 2) - beta * floor_sum_linear(u + 1, beta, alpha, 0)


def deficit(beta: int, u: int, alpha: int) -> Fraction:
    """(u+1)(beta-1)/(2*beta) - sum_{j=0}^{u} {alpha*j/beta}.

    Requires gcd(alpha, beta) = 1 and 0 <= u < beta: the deficit compares a
    single period's partial sum against the equidistributed mean.

    >>> deficit(2, 0, 1)
    Fraction(1, 4)
    >>> deficit(5, 1, 2)
    Fraction(2, 5)
    """
    require_int("beta", beta, 1)
    require_int("u", u)
    require_int("alpha", alpha)
    if gcd(alpha, beta) != 1:
        raise ValueError(f"require gcd(alpha, beta) = 1, got ({alpha}, {beta})")
    if not 0 <= u < beta:
        raise ValueError(f"require 0 <= u < beta, got u = {u}, beta = {beta}")
    return Fraction((u + 1) * (beta - 1), 2 * beta) - frac_sum(alpha, beta, u)


def _step_error_base(sigma: int, t: int, u: int, beta0: int, beta1: int) -> Fraction:
    """The Delta-free part of the one-step reduction error, over 2*beta0*beta1."""
    return Fraction((u + 1) * (sigma * u + beta0 - beta1)
                    + sigma * t * beta1 * (beta1 * (t - sigma) + 2 * u + 1 - beta0),
                    2 * beta0 * beta1)


def _check_step(sigma: int, t: int, u: int, beta0: int, beta1: int) -> None:
    """The range of one reduction step: sigma = +-1, t >= 0, 0 <= u < beta1 < beta0."""
    require_int("sigma", sigma)
    require_int("u", u)
    require_int("beta0", beta0)
    require_int("beta1", beta1)
    if sigma not in (-1, 1):
        raise ValueError(f"sigma must be +-1, got {sigma}")
    if not 0 <= u < beta1 < beta0:
        raise ValueError(
            f"require 0 <= u < beta1 < beta0, got u = {u}, beta1 = {beta1}, beta0 = {beta0}"
        )
    require_int("t", t, 0)


def paper_delta(sigma: int, t: int, u: int, beta0: int, beta1: int) -> int:
    """The literal published jump condition: 1 iff sigma = -1 and
    beta0 - beta1 <= beta1*t + u.  Takes the inputs of :func:`step_error`
    and refuses the same ones; unlike :func:`calibrated_delta`, it allows
    u0 = beta1*t + u >= beta0."""
    _check_step(sigma, t, u, beta0, beta1)
    return 1 if sigma == -1 and beta0 - beta1 <= beta1 * t + u else 0


def calibrated_delta(sigma: int, t: int, u: int, beta0: int, beta1: int) -> int:
    """The jump that makes the one-step reduction identity exact: 0 by the
    module's theorem, for every partner pair.  Takes the inputs of
    :func:`step_error`; raises ``ValueError`` unless gcd(beta0, beta1) = 1
    (a partner pair exists) and beta1*t + u < beta0 (u0 is in range)."""
    _check_step(sigma, t, u, beta0, beta1)
    g = gcd(beta0, beta1)
    if g != 1:
        raise ValueError(f"require gcd(beta0, beta1) = 1, got gcd({beta0}, {beta1}) = {g}")
    u0 = beta1 * t + u
    if u0 >= beta0:
        raise ValueError(
            f"calibrated jump needs beta1*t + u < beta0, got {u0} >= {beta0}"
        )
    return 0


def step_error(
    sigma: int, t: int, u: int, beta0: int, beta1: int, delta: str = "paper"
) -> Fraction:
    """Error of one reduction step from denominator beta0 down to beta1.

    Evaluates
        (u+1)(sigma*u + beta0 - beta1)/(2*beta0*beta1)
        + sigma*t*(beta1*(t - sigma) + 2u + 1 - beta0)/(2*beta0)
        + Delta
    for sigma = +-1 and 0 <= u < beta1 < beta0, with Delta chosen by
    ``delta``: the published condition (``"paper"``) or, after the range
    check of :func:`calibrated_delta`, 0 (``"calibrated"``).

    >>> step_error(1, 0, 1, 5, 2)
    Fraction(2, 5)
    >>> step_error(-1, 0, 1, 5, 2)
    Fraction(1, 5)
    """
    # Each policy checks the range itself, and a bad range is refused before
    # an unknown policy.
    if delta == "calibrated":
        jump = calibrated_delta(sigma, t, u, beta0, beta1)
    elif delta == "paper":
        jump = paper_delta(sigma, t, u, beta0, beta1)
    else:
        _check_step(sigma, t, u, beta0, beta1)
        raise ValueError(f"unknown delta policy {delta!r}; expected one of {DELTA_POLICIES}")
    return _step_error_base(sigma, t, u, beta0, beta1) + jump


class StepErrorBounds(Frozen):
    """Published range bounds for the one-step error at fixed (sigma, beta0, beta1).

    ``upper_small`` for sigma = -1 is the published constant, which is not an
    upper bound; see :func:`step_error_bounds` for where it fails and the
    sharp constant that replaces it.
    """

    def __init__(self, lower: Fraction, upper_small: Fraction, upper_large: Fraction) -> None:
        # upper_small: regime u + beta1*t < beta0 - beta1 (sigma = -1 only)
        self.__dict__.update(lower=lower, upper_small=upper_small, upper_large=upper_large)


def step_error_bounds(sigma: int, beta0: int, beta1: int) -> StepErrorBounds:
    """The published lower/upper bounds on the step error over admissible (t, u).

    For sigma = +1 both uppers coincide.  For sigma = -1 the small-regime
    upper applies when u + beta1*t < beta0 - beta1 and the large-regime
    upper is the trivial 1.  These are the bounds as published, and the
    small-regime sigma = -1 upper is false.  Write d = beta0 - beta1 and
    v = u + beta1*t.  In that regime the jump is 0 and the step error is
    (v+1)(d-v)/(2*beta0*beta1), so it exceeds the published
    (d+3)(d-1)/(8*beta0*beta1) by (4 - (d-1-2v)^2)/(8*beta0*beta1).  That is
    positive exactly at the v nearest the peak (d-1)/2: one v, by
    1/(2*beta0*beta1), when d is odd, and two v, by 3/(8*beta0*beta1), when
    d is even.  The sharp upper is floor((d+1)^2/4)/(2*beta0*beta1), attained
    at every (beta0, beta1).  The published value is returned unchanged.
    """
    require_int("sigma", sigma)
    require_int("beta0", beta0)
    require_int("beta1", beta1)
    if sigma not in (-1, 1):
        raise ValueError(f"sigma must be +-1, got {sigma}")
    if not 2 <= beta1 < beta0:
        raise ValueError(f"require 2 <= beta1 < beta0, got ({beta1}, {beta0})")
    if sigma == 1:
        lower = Fraction(-((beta0 + beta1 - 1) ** 2) + 4 * (beta0 - beta1), 8 * beta0 * beta1)
        upper = Fraction(beta0 - 1, 2 * beta0)
        return StepErrorBounds(lower=lower, upper_small=upper, upper_large=upper)
    lower = Fraction(beta0 - beta1, 2 * beta0 * beta1)
    upper_small = Fraction(
        (beta0 - beta1 + 3) * (beta0 - beta1 - 1), 8 * beta0 * beta1
    )
    return StepErrorBounds(lower=lower, upper_small=upper_small, upper_large=Fraction(1))


class ReductionChain(Frozen):
    """A decreasing sequence of coprime pairs linked by +-1 determinants.

    A chain is nothing but its pairs: ``pairs[0]`` is the head (alpha_0,
    beta_0), and ``sigmas[i]``, worked out from them, is the determinant
    alpha_{i+1}*beta_i - beta_{i+1}*alpha_i of the link from pairs[i] to
    pairs[i+1], which must be +-1.  A head put in front by :meth:`prepend`
    gets its link sign the same way.

    The betas must strictly decrease on every link (each step's Euclidean
    division needs it) and the alphas on every link but the last, where a
    repeat such as (1, 3) -> (1, 2) is legal: given the determinant and the
    beta drop, alpha_i <= alpha_{i-1} holds automatically, and the terminal
    pair plays no further role in any division.
    """

    def __init__(self, pairs: tuple[tuple[int, int], ...]) -> None:
        if not pairs:
            raise ValueError("chain needs at least one (alpha, beta) pair")
        for alpha, beta in pairs:
            require_int("alpha", alpha)
            require_int("beta", beta)
            if alpha < 1 or beta < 1:
                raise ValueError(f"pairs must be positive, got ({alpha}, {beta})")
        a0, b0 = pairs[0]
        if gcd(a0, b0) != 1:
            raise ValueError(f"head pair ({a0}, {b0}) is not coprime")
        sigmas = []
        last = len(pairs) - 1
        for i in range(1, len(pairs)):
            ap, bp = pairs[i - 1]
            ai, bi = pairs[i]
            if not (bi < bp and (ai < ap or (i == last and ai <= ap))):
                raise ValueError(
                    f"pairs must strictly decrease, got ({ap}, {bp}) -> ({ai}, {bi})"
                )
            det = ai * bp - bi * ap
            if det not in (-1, 1):
                raise ValueError(f"link {i} determinant {det} is not +-1")
            sigmas.append(det)
        self.__dict__.update(pairs=pairs, sigmas=tuple(sigmas))

    def prepend(self, alpha0: int, beta0: int) -> "ReductionChain":
        """The chain with (alpha0, beta0) in front: its link sign is worked
        out like every other, alpha_1*beta0 - beta_1*alpha0."""
        return ReductionChain(pairs=((alpha0, beta0),) + self.pairs)


class ReductionStep(Frozen):
    """One executed link: the target pair, its sigma, the Euclidean split
    u_prev = beta*t + u, and the incurred error."""

    def __init__(self, alpha: int, beta: int, sigma: int, t: int, u: int, error: Fraction) -> None:
        self.__dict__.update(alpha=alpha, beta=beta, sigma=sigma, t=t, u=u, error=error)


class ReductionTrace(Frozen):
    """One run of a chain: its executed steps in order, the deficit of the
    terminal pair, and ``total``, the terminal deficit plus every step error
    (the head's deficit when the identity is exact)."""

    def __init__(self, steps: tuple[ReductionStep, ...], terminal: Fraction,
                 total: Fraction) -> None:
        self.__dict__.update(steps=steps, terminal=terminal, total=total)


def reduce_chain(chain: ReductionChain, u0: int, delta: str = "calibrated") -> ReductionTrace:
    """Run the chain: deficit(beta_0, u0, alpha_0) = terminal + sum of step errors.

    Under the calibrated policy the identity is exact (every jump is 0, by
    the module's theorem); under the paper policy the total can drift from
    the true deficit by the documented jump disagreements.  When the chain
    ends at (1, 2) the terminal deficit is 1/4 (if u_N = 0) or 0 (if u_N = 1).
    """
    a0, b0 = chain.pairs[0]
    require_int("u0", u0)
    if not 0 <= u0 < b0:
        raise ValueError(f"require 0 <= u0 < beta_0 = {b0}, got {u0}")
    steps = []
    u_prev = u0
    total_error = Fraction(0)
    for i in range(1, len(chain.pairs)):
        alpha, beta = chain.pairs[i]
        sigma = chain.sigmas[i - 1]
        t, u = divmod(u_prev, beta)
        err = step_error(sigma, t, u, chain.pairs[i - 1][1], beta, delta=delta)
        steps.append(ReductionStep(alpha=alpha, beta=beta, sigma=sigma, t=t, u=u, error=err))
        total_error += err
        u_prev = u
    alpha_n, beta_n = chain.pairs[-1]
    terminal = deficit(beta_n, u_prev, alpha_n)
    return ReductionTrace(steps=tuple(steps), terminal=terminal, total=terminal + total_error)


def standard_chain(entry: int, k: int) -> ReductionChain:
    """The four published reduction chains, parametrized by k, as their
    (alpha, beta) pairs; the link signs are the pairs' determinants.

    They are published without the surface-dependent head.  A surface
    P(4, b, c) with m = -p goes in front by ``prepend(m, b)``, and the new
    link's sign alpha*b - beta*m, for the chain's head (alpha, beta), is the
    side tau from which b/m approaches beta/alpha.

    Entry 1 requires k >= 2 (its tail pair (k-1, 2k-1) degenerates at
    k = 1).  Entry 3 at k = 1 produces (1, 4) -> (1, 3) -> (1, 2), whose
    repeated alpha on a non-final link fails chain validation; it is
    rejected loudly rather than silently repaired.
    """
    require_int("entry", entry)
    require_int("k", k, 1)
    if entry == 1:
        if k < 2:
            raise ValueError("entry 1 requires k >= 2")
        pairs = (
            (8 * k * k - 4 * k - 1, 16 * k * k),
            (4 * k * k - 4 * k + 1, 8 * k * k - 4 * k + 1),
            (4 * k - 3, 8 * k - 2),
            (k - 1, 2 * k - 1),
            (1, 2),
        )
    elif entry == 2:
        pairs = (
            (8 * k * k + 4 * k - 1, 4 * (2 * k + 1) ** 2),
            (4 * k * k, 8 * k * k + 4 * k + 1),
            (4 * k - 1, 8 * k + 2),
            (k, 2 * k + 1),
            (1, 2),
        )
    elif entry == 3:
        pairs = ((2 * k - 1, 4 * k), (k, 2 * k + 1), (1, 2))
    elif entry == 4:
        pairs = ((k, 2 * k + 1), (1, 2))
    else:
        raise ValueError(f"entry must be in 1..4, got {entry}")
    return ReductionChain(pairs=pairs)
