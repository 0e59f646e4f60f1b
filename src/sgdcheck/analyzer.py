"""Estimation and verification of the convergence guarantees.

Given the per-step statistics of replicated runs this module estimates d_n,
the mean squared distance to the optimum at step n, and compares it against
the one-step envelope

    b_0 = d_0,    b_{n+1} = (1 - rate_n * mu) * b_n + rate_n^2 * B,

where mu and B come from a hypothesis certificate.  For a constant rate rho
with rho * mu < 1 the envelope has the fixed point rho * B / mu, which is the
asymptotic neighborhood the constant-rate guarantee promises; for decaying
rates whose series diverges the envelope drops to zero, which the product
lemma below quantifies.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError, UsageError, require_int
from .objective import HypothesisCertificate, StochasticProblem, row_dot, sq_norm
from .schedule import ConstantSchedule, Schedule

if TYPE_CHECKING:
    from .engine import ReplicationSummary


@dataclass(frozen=True, eq=False)
class DnSeries:
    """Monte Carlo estimate of d_n for n = 0..steps.

    ``stderr`` is the sample standard deviation over replications divided by
    sqrt(replications); ``in_region_fraction`` is the share of replications
    whose iterate was still inside the certified ball at each step.
    """

    replications: int
    mean: np.ndarray
    stderr: np.ndarray
    in_region_fraction: np.ndarray

    @property
    def steps(self) -> int:
        return self.mean.shape[0] - 1


@dataclass(frozen=True, eq=False)
class BoundSequence:
    """Envelope values b_0..b_steps together with the constants that built them."""

    values: np.ndarray
    d0: float
    strong_convexity: float
    grad_sq_bound: float


@dataclass(frozen=True)
class Verdict:
    """Outcome of one check.

    ``worst_margin`` is the most negative slack observed (positive when the
    check passes with room to spare); ``first_violation_index`` is the step
    of the first violation and is None exactly when the check passes.
    """

    passed: bool
    first_violation_index: int | None
    worst_margin: float
    context: str


@dataclass(frozen=True)
class ProductDecay:
    """Contraction product over a step range and its analytic majorant."""

    product: float
    majorant: float
    log_product: float
    log_majorant: float


# Values sorted and summed at once by step_stats; bounds its temporaries.
_STATS_CHUNK = 1 << 16
# Rows whose sum overflows are summed again scaled by 2^-_RESCALE, which
# brings any finite value and its square well inside the float range.
_RESCALE = 600


def stats_chunk_steps(rows: int) -> int:
    """Steps of ``rows`` values each that step_stats sorts and sums at once."""
    return max(1, _STATS_CHUNK // rows)


def _row_totals(values: np.ndarray, square: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Left-to-right sum of each row of ``values``, or of their squares.

    Returns the sums and, per row, the exponent e such that the sum is the
    one of values * 2^-e: 0, or _RESCALE for a row whose plain sum
    overflows, which is summed again scaled.
    """
    with np.errstate(over="ignore"):
        work = np.multiply(values, values) if square else values.copy()
        np.add.accumulate(work, axis=1, out=work)
    totals = work[:, -1].copy()
    over = np.isinf(totals)
    shift = np.where(over, _RESCALE, 0).astype(np.intc)
    if over.any():
        scaled = np.ldexp(values[over], -_RESCALE)
        if square:
            np.multiply(scaled, scaled, out=scaled)
        totals[over] = np.add.accumulate(scaled, axis=1)[:, -1]
    return totals, shift


def step_stats(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error of each row of a step-major block.

    ``block[n]`` holds one value per replication.  Every row is sorted and
    then summed strictly left to right, for the mean and for the squared
    deviations alike, so the result does not depend on the order of the
    replications nor on how the steps are split into blocks.  Constant rows
    (a single replication included) get an exact mean and a standard error of
    exactly zero.  A row of finite values whose sum or sum of squared
    deviations would overflow is summed scaled by an exact power of two, so
    its mean and standard error stay finite; every other row keeps its bits.
    """
    steps, rows = block.shape
    mean = np.empty(steps)
    stderr = np.empty(steps)
    chunk = stats_chunk_steps(rows)
    for lo in range(0, steps, chunk):
        ordered = np.sort(block[lo:lo + chunk], axis=1)
        constant = ordered[:, 0] == ordered[:, -1]
        total, shift = _row_totals(ordered)
        part = np.where(constant, ordered[:, 0], np.ldexp(total / rows, shift))
        # The deviations overwrite the sorted values.
        np.subtract(ordered, part[:, None], out=ordered)
        total, shift = _row_totals(ordered, square=True)
        root = np.ldexp(np.sqrt(total / max(rows - 1, 1) / rows), shift)
        mean[lo:lo + chunk] = part
        stderr[lo:lo + chunk] = np.where(constant, 0.0, root)
    return mean, stderr


def merge_parts(means: np.ndarray, stderrs: np.ndarray, sizes) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error of each step over parts of the replications.

    Row j of ``means`` and ``stderrs`` is the step_stats of part j, of
    ``sizes[j]`` replications.  The parts are merged in order with the
    pairwise update of Chan, Golub & LeVeque (1979), written on standard
    errors: each one's share of the merged root sum of squared deviations
    is a factor of at most one, and np.hypot adds the shares without
    squaring them, so for values of one sign nothing overflows where the
    merged statistics are finite.  A single part is returned unchanged, and
    steps on which every part has the same mean and a zero standard error
    keep that mean exactly, with a standard error of exactly zero.
    """
    mean, stderr, n = means[0], stderrs[0], sizes[0]
    for part_mean, part_stderr, k in zip(means[1:], stderrs[1:], sizes[1:]):
        total = n + k
        scale = total * (total - 1)
        delta = part_mean - mean
        spread = np.hypot(
            stderr * math.sqrt(n * (n - 1) / scale), part_stderr * math.sqrt(k * (k - 1) / scale)
        )
        stderr = np.hypot(spread, delta * (math.sqrt(n * k / (total - 1)) / total))
        mean = mean + delta * (k / total)
        n = total
    return mean, stderr


def estimate_dn(runs: ReplicationSummary) -> DnSeries:
    """The d_n estimate with standard errors of a set of replications.

    Needs at least two replications.  The statistics were folded step by
    step while the replications ran, independently of their order.
    """
    count = runs.replications
    if count < 2:
        raise UsageError("estimating d_n needs at least two replications")
    fraction = runs.in_region_count / count
    fraction.flags.writeable = False
    return DnSeries(
        replications=count,
        mean=runs.sq_dist_mean,
        stderr=runs.sq_dist_stderr,
        in_region_fraction=fraction,
    )


def bound_sequence(
    d0: float,
    schedule: Schedule,
    cert: HypothesisCertificate,
    steps: int,
) -> BoundSequence:
    """Evaluate the one-step envelope for ``steps`` updates.

    Each update is computed in deviation form around the per-step fixed point
    rate * B / mu, so a sequence started exactly at the constant-rate fixed
    point stays there exactly and the distance to it contracts by precisely
    (1 - rate * mu) per step.
    """
    d0 = float(d0)
    if not math.isfinite(d0) or d0 < 0.0:
        raise UsageError("d0 must be a finite real >= 0")
    steps = require_int(steps, "steps", 1)
    mu = cert.strong_convexity
    grad_bound = cert.grad_sq_bound
    values = np.empty(steps + 1)
    values[0] = d = d0
    for n, rate in enumerate(schedule.rates(0, steps).tolist(), start=1):
        pivot = rate * grad_bound / mu
        d = (1.0 - rate * mu) * (d - pivot) + pivot
        values[n] = d
    values.flags.writeable = False
    return BoundSequence(values=values, d0=d0, strong_convexity=mu, grad_sq_bound=grad_bound)


def check_recurrence(dn: DnSeries, bounds: BoundSequence, z: float = 3.0) -> Verdict:
    """Check that the estimated d_n never exceeds the envelope significantly.

    A step violates when mean_n > b_n + z * stderr_n.  Steps where any
    replication left the certified region are excluded from the comparison
    and reported in the context, because the certificate does not cover them.
    """
    z = float(z)
    if not math.isfinite(z) or z <= 0.0:
        raise UsageError("z must be a finite positive real")
    if bounds.values.shape != dn.mean.shape:
        raise UsageError("bound sequence and d_n series cover different horizons")
    checked = dn.in_region_fraction == 1.0
    slack = bounds.values + z * dn.stderr - dn.mean
    excluded = int(np.count_nonzero(~checked))
    if not checked.any():
        return Verdict(
            passed=True,
            first_violation_index=None,
            worst_margin=float("nan"),
            context=f"no step had all replications in region ({excluded} steps excluded)",
        )
    violations = checked & (slack < 0.0)
    n_violations = int(np.count_nonzero(violations))
    worst = float(np.min(slack[checked]))
    first = int(np.flatnonzero(violations)[0]) if n_violations else None
    context = (
        f"checked {int(np.count_nonzero(checked))}/{slack.shape[0]} steps at z={z:g}, "
        f"{excluded} excluded by region exits, {n_violations} violations"
    )
    return Verdict(
        passed=n_violations == 0,
        first_violation_index=first,
        worst_margin=worst,
        context=context,
    )


def validate_neighborhood(
    cert: HypothesisCertificate, schedule: Schedule, window: int, horizon: int
) -> int:
    """Check that the neighborhood claim applies to a run; returns the window.

    Needs only the certificate, the schedule and the horizon, so a run can be
    refused before any replication starts.
    """
    if not isinstance(schedule, ConstantSchedule):
        raise UsageError("the neighborhood check applies to constant schedules only")
    if schedule.rho * cert.strong_convexity >= 1.0:
        raise UsageError("the neighborhood claim needs rho * mu < 1")
    window = require_int(window, "window", 1)
    if window > horizon + 1:
        raise UsageError(f"window {window} exceeds the horizon of {horizon} steps")
    return window


def validate_lemma(schedule: Schedule, mu: float, n: int) -> None:
    """Refuse a lemma range whose factors leave the domain, before any run.

    Both schedule kinds are non-increasing, in floating point too, so when
    rate(n) * mu < 1 every factor of the range from n on is positive.
    """
    if schedule.rate(n) * mu >= 1.0:
        raise DomainError(f"rate({n}) * mu >= 1; every factor must stay positive")


def check_neighborhood(
    dn: DnSeries,
    cert: HypothesisCertificate,
    schedule: Schedule,
    window: int,
    tol_rel: float,
) -> Verdict:
    """Check the constant-rate neighborhood claim on the final window.

    The claim bounds the limit superior of d_n by theta = rho * B / mu, so on
    the last ``window`` steps the estimate must satisfy
    mean_n <= theta * (1 + tol_rel) + 3 * stderr_n.
    """
    horizon = dn.steps
    window = validate_neighborhood(cert, schedule, window, horizon)
    rho = schedule.rho
    mu = cert.strong_convexity
    tol_rel = float(tol_rel)
    if not math.isfinite(tol_rel) or tol_rel < 0.0:
        raise UsageError("tol_rel must be a finite real >= 0")
    theta = rho * cert.grad_sq_bound / mu
    threshold = theta * (1.0 + tol_rel)
    tail = slice(horizon + 1 - window, horizon + 1)
    slack = threshold + 3.0 * dn.stderr[tail] - dn.mean[tail]
    bad = slack < 0.0
    n_bad = int(np.count_nonzero(bad))
    first = int(horizon + 1 - window + np.flatnonzero(bad)[0]) if n_bad else None
    context = (
        f"theta={theta:.6g}, threshold={threshold:.6g}, window={window}, "
        f"{n_bad} violations"
    )
    return Verdict(
        passed=n_bad == 0,
        first_violation_index=first,
        worst_margin=float(np.min(slack)),
        context=context,
    )


def validate_checkpoints(points, horizon: int) -> list[tuple[int, float]]:
    """Check (step, threshold) checkpoints against a horizon; returns them cleaned.

    Steps must be integers in [0, horizon], strictly increasing, and
    thresholds finite positive reals.
    """
    cleaned: list[tuple[int, float]] = []
    try:
        for n, threshold in points:
            if (isinstance(n, bool) or not isinstance(n, (int, np.integer))
                    or not 0 <= n <= horizon):
                raise UsageError(f"checkpoint step {n!r} is not an integer in [0, {horizon}]")
            if cleaned and n <= cleaned[-1][0]:
                raise UsageError("checkpoints must be strictly increasing in step")
            if (isinstance(threshold, bool)
                    or not isinstance(threshold, (int, float, np.integer, np.floating))
                    or not math.isfinite(threshold) or threshold <= 0.0):
                raise UsageError("checkpoints must have finite positive thresholds")
            cleaned.append((int(n), float(threshold)))
    except OverflowError:
        # An integer threshold too large for a float.
        raise UsageError("checkpoints must have finite positive thresholds") from None
    except (TypeError, ValueError):
        raise UsageError("checkpoints must be (step, threshold) pairs") from None
    if not cleaned:
        raise UsageError("at least one checkpoint is required")
    return cleaned


def check_convergence(dn: DnSeries, checkpoints) -> Verdict:
    """Check d_n estimates against (step, threshold) checkpoints.

    The checkpoints must pass validate_checkpoints over the horizon of
    ``dn``; each one passes when mean_step <= threshold + 3 * stderr_step.
    """
    cleaned = validate_checkpoints(checkpoints, dn.steps)
    worst = math.inf
    first = None
    failures = 0
    for n, threshold in cleaned:
        slack = threshold + 3.0 * float(dn.stderr[n]) - float(dn.mean[n])
        worst = min(worst, slack)
        if slack < 0.0:
            failures += 1
            if first is None:
                first = n
    context = f"{len(cleaned)} checkpoints, {failures} violations"
    return Verdict(
        passed=failures == 0,
        first_violation_index=first,
        worst_margin=worst,
        context=context,
    )


# Terms of the lemma range evaluated at once by product_decay.  A multiple of
# 8 and at least 128, so every part is one that numpy's pairwise summation
# of the whole range would also sum on its own.
_LEMMA_CHUNK = 1 << 16


def _range_sums(schedule: Schedule, mu: float, first: int, count: int) -> tuple[float, float]:
    """Sums of log1p(-t) and of t over t = rate_l * mu, l = first..first+count-1.

    Splits the range the way numpy's pairwise summation splits an array, at
    half its length rounded down to a multiple of 8, until a part holds at
    most _LEMMA_CHUNK terms, and sums each part with np.sum: the result has
    the bits of np.sum over the whole range, in O(_LEMMA_CHUNK) memory.
    """
    if count > _LEMMA_CHUNK:
        half = count // 2
        half -= half % 8
        log_left, lin_left = _range_sums(schedule, mu, first, half)
        log_right, lin_right = _range_sums(schedule, mu, first + half, count - half)
        return log_left + log_right, lin_left + lin_right
    terms = schedule.rates(first, count) * mu
    return np.sum(np.log1p(-terms)), np.sum(terms)


def product_decay(schedule: Schedule, mu: float, n: int, k: int) -> ProductDecay:
    """Product of (1 - rate_l * mu) for l = n..n+k, against its majorant.

    The product is evaluated in the log domain, exp of the sum of
    log1p(-rate_l * mu), and paired with the analytic majorant
    exp(-sum of rate_l * mu), which dominates it because log(1 - t) <= -t.
    A range whose first factor has rate_n * mu >= 1 leaves the domain of the
    lemma; validate_lemma refuses it.  The range is summed in parts of
    bounded length, so memory does not grow with k.
    """
    mu = float(mu)
    if not math.isfinite(mu) or mu <= 0.0:
        raise UsageError("mu must be a finite positive real")
    n = require_int(n, "n", 0)
    k = require_int(k, "k", 0)
    validate_lemma(schedule, mu, n)
    log_sum, rate_sum = _range_sums(schedule, mu, n, k + 1)
    log_product = float(log_sum)
    log_majorant = float(-rate_sum)
    return ProductDecay(
        product=math.exp(log_product),
        majorant=math.exp(log_majorant),
        log_product=log_product,
        log_majorant=log_majorant,
    )


def _mean_and_stderr(values: np.ndarray) -> tuple[float, float]:
    ordered = np.sort(values)
    if ordered[0] == ordered[-1]:
        return float(ordered[0]), 0.0
    mean = float(ordered.mean())
    deviations = ordered - mean
    variance = float(deviations @ deviations) / (ordered.shape[0] - 1)
    return mean, math.sqrt(variance / ordered.shape[0])


def check_descent_inequality(
    problem: StochasticProblem,
    cert: HypothesisCertificate,
    x,
    samples: int,
    rng,
) -> Verdict:
    """Check the expected descent alignment at one in-region point.

    Estimates E<x - x*, pointwise_gradient(noise, x)> by Monte Carlo and
    requires it to reach (mu / 2) * ||x - x*||^2 minus three standard errors,
    which is what strong convexity promises for the mean gradient.  The
    estimate must also agree with the closed form
    <x - x*, mean_gradient(x)> within five standard errors.
    """
    samples = require_int(samples, "samples", 100)
    x = np.asarray(x, dtype=float)
    gap = x - cert.region_center
    gap_sq = float(sq_norm(gap))
    if gap_sq > cert.region_radius * cert.region_radius:
        raise UsageError("x lies outside the certified region")
    noise = problem.noise_block(rng, samples)
    values = np.asarray(problem.gradient_alignment(noise, x, gap))
    estimate, stderr = _mean_and_stderr(values)
    required = 0.5 * cert.strong_convexity * gap_sq
    closed_form = float(row_dot(gap, problem.mean_gradient(x)))
    descent_margin = estimate - (required - 3.0 * stderr)
    agreement_margin = 5.0 * stderr - abs(estimate - closed_form)
    passed = descent_margin >= 0.0 and agreement_margin >= 0.0
    context = (
        f"estimate={estimate:.6g}, required={required:.6g}, stderr={stderr:.3g}, "
        f"closed_form={closed_form:.6g}, samples={samples}"
    )
    return Verdict(
        passed=passed,
        first_violation_index=None if passed else 0,
        worst_margin=min(descent_margin, agreement_margin),
        context=context,
    )
