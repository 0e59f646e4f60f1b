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

import numpy as np

from .errors import DomainError, UsageError, require_int, require_real
from .objective import HypothesisCertificate, StochasticProblem, row_dot, sq_norm
from .schedule import ConstantSchedule, Schedule


@dataclass(frozen=True, eq=False)
class DnSeries:
    """Monte Carlo estimate of d_n for n = 0..steps: the result of a run.

    ``mean[n]`` is the mean of ||x_n - x*||^2 over the replications and
    ``stderr[n]`` its sample standard deviation divided by
    sqrt(replications), zero for a single replication; both are the
    step_stats of each part of the replications, merged by merge_parts, so
    they keep their bits whatever the order of the replications;
    ``in_region_fraction[n]`` is the share of replications whose iterate was
    still inside the certified ball.  The paths are not kept: replication i
    can be replayed from ``seeds[i]``, and ``final_x[i]`` is its last
    iterate.
    """

    seeds: tuple[int, ...]
    mean: np.ndarray
    stderr: np.ndarray
    in_region_fraction: np.ndarray
    final_x: np.ndarray

    @property
    def replications(self) -> int:
        return len(self.seeds)

    @property
    def steps(self) -> int:
        return self.mean.shape[0] - 1


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


# Values copied, sorted and summed at once by step_stats; bounds its
# temporaries.  A chunk's height does not change the bits of its row sums.
_STATS_CHUNK = 1 << 16
# A row whose sum is not finite is summed again scaled by 2^-_RESCALE, which
# brings any finite value, its deviations and their squares inside the range.
_RESCALE = 600


def stats_chunk_steps(rows: int) -> int:
    """Steps of ``rows`` values each that step_stats sorts and sums at once."""
    return max(1, _STATS_CHUNK // rows)


def _sorted_stats(ordered: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error of each row of ``ordered``, a C-contiguous
    (rows, n) array sorted along axis 1.

    The values and their squared deviations from the mean are summed with
    np.add.reduce along each row, pairwise, with the bits of the row summed
    alone.  A row whose values are all equal gets an exact mean and a
    standard error of exactly zero.  A row whose sum is not finite, of the
    values or of their squared deviations (one that overflows, or whose
    pairwise halves overflow to -inf and +inf and add to NaN), is summed
    again with its values scaled by 2^-_RESCALE; its deviations are then
    taken between scaled values, so they cannot overflow.  It keeps its
    plain mean where that is finite, and every other row keeps the bits of
    the plain sums.
    """
    count = ordered.shape[1]
    constant = ordered[:, 0] == ordered[:, -1]
    with np.errstate(over="ignore", invalid="ignore"):
        mean = np.add.reduce(ordered, axis=1) / count
        squares = ordered - mean[:, None]
        np.multiply(squares, squares, out=squares)
        total = np.add.reduce(squares, axis=1)
        stderr = np.sqrt(total / max(count - 1, 1) / count)
        redo = np.flatnonzero(~(np.isfinite(total) | constant))
        if redo.shape[0]:
            scaled = np.ldexp(ordered[redo], -_RESCALE)
            centre = np.add.reduce(scaled, axis=1) / count
            kept = mean[redo]
            mean[redo] = np.where(np.isfinite(kept), kept, np.ldexp(centre, _RESCALE))
            np.subtract(scaled, centre[:, None], out=scaled)
            np.multiply(scaled, scaled, out=scaled)
            total = np.add.reduce(scaled, axis=1)
            stderr[redo] = np.ldexp(np.sqrt(total / max(count - 1, 1) / count), _RESCALE)
    return np.where(constant, ordered[:, 0], mean), np.where(constant, 0.0, stderr)


def step_stats(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error of each row of a step-major block.

    ``block[n]`` holds one value per replication.  The steps are taken in
    chunks of stats_chunk_steps(replications), each copied in C order and
    sorted along its rows, and _sorted_stats sums every sorted row pairwise
    on its own, so the result does not depend on the order or the memory
    layout of the replications nor on how the steps are split into blocks.
    Constant rows (a single replication included) get an exact mean and a
    standard error of exactly zero, and a row of finite values whose sums
    would overflow is summed scaled by an exact power of two, so its mean
    and standard error stay finite wherever they are finite doubles.
    """
    steps, rows = block.shape
    mean = np.empty(steps)
    stderr = np.empty(steps)
    chunk = stats_chunk_steps(rows)
    for lo in range(0, steps, chunk):
        ordered = np.array(block[lo:lo + chunk], order="C")
        ordered.sort(axis=1)
        mean[lo:lo + chunk], stderr[lo:lo + chunk] = _sorted_stats(ordered)
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


def bound_sequence(
    d0: float,
    schedule: Schedule,
    cert: HypothesisCertificate,
    steps: int,
) -> np.ndarray:
    """Evaluate the one-step envelope b_0..b_steps, as a read-only array.

    Each update is computed in deviation form around the per-step fixed point
    rate * B / mu, so a sequence started exactly at the constant-rate fixed
    point stays there exactly and the distance to it contracts by precisely
    (1 - rate * mu) per step.
    """
    d0 = require_real(d0, "d0", strict=False)
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
    return values


def _compare(dn: DnSeries, steps: np.ndarray, upper, z: float) -> tuple[int, int | None, float]:
    """Test mean_n <= upper_n + z * stderr_n on ``steps``, a non-empty
    increasing array of steps, with ``upper`` a scalar or one bound per step.

    Returns the number of violating steps, the first of them (None if there
    is none) and the smallest slack upper_n + z * stderr_n - mean_n.
    """
    slack = upper + z * dn.stderr[steps] - dn.mean[steps]
    bad = np.flatnonzero(slack < 0.0)
    first = int(steps[bad[0]]) if bad.shape[0] else None
    return bad.shape[0], first, float(np.min(slack))


def check_recurrence(dn: DnSeries, bounds: np.ndarray, z: float = 3.0) -> Verdict:
    """Check that the estimated d_n never exceeds the envelope significantly.

    A step violates when mean_n > b_n + z * stderr_n.  Steps where any
    replication left the certified region are excluded from the comparison
    and reported in the context, because the certificate does not cover them.
    """
    z = require_real(z, "z")
    if bounds.shape != dn.mean.shape:
        raise UsageError("bound sequence and d_n series cover different horizons")
    checked = np.flatnonzero(dn.in_region_fraction == 1.0)
    excluded = dn.mean.shape[0] - checked.shape[0]
    if not checked.shape[0]:
        context = f"no step had all replications in region ({excluded} steps excluded)"
        return Verdict(True, None, float("nan"), context)
    violations, first, worst = _compare(dn, checked, bounds[checked], z)
    context = (
        f"checked {checked.shape[0]}/{dn.mean.shape[0]} steps at z={z:g}, "
        f"{excluded} excluded by region exits, {violations} violations"
    )
    return Verdict(violations == 0, first, worst, context)


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
    rate_n * mu < 1 every factor of the range from n on is positive.
    """
    if schedule.rates(n, 1)[0] * mu >= 1.0:
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
    tol_rel = require_real(tol_rel, "tol_rel", strict=False)
    theta = schedule.rho * cert.grad_sq_bound / cert.strong_convexity
    threshold = theta * (1.0 + tol_rel)
    tail = np.arange(horizon + 1 - window, horizon + 1)
    violations, first, worst = _compare(dn, tail, threshold, 3.0)
    context = (
        f"theta={theta:.6g}, threshold={threshold:.6g}, window={window}, "
        f"{violations} violations"
    )
    return Verdict(violations == 0, first, worst, context)


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
    steps, thresholds = (np.array(column) for column in zip(*cleaned))
    violations, first, worst = _compare(dn, steps, thresholds, 3.0)
    context = f"{len(cleaned)} checkpoints, {violations} violations"
    return Verdict(violations == 0, first, worst, context)


# Terms of the lemma range evaluated at once by product_decay.  A multiple of
# 8 and at least 128, so every part is one that numpy's pairwise summation
# of the whole range would also sum on its own.  At k = 5e6, 2^15-term parts
# evaluated in place took about three quarters of the time of 2^16-term parts
# with fresh temporaries.
_LEMMA_CHUNK = 1 << 15


def _range_sums(schedule: Schedule, mu: float, first: int, count: int) -> tuple[float, float]:
    """Sums of log1p(-t) and of t over t = rate_l * mu, l = first..first+count-1.

    Splits the range the way numpy's pairwise summation splits an array, at
    half its length rounded down to a multiple of 8, until a part holds at
    most _LEMMA_CHUNK terms, and sums each part with np.sum: the result has
    the bits of np.sum over the whole range, in O(_LEMMA_CHUNK) memory.  A
    part is evaluated in place, in two arrays of its length.
    """
    if count > _LEMMA_CHUNK:
        half = count // 2
        half -= half % 8
        log_left, lin_left = _range_sums(schedule, mu, first, half)
        log_right, lin_right = _range_sums(schedule, mu, first + half, count - half)
        return log_left + log_right, lin_left + lin_right
    terms = schedule.rates(first, count)
    np.multiply(terms, mu, out=terms)
    logs = np.negative(terms)
    np.log1p(logs, out=logs)
    return np.sum(logs), np.sum(terms)


def product_decay(schedule: Schedule, mu: float, n: int, k: int) -> ProductDecay:
    """Product of (1 - rate_l * mu) for l = n..n+k, against its majorant.

    The product is evaluated in the log domain, exp of the sum of
    log1p(-rate_l * mu), and paired with the analytic majorant
    exp(-sum of rate_l * mu), which dominates it because log(1 - t) <= -t.
    A range whose first factor has rate_n * mu >= 1 leaves the domain of the
    lemma; validate_lemma refuses it.  The range is summed in parts of
    bounded length, so memory does not grow with k.
    """
    mu = require_real(mu, "mu")
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
    estimate must also agree with the closed form <x - x*, grad F(x)>, F
    the mean loss, within five standard errors.  A margin that is not
    finite fails the point, which then reports a NaN margin.
    """
    samples = require_int(samples, "samples", 100)
    x = np.asarray(x, dtype=float)
    gap = x - cert.region_center
    gap_sq = float(sq_norm(gap))
    if gap_sq > cert.region_radius * cert.region_radius:
        raise UsageError("x lies outside the certified region")
    noise = problem.noise_block(rng, samples)
    # A value or statistic that overflows shows in the verdict, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        ordered = np.ascontiguousarray(problem.sorted_alignment(noise, x, gap))
        estimate, stderr = (float(stat[0]) for stat in _sorted_stats(ordered[None]))
        closed_form = float(row_dot(gap, problem.mean_loss_and_gradient(x)[1]))
    required = 0.5 * cert.strong_convexity * gap_sq
    descent_margin = estimate - (required - 3.0 * stderr)
    agreement_margin = 5.0 * stderr - abs(estimate - closed_form)
    worst = min(descent_margin, agreement_margin)
    if not (math.isfinite(descent_margin) and math.isfinite(agreement_margin)):
        worst = math.nan
    passed = worst >= 0.0
    context = (
        f"estimate={estimate:.6g}, required={required:.6g}, stderr={stderr:.3g}, "
        f"closed_form={closed_form:.6g}, samples={samples}"
    )
    return Verdict(
        passed=passed,
        first_violation_index=None if passed else 0,
        worst_margin=worst,
        context=context,
    )
