"""Estimation of d_n and the envelopes of the convergence guarantees.

Given the per-step statistics of replicated runs this module estimates d_n,
the mean squared distance to the optimum at step n, and evaluates the
one-step envelope that ``sgdcheck.checks`` compares it against

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

from .errors import DomainError, require_int, require_real
from .objective import HypothesisCertificate
from .schedule import Schedule


@dataclass(frozen=True, eq=False)
class DnSeries:
    """Monte Carlo estimate of d_n for n = 0..steps: the result of a run.

    ``mean[n]`` is the mean of ||x_n - x*||^2 over the replications and
    ``stderr[n]`` its sample standard deviation divided by
    sqrt(replications), zero for a single replication; both are the
    step_stats of parts of the replications sorted by seed, merged by
    merge_parts, so they keep their bits whatever the order of the seeds;
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
class ProductDecay:
    """Contraction product over a step range and its analytic majorant."""

    product: float
    majorant: float
    log_product: float
    log_majorant: float


# A row whose sum is not finite is summed again scaled by 2^-_RESCALE, which
# brings any finite value, its deviations and their squares inside the range.
_RESCALE = 600


def step_stats(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error of each row of a step-major block.

    ``block[n]`` holds one value per replication, in the order the caller
    fixes (the engine's is ascending seed order).  The values and their
    squared deviations from the mean are summed with np.add.reduce along
    each row, pairwise, with the bits of the row summed alone, whatever the
    memory layout of the block or its split into steps (np.einsum sums rows
    wider than 8192 values in buffers of 8192); the block is not written to.
    A row whose values are all equal (a single replication included) gets an
    exact mean and a standard error of exactly zero.  A row whose sum is not
    finite, of the values or of their squared deviations (one that
    overflows, or whose pairwise halves overflow to -inf and +inf and add to
    NaN), is summed again with its values scaled by 2^-_RESCALE; its
    deviations are then taken between scaled values, so they cannot
    overflow.  It keeps its plain mean where that is finite, and every other
    row keeps the bits of the plain sums.
    """
    values = np.ascontiguousarray(block)
    count = values.shape[1]
    low = np.minimum.reduce(values, axis=1)
    constant = low == np.maximum.reduce(values, axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = np.add.reduce(values, axis=1) / count
        squares = values - mean[:, None]
        np.multiply(squares, squares, out=squares)
        total = np.add.reduce(squares, axis=1)
        stderr = np.sqrt(total / max(count - 1, 1) / count)
        redo = np.flatnonzero(~(np.isfinite(total) | constant))
        if redo.shape[0]:
            scaled = np.ldexp(values[redo], -_RESCALE)
            centre = np.add.reduce(scaled, axis=1) / count
            kept = mean[redo]
            mean[redo] = np.where(np.isfinite(kept), kept, np.ldexp(centre, _RESCALE))
            np.subtract(scaled, centre[:, None], out=scaled)
            np.multiply(scaled, scaled, out=scaled)
            total = np.add.reduce(scaled, axis=1)
            stderr[redo] = np.ldexp(np.sqrt(total / max(count - 1, 1) / count), _RESCALE)
    return np.where(constant, low, mean), np.where(constant, 0.0, stderr)


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


def validate_lemma(schedule: Schedule, mu: float, n: int) -> None:
    """Refuse a lemma range whose factors leave the domain, before any run.

    Both schedule kinds are non-increasing, in floating point too, so when
    rate_n * mu < 1 every factor of the range from n on is positive.
    """
    if schedule.rates(n, 1)[0] * mu >= 1.0:
        raise DomainError(f"rate({n}) * mu >= 1; every factor must stay positive")


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
