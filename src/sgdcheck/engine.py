"""Seeded SGD runner with reproducible replications.

The update is the plain one: x drops by the current rate times the sampled
gradient, with no projection, averaging, or momentum.  Each replication owns
a counter-based generator keyed by a 64-bit seed, so trajectories are
bit-reproducible across runs and platforms and replications are independent
by construction.  Runs keep per-step statistics of the squared distance to
the optimum, not the paths themselves.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analyzer import step_stats
from .errors import DivergenceError, UsageError
from .objective import HypothesisCertificate, StochasticProblem, as_float_vector, sq_norm
from .schedule import Schedule

_MASK64 = (1 << 64) - 1
# Weyl increment and mixing constants of the SplitMix64 stream.
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _check_seed(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise UsageError(f"{name} must be an integer")
    value = int(value)
    if not 0 <= value <= _MASK64:
        raise UsageError(f"{name} must lie in [0, 2^64)")
    return value


def derive_seed(master_seed: int, index: int) -> int:
    """Per-replication seed: output ``index`` of a SplitMix64 stream.

    The stream state is master_seed + (index + 1) * gamma modulo 2^64 and the
    output is the standard SplitMix64 finalizer of that state.  The finalizer
    is a bijection and the states are distinct for distinct indices, so for a
    fixed master seed no two replications ever share a seed.
    """
    master_seed = _check_seed(master_seed, "master_seed")
    index = _check_seed(index, "index")
    z = (master_seed + (index + 1) * _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


class SeededGenerator:
    """Counter-based pseudo-random generator keyed by a 64-bit seed.

    Wraps the Philox 4x64 bit generator, whose keyed streams are documented
    with published test vectors and are stable across platforms.  Identical
    seeds reproduce identical draw sequences; distinct seeds give unrelated
    streams.
    """

    algorithm = "philox4x64"

    def __init__(self, seed: int):
        self.seed = _check_seed(seed, "seed")
        self._gen = np.random.Generator(np.random.Philox(key=self.seed))

    def uniform(self, low: float, high: float, size=None):
        return self._gen.uniform(low, high, size=size)

    def integers(self, upper: int, size=None):
        return self._gen.integers(0, upper, size=size)

    def normal(self, size=None):
        return self._gen.normal(size=size)


# Noise values held at once across all replications.  The horizon is cut into
# blocks of max(1, BLOCK_BUDGET // (replications * values per step)) steps, so
# the engine's working memory does not grow with the horizon.
BLOCK_BUDGET = 1 << 22


@dataclass(frozen=True, eq=False)
class ReplicationSummary:
    """Per-step statistics of replications run in lockstep.

    For n = 0..steps, ``sq_dist_mean[n]`` and ``sq_dist_stderr[n]`` are the
    mean of ||x_n - x*||^2 over the replications and its standard error, and
    ``in_region_count[n]`` is the number of replications whose iterate was
    inside the certified ball.  With a single seed the mean is that
    replication's own squared distance and the standard error is zero.  The
    paths are not kept: replication i can be replayed from ``seeds[i]``, and
    ``final_x[i]`` is its last iterate.
    """

    seeds: tuple[int, ...]
    steps: int
    sq_dist_mean: np.ndarray
    sq_dist_stderr: np.ndarray
    in_region_count: np.ndarray
    final_x: np.ndarray

    @property
    def replications(self) -> int:
        return len(self.seeds)


def _check_steps(steps) -> int:
    if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)) or steps < 1:
        raise UsageError("steps must be an integer >= 1")
    return int(steps)


def run_seeds(
    problem: StochasticProblem,
    schedule: Schedule,
    x0,
    steps: int,
    cert: HypothesisCertificate,
    seeds,
) -> ReplicationSummary:
    """Run one replication per seed for ``steps`` updates, all in lockstep.

    The replications advance together on stacked arrays.  Every
    floating-point operation on an iterate is elementwise, so replication i
    follows the same path whatever the other seeds are, and identical inputs
    give bit-identical results.  The horizon is cut into blocks: each
    generator draws the noise of the next block into one step-major buffer,
    and after the block its squared distances are folded into the per-step
    statistics and dropped.  Philox streams are counter based, so drawing
    block by block yields the same values as one draw for the whole horizon.
    Memory is O(R * (b * d + 1) + H) for R seeds, blocks of b steps, d noise
    values per step and H steps.

    Each step updates the iterates in place, with the same floating-point
    operations in the same order as x - rate * gradient.  Raises
    DivergenceError at the first step where any squared distance is no
    longer finite, naming the replication and its seed; the divergence scan
    runs once per block.
    """
    steps = _check_steps(steps)
    generators = [SeededGenerator(seed) for seed in seeds]
    if not generators:
        raise UsageError("at least one seed is required")
    seeds = tuple(gen.seed for gen in generators)
    count = len(seeds)
    x0 = as_float_vector(x0, problem.dimension, "x0")
    rates = schedule.rates(0, steps)
    center = cert.region_center
    radius_sq = cert.region_radius * cert.region_radius
    per_step = math.prod(problem.noise_shape)
    block = min(steps, max(1, BLOCK_BUDGET // (count * per_step)))

    mean = np.empty(steps + 1)
    stderr = np.empty(steps + 1)
    inside = np.empty(steps + 1, dtype=np.int64)

    def fold(rows: np.ndarray, first: int) -> None:
        span = slice(first, first + rows.shape[0])
        mean[span], stderr[span] = step_stats(rows)
        inside[span] = np.count_nonzero(rows <= radius_sq, axis=1)

    # The run owns x, a fresh copy of x0, and updates it in place.
    x = np.repeat(x0[None, :], count, axis=0)
    fold(sq_norm(x - center)[None, :], 0)
    noise = None
    sq_dist = np.empty((block, count))
    grad = np.empty_like(x)
    diff = np.empty_like(x)
    for start in range(0, steps, block):
        length = min(block, steps - start)
        for i, gen in enumerate(generators):
            draws = problem.noise_block(gen, length)
            if noise is None:
                noise = np.empty((block, count) + draws.shape[1:], dtype=draws.dtype)
            noise[:length, i] = draws
        # A block runs on past its first non-finite value; the scan below
        # reports that value, so overflow and NaN are not warned about here.
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(length):
                g = problem.pointwise_gradient(noise[k], x, out=grad)
                np.multiply(g, rates[start + k], out=g)
                np.subtract(x, g, out=x)
                np.subtract(x, center, out=diff)
                sq_norm(diff, out=sq_dist[k])
        # max propagates NaN and inf, so one reduction screens the block.
        if not np.isfinite(sq_dist[:length].max()):
            k, bad = map(int, np.argwhere(~np.isfinite(sq_dist[:length]))[0])
            raise DivergenceError(
                start + k + 1,
                f"non-finite iterate at step {start + k + 1} in replication {bad} "
                f"(seed {seeds[bad]})",
            )
        fold(sq_dist[:length], start + 1)

    for array in (mean, stderr, inside, x):
        array.flags.writeable = False
    return ReplicationSummary(
        seeds=seeds,
        steps=steps,
        sq_dist_mean=mean,
        sq_dist_stderr=stderr,
        in_region_count=inside,
        final_x=x,
    )


def run_replications(
    problem: StochasticProblem,
    schedule: Schedule,
    x0,
    steps: int,
    cert: HypothesisCertificate,
    master_seed: int,
    count: int,
) -> ReplicationSummary:
    """Run ``count`` replications seeded from ``master_seed`` in lockstep.

    Replication i uses derive_seed(master_seed, i); see run_seeds.
    """
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < 1:
        raise UsageError("count must be an integer >= 1")
    seeds = [derive_seed(master_seed, i) for i in range(int(count))]
    return run_seeds(problem, schedule, x0, steps, cert, seeds)
