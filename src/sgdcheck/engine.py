"""Seeded SGD runner with reproducible replications.

The update is the plain one: x drops by the current rate times the sampled
gradient, with no projection, averaging, or momentum.  Each replication owns
a counter-based generator keyed by a 64-bit seed, so trajectories are
bit-reproducible across runs and platforms and replications are independent
by construction.  Runs keep per-step statistics of the squared distance to
the optimum, not the paths themselves.  Large runs step contiguous chunks of
their replications in forked worker processes, with the same bits.
"""
from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .analyzer import stats_chunk_steps, step_stats
from .errors import DivergenceError, UsageError, require_int
from .objective import HypothesisCertificate, StochasticProblem, as_float_vector, sq_norm
from .schedule import Schedule

_MASK64 = (1 << 64) - 1
# Weyl increment and mixing constants of the SplitMix64 stream.
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _check_seed(value, name: str) -> int:
    value = require_int(value, name, 0)
    if value > _MASK64:
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


@functools.cache
def _philox_key_type() -> type:
    """The seed-sequence type of a Philox generator keyed by a seed.

    ``Philox(key=seed)`` still builds a ``SeedSequence()`` from OS entropy
    that the keyed stream never uses.  Philox takes its key from the
    ``generate_state(2, np.uint64)`` of the sequence it is given, and this
    type returns ``[seed, 0]``, the key words of ``Philox(key=seed)``: the
    same key, counter and stream, without the entropy.  The type is built on
    first use, so importing the package does not import numpy.random.
    """
    from numpy.random.bit_generator import ISeedSequence

    class PhiloxKey(ISeedSequence):
        def __init__(self, seed: int):
            self.seed = seed

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 2 or np.dtype(dtype) != np.uint64:
                raise UsageError("a Philox key is two 64-bit words")
            return np.array([self.seed, 0], dtype=np.uint64)

    return PhiloxKey


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
        self._gen = np.random.Generator(np.random.Philox(seed=_philox_key_type()(self.seed)))

    def uniform(self, low: float, high: float, size=None):
        return self._gen.uniform(low, high, size=size)

    def random(self, out=None):
        """Uniform draws on [0, 1), one stream value each, written into
        ``out`` when given."""
        return self._gen.random(out=out)

    def integers(self, upper: int, size=None):
        return self._gen.integers(0, upper, size=size)

    def normal(self, size=None):
        return self._gen.normal(size=size)


# Replication seeds use indices below 2^32; auxiliary streams use indices
# above it so they can never collide with a replication stream.
_AUX_BASE = 1 << 32


def aux_generator(master_seed: int, stream: int) -> SeededGenerator:
    """Generator of auxiliary stream ``stream`` of a master seed.

    Streams 0 and 1 draw the descent check's points and samples, 2 the
    certificate audit and 3 the gradient check.
    """
    return SeededGenerator(derive_seed(master_seed, _AUX_BASE + stream))


# Noise values held at once across all replications.  The horizon is cut into
# blocks of max(1, BLOCK_BUDGET // (replications * values per step)) steps, so
# the engine's working memory does not grow with the horizon.
BLOCK_BUDGET = 1 << 22

# Iterate values (replications * dimension) that warrant a worker process of
# their own: run_seeds forks at most R * d // _PROCESS_VALUES workers.
_PROCESS_VALUES = 1 << 12

# Fold-run buffers of squared distances that workers share with the calling
# process, 8 MiB for R <= 2^16.  A worker steps up to _RUN_BUFFERS - 1 runs
# ahead of the fold, which absorbs a noise-block fill or a short stall of
# one core.
_RUN_BUFFERS = 16

# Bytes of the buffer in which each process keeps the iterates of its last
# few steps, whose squared distances are then computed in one pass.
_PATH_BYTES = 1 << 18


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


def _process_count(replications: int, dimension: int) -> int:
    """Processes that step ``replications`` iterates of ``dimension`` values.

    One per usable core, as long as each gets at least _PROCESS_VALUES
    iterate values and one replication.  One process is the caller itself;
    more are forked workers.  The caller also steps alone where os.fork is
    missing, and while other Python threads run: a forked child would copy
    any lock one of them holds.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return max(1, min(cores, replications, replications * dimension // _PROCESS_VALUES))


def _fold_runs(steps: int, block: int, run: int):
    """(first step, steps) of each fold run: the horizon is cut into noise
    blocks of ``block`` steps and each block into runs of ``run`` steps."""
    for start in range(0, steps, block):
        length = min(block, steps - start)
        for lo in range(0, length, run):
            yield start + lo, min(run, length - lo)


def _step_chunk(problem, seeds, x0, center, rates, block, run, buffers, final_x):
    """Step the replications of ``seeds`` over the horizon of ``rates``.

    A generator: it yields (first step, steps) for each of the fold runs of
    _fold_runs, after that run's squared distances are in
    ``buffers[r % len(buffers)]`` for run r, and it writes the last iterates
    into ``final_x`` before its last yield.  The noise comes in blocks of
    ``block`` steps and the runs are ``run`` steps long, both set from all R
    replications, so that every process cuts the horizon the same way.

    Each step writes its iterates into a path buffer of at most _PATH_BYTES,
    with the same floating-point operations as x - rate * gradient.  When
    the buffer is full, or the run ends, the held steps get their squared
    distances from one subtraction of the centers (one row per replication,
    built once, so the subtraction never broadcasts over the short trailing
    axis) and one sq_norm.
    """
    generators = [SeededGenerator(seed) for seed in seeds]
    count = len(generators)
    x = np.repeat(x0[None, :], count, axis=0)
    centers = np.repeat(center[None, :], count, axis=0)
    grad = np.empty_like(x)
    hold = max(1, min(run, _PATH_BYTES // x.nbytes))
    path = np.empty((hold,) + x.shape)
    noise = np.empty((block, count) + problem.noise_shape, dtype=problem.noise_dtype)
    steps = rates.shape[0]
    for r, (first, width) in enumerate(_fold_runs(steps, block, run)):
        lo = first % block
        if lo == 0:
            problem.fill_noise_block(generators, noise[:min(block, steps - first)])
        steps_noise = noise[lo:lo + width]
        if steps_noise.dtype.kind == "u":
            # Compact row indices are widened once per run; take would
            # convert them again at every step.
            steps_noise = steps_noise.astype(np.intp)
        sq_dist = buffers[r % len(buffers)]
        # A run of steps goes on past its first non-finite value; the scan
        # in run_seeds reports that value, so overflow and NaN are not
        # warned about here.
        with np.errstate(over="ignore", invalid="ignore"):
            for held in range(0, width, hold):
                span = min(hold, width - held)
                point = x
                for k in range(span):
                    g = problem.pointwise_gradient(steps_noise[held + k], point, out=grad)
                    np.multiply(g, rates[first + held + k], out=g)
                    point = np.subtract(point, g, out=path[k])
                np.copyto(x, point)
                diff = np.subtract(path[:span], centers, out=path[:span])
                sq_norm(diff, out=sq_dist[held:held + span])
        # The widened indices go before the run is folded.
        del steps_noise
        if first + width == steps:
            np.copyto(final_x, x)
        yield first, width


class _Worker:
    """A forked process that steps one chunk of replications.

    After each fold run the worker writes one byte to ``done``, then reads
    one byte from ``go``.  The parent writes ``ahead`` bytes at the start
    and one after each fold, so with ``ahead + 1`` run buffers the worker
    steps at most ``ahead`` runs ahead of the fold and never writes into a
    buffer the parent still folds.  EOF on ``go``, because the parent went
    away, stops the worker.
    """

    def __init__(self, pid: int, done: int, go: int, first: int, last: int):
        self.pid, self.done, self.go = pid, done, go
        self.replications = f"{first}..{last}"
        self.exit_code = None

    def wait(self) -> None:
        if not os.read(self.done, 1):
            self.stop(kill=False)
            self.fail()

    def fail(self):
        raise RuntimeError(
            f"the process stepping replications {self.replications} "
            f"exited with code {self.exit_code}"
        )

    def release(self) -> None:
        os.write(self.go, b"\0")

    def stop(self, kill: bool) -> int:
        """Close the pipes, kill the worker if asked, and reap it."""
        if self.exit_code is None:
            import signal

            os.close(self.done)
            os.close(self.go)
            if kill:
                os.kill(self.pid, signal.SIGKILL)
            self.exit_code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        return self.exit_code


def _fork_worker(work, ahead: int, first: int, last: int, siblings) -> _Worker:
    """Iterate the generator ``work()`` in a forked child process.

    The child ignores SIGINT, which the parent handles for it, and closes
    the pipe ends of ``siblings``.  Once its chunk is done it waits for EOF,
    so the parent can release every run it folds.  It leaves through
    os._exit: code 0 once its chunk is done or the parent went away, 1 on
    any error.
    """
    import signal

    done_read, done_write = os.pipe()
    go_read, go_write = os.pipe()
    os.write(go_write, b"\0" * ahead)
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            for fd in [done_read, go_write] + [fd for w in siblings for fd in (w.done, w.go)]:
                os.close(fd)
            for _ in work():
                os.write(done_write, b"\0")
                if not os.read(go_read, 1):
                    break
            else:
                while os.read(go_read, 1):
                    pass
            code = 0
        except BaseException:
            import traceback

            os.write(2, traceback.format_exc().encode())
        finally:
            os._exit(code)
    os.close(done_write)
    os.close(go_read)
    return _Worker(pid, done_read, go_write, first, last)


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
    floating-point operation on an iterate is elementwise or reduces one
    replication's own row, so replication i follows the same path whatever
    the other seeds are, and identical inputs give bit-identical results.
    The horizon is cut into blocks: the problem's fill_noise_block draws the
    next block of every generator into one step-major buffer.  Philox
    streams are counter based, so drawing block by block yields the same
    values as one draw for the whole horizon.  Within a block the steps run
    in runs of f = max(1, 2^16 // R) steps, the ones analyzer.step_stats
    sorts at once; after each run the squared distances are scanned for
    divergence, folded into the per-step statistics and dropped.  Row
    indices are kept in the noise buffer as the family draws them, in its
    compact unsigned type, and widened to np.intp one run at a time.
    Memory is O(R * b * d + 2^16 + H) for R seeds, blocks of b steps, d
    noise values per step and H steps.

    With more than one worker (_process_count), the seeds are cut into
    contiguous, near-equal chunks and a forked worker steps each one: it
    draws the noise of its own replications and writes their columns of
    every run's squared distances into one of _RUN_BUFFERS buffers shared
    with the calling process.  The caller keeps the divergence scan and the
    fold, over all R columns, so the result has the bits of one process.
    Any exception in the caller kills and reaps the workers.  Raises
    DivergenceError at the first step where any squared distance is no
    longer finite, naming the replication and its seed.
    """
    steps = require_int(steps, "steps", 1)
    seeds = tuple(_check_seed(seed, "seed") for seed in seeds)
    if not seeds:
        raise UsageError("at least one seed is required")
    count = len(seeds)
    dimension = problem.dimension
    x0 = as_float_vector(x0, dimension, "x0")
    rates = schedule.rates(0, steps)
    center = cert.region_center
    radius_sq = cert.region_radius * cert.region_radius
    per_step = math.prod(problem.noise_shape)
    block = min(steps, max(1, BLOCK_BUDGET // (count * per_step)))
    run = min(block, stats_chunk_steps(count))

    mean = np.empty(steps + 1)
    stderr = np.empty(steps + 1)
    inside = np.empty(steps + 1, dtype=np.int64)

    def fold(rows: np.ndarray, first: int) -> None:
        span = slice(first, first + rows.shape[0])
        mean[span], stderr[span] = step_stats(rows)
        inside[span] = np.count_nonzero(rows <= radius_sq, axis=1)

    fold(sq_norm(np.repeat((x0 - center)[None, :], count, axis=0))[None, :], 0)

    processes = _process_count(count, dimension)
    workers: list[_Worker] = []
    try:
        if processes == 1:
            buffers, final_x = [np.empty((run, count))], np.empty((count, dimension))
            runs = _step_chunk(problem, seeds, x0, center, rates, block, run, buffers, final_x)
        else:
            import mmap

            cells, ring = run * count, _RUN_BUFFERS
            shared = np.frombuffer(mmap.mmap(-1, 8 * (ring * cells + count * dimension)))
            buffers = [shared[i * cells:(i + 1) * cells].reshape(run, count) for i in range(ring)]
            final_x = shared[ring * cells:].reshape(count, dimension)
            bounds = [count * i // processes for i in range(processes + 1)]
            for lo, hi in zip(bounds, bounds[1:]):
                chunk = functools.partial(
                    _step_chunk, problem, seeds[lo:hi], x0, center, rates, block, run,
                    [buffer[:, lo:hi] for buffer in buffers], final_x[lo:hi],
                )
                workers.append(_fork_worker(chunk, ring - 1, lo, hi - 1, workers))
            runs = _fold_runs(steps, block, run)
        for r, (first, width) in enumerate(runs):
            for worker in workers:
                worker.wait()
            rows = buffers[r % len(buffers)][:width]
            # max propagates NaN and inf, so one reduction screens the run.
            if not np.isfinite(rows.max()):
                k, bad = map(int, np.argwhere(~np.isfinite(rows))[0])
                raise DivergenceError(
                    first + k + 1,
                    f"non-finite iterate at step {first + k + 1} in replication {bad} "
                    f"(seed {seeds[bad]})",
                )
            fold(rows, first + 1)
            for worker in workers:
                worker.release()
        for worker in workers:
            if worker.stop(kill=False):
                worker.fail()
    finally:
        for worker in workers:
            worker.stop(kill=True)

    final_x = final_x.copy()
    for array in (mean, stderr, inside, final_x):
        array.flags.writeable = False
    return ReplicationSummary(
        seeds=seeds,
        steps=steps,
        sq_dist_mean=mean,
        sq_dist_stderr=stderr,
        in_region_count=inside,
        final_x=final_x,
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
    count = require_int(count, "count", 1)
    seeds = [derive_seed(master_seed, i) for i in range(count)]
    return run_seeds(problem, schedule, x0, steps, cert, seeds)
