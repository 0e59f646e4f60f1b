"""Seeded SGD runner with reproducible replications.

The update is the plain one: x drops by the current rate times the sampled
gradient, with no projection, averaging, or momentum.  Each replication owns
a counter-based generator keyed by a 64-bit seed, so trajectories are
bit-reproducible across runs and platforms and replications are independent
by construction.  Runs keep per-step statistics of the squared distance to
the optimum, not the paths themselves, merged over parts of the replications
that large runs step in forked worker processes.
"""
from __future__ import annotations

import contextlib
import functools
import math
import os
import threading

import numpy as np

from .analyzer import DnSeries, merge_parts, stats_chunk_steps, step_stats
from .errors import UINT64_MAX, DivergenceError, UsageError, require_int, require_vector
from .objective import HypothesisCertificate, StochasticProblem, sq_norm, usable_cores
from .schedule import Schedule

# Weyl increment and mixing constants of the SplitMix64 stream.
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def derive_seed(master_seed: int, index: int) -> int:
    """Per-replication seed: output ``index`` of a SplitMix64 stream.

    The stream state is master_seed + (index + 1) * gamma modulo 2^64 and the
    output is the standard SplitMix64 finalizer of that state.  The finalizer
    is a bijection and the states are distinct for distinct indices, so for a
    fixed master seed no two replications ever share a seed.
    """
    master_seed = require_int(master_seed, "master_seed", 0, UINT64_MAX)
    index = require_int(index, "index", 0, UINT64_MAX)
    z = (master_seed + (index + 1) * _GAMMA) & UINT64_MAX
    z = ((z ^ (z >> 30)) * _MIX1) & UINT64_MAX
    z = ((z ^ (z >> 27)) * _MIX2) & UINT64_MAX
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
        self.seed = require_int(seed, "seed", 0, UINT64_MAX)
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

    def jumped(self, jumps: int) -> SeededGenerator:
        """A copy of this generator with its Philox counter ``jumps * 2^128``
        ahead, as numpy's ``Philox.jumped(jumps)`` gives it; this generator
        does not move.

        numpy's own ``jumped`` builds the copy from OS entropy before it sets
        the state; this one starts from the key.
        """
        jumps = require_int(jumps, "jumps", 1)
        copy = SeededGenerator(self.seed)
        bits = copy._gen.bit_generator
        bits.state = self._gen.bit_generator.state
        bits.advance(jumps << 128)
        return copy


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

# Replication-steps (replications * steps) that warrant a process of their
# own: run_seeds steps in at most R * H // _PROCESS_STEPS processes.
_PROCESS_STEPS = 1 << 22

# Replications per part: the seeds, sorted ascending, are cut into parts of
# _part_size(R) and a last part with the remainder.  Each part's statistics
# are folded on their own and merged in part order, so the parts, and every
# output bit, depend only on the seed values.
_PART = 1 << 10
_MIN_PART = 1 << 6

# Bytes of the buffer in which each process keeps the iterates of its last
# few steps, whose squared distances are then computed in one pass.
_PATH_BYTES = 1 << 18


def _part_size(replications: int) -> int:
    """Replications per part of a run of ``replications``.

    Half the run, rounded up, but at least _MIN_PART and at most _PART:
    runs of up to _MIN_PART replications are one part, runs of up to
    2 * _PART two, one for each of two processes, and longer runs are cut
    into parts of _PART.
    """
    return min(_PART, max(_MIN_PART, -(-replications // 2)))


def fork_usable() -> bool:
    """True where this process may fork a worker that pays: os.fork exists,
    more than one core is usable and no other Python thread runs, since a
    forked child would copy any lock one of them holds."""
    return hasattr(os, "fork") and threading.active_count() == 1 and usable_cores() > 1


def _process_count(replications: int, steps: int) -> int:
    """Processes that step ``replications`` replications over ``steps`` steps.

    One per usable core, as long as each gets at least _PROCESS_STEPS
    replication-steps and one replication.  One process is the caller
    itself; more are forked workers, and only where fork_usable.
    """
    if not fork_usable():
        return 1
    return max(1, min(usable_cores(), replications, replications * steps // _PROCESS_STEPS))


def _step_parts(problem, seeds, index, x0, cert, rates, block, part, stats, final_x, slot, parent):
    """Step the replications of ``seeds``, whole parts of ``part`` of them,
    over ``rates``.

    Part j gets in ``stats[:, j]`` the step_stats of its squared distances
    and the count of them inside the certified ball, and the last iterates
    go into ``final_x``.  The noise comes in blocks of ``block`` steps, cut
    into runs of stats_chunk_steps(len(seeds)) steps that are scanned for
    divergence and folded.  At the first non-finite squared distance the
    step and the lowest ``index`` of a replication non-finite there go into
    ``slot``, and stepping stops.  With a ``parent`` pid, stepping also
    stops at a noise block where the process has another parent.

    The problem's ``descend`` writes the iterates of each run of steps into
    a path buffer of at most _PATH_BYTES; the held steps then get their
    squared distances from one subtraction of a row of the center per
    replication, which never broadcasts over the short last axis.
    """
    generators = [SeededGenerator(seed) for seed in seeds]
    count = len(generators)
    radius_sq = cert.region_radius * cert.region_radius

    def fold(rows: np.ndarray, first: int) -> None:
        span = slice(first, first + rows.shape[0])
        for j, lo in enumerate(range(0, count, part)):
            values = rows[:, lo:lo + part]
            stats[0, j, span], stats[1, j, span] = step_stats(values)
            stats[2, j, span] = np.count_nonzero(values <= radius_sq, axis=1)

    x = np.repeat(x0[None, :], count, axis=0)
    centers = np.repeat(cert.region_center[None, :], count, axis=0)
    fold(sq_norm(x - centers)[None, :], 0)
    steps = rates.shape[0]
    run = min(block, stats_chunk_steps(count))
    hold = max(1, min(run, _PATH_BYTES // x.nbytes))
    path = np.empty((hold,) + x.shape)
    sq_dist = np.empty((run, count))
    noise = np.empty((block, count) + problem.noise_shape, dtype=problem.noise_dtype)
    for start in range(0, steps, block):
        if parent is not None and os.getppid() != parent:
            return
        length = min(block, steps - start)
        problem.fill_noise_block(generators, noise[:length])
        for lo in range(0, length, run):
            first, width = start + lo, min(run, length - lo)
            # A run goes on past its first non-finite value, which the scan
            # below reports, so overflow and NaN are not warned about here.
            with np.errstate(over="ignore", invalid="ignore"):
                for held in range(0, width, hold):
                    span, step = min(hold, width - held), first + held
                    problem.descend(
                        noise[lo + held:lo + held + span], x, rates[step:step + span], path[:span]
                    )
                    np.copyto(x, path[span - 1])
                    diff = np.subtract(path[:span], centers, out=path[:span])
                    sq_norm(diff, out=sq_dist[held:held + span])
            rows = sq_dist[:width]
            # max propagates NaN and inf, so one reduction screens the run.
            if not np.isfinite(rows.max()):
                k = int(np.argmin(np.isfinite(rows).all(axis=1)))
                slot[:] = first + k + 1, index[~np.isfinite(rows[k])].min()
                return
            fold(rows, first + 1)
    np.copyto(final_x, x)


@contextlib.contextmanager
def _fork_workers(jobs: dict, note: str = ""):
    """Call each job of ``jobs`` (label -> callable) in a worker forked now;
    yields ``join``, which waits for every worker and returns the jobs'
    values in job order.

    A job gets the caller's pid as ``parent``.  The worker ignores SIGINT,
    which the caller handles for it, sends its job's value pickled through a
    pipe and leaves through os._exit: code 0 once the value is sent, 1 on
    any error, which it prints.  ``join`` reads each worker's value, reaps
    it and raises RuntimeError naming the label of one that failed, followed
    by ``note``.  Any exception in the caller, and leaving the block before
    ``join`` returns, kills and reaps the workers left.
    """
    import pickle
    import signal

    parent = os.getpid()
    workers = {}
    try:
        for label, job in jobs.items():
            read, write = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                code = 1
                try:
                    signal.signal(signal.SIGINT, signal.SIG_IGN)
                    view = memoryview(pickle.dumps(job(parent=parent)))
                    while view:
                        view = view[os.write(write, view):]
                    code = 0
                except BaseException:
                    import traceback

                    os.write(2, traceback.format_exc().encode())
                finally:
                    os._exit(code)
            os.close(write)
            workers[pid] = label, read

        def join() -> list:
            values = []
            for pid in list(workers):
                label, read = workers[pid]
                chunks = []
                while chunk := os.read(read, 1 << 16):
                    chunks.append(chunk)
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                del workers[pid]
                os.close(read)
                if code:
                    raise RuntimeError(f"the process {label} exited with code {code}{note}")
                values.append(pickle.loads(b"".join(chunks)))
            return values

        yield join
    finally:
        for pid, (_, read) in workers.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read)


def run_seeds(
    problem: StochasticProblem,
    schedule: Schedule,
    x0,
    steps: int,
    cert: HypothesisCertificate,
    seeds,
) -> DnSeries:
    """Run one replication per seed for ``steps`` updates, all in lockstep.

    The replications advance together on stacked arrays.  Every
    floating-point operation on an iterate is elementwise or reduces one
    replication's own row, so replication i follows the same path whatever
    the other seeds are, and identical inputs give bit-identical results.
    The noise is drawn in blocks (fill_noise_block) of counter-based Philox
    streams, so any block length draws the same values.

    The seeds, sorted ascending, are cut into parts of _part_size(R).  Each
    part's per-step statistics are folded on their own (step_stats) and
    merged in part order (merge_parts), so no bit depends on the seed order
    or the process count, and R <= _MIN_PART gives the bits of one
    step_stats.  With more than one process (_process_count) the caller
    forks a worker for each contiguous group of parts and steps none
    itself.  Memory is O(R * b * d + 2^16 + parts * H) for blocks of b
    steps, d noise values per step and H steps.  Raises DivergenceError at
    the first step where a squared distance is not finite, naming the
    lowest such replication and its seed.
    """
    steps = require_int(steps, "steps", 1)
    seeds = tuple(require_int(seed, "seed", 0, UINT64_MAX) for seed in seeds)
    if not seeds:
        raise UsageError("at least one seed is required")
    count = len(seeds)
    dimension = problem.dimension
    x0 = np.array(require_vector(x0, "'x0'", dimension))
    order = np.argsort(np.array(seeds, dtype=np.uint64), kind="stable")
    ordered = [seeds[i] for i in order]
    part = _part_size(count)
    sizes = [min(part, count - lo) for lo in range(0, count, part)]
    parts = len(sizes)
    processes = min(parts, _process_count(count, steps))
    block = min(steps, max(1, BLOCK_BUDGET // (count * math.prod(problem.noise_shape))))

    # Per-part statistics, the last iterates in seed order and one
    # (step, replication) divergence slot per process, in one map forked workers share.
    import mmap

    size = 3 * parts * (steps + 1) + count * dimension + 2 * processes
    try:
        shared = np.frombuffer(mmap.mmap(-1, 8 * size))
        rates = schedule.rates(0, steps)
    except (ValueError, MemoryError, OverflowError, OSError):
        raise UsageError(f"{steps} steps of {count} replications do not fit in memory") from None
    stats = shared[:3 * parts * (steps + 1)].reshape(3, parts, steps + 1)
    final_x = shared[stats.size:size - 2 * processes].reshape(count, dimension)
    slots = shared[size - 2 * processes:].reshape(processes, 2)
    slots.fill(np.inf)
    groups = [parts * p // processes for p in range(processes + 1)]
    jobs = {}
    for p, (a, b) in enumerate(zip(groups, groups[1:])):
        lo, hi = a * part, min(b * part, count)
        jobs[f"stepping replications {lo}..{hi - 1}"] = functools.partial(
            _step_parts, problem, ordered[lo:hi], order[lo:hi], x0, cert, rates, block, part,
            stats[:, a:b], final_x[lo:hi], slots[p],
        )
    if processes == 1:
        jobs.popitem()[1](parent=None)
    else:
        with _fork_workers(jobs, " (replications numbered in ascending seed order)") as join:
            join()
    first, bad = min(map(tuple, slots.tolist()))
    if first < math.inf:
        first, bad = int(first), int(bad)
        message = f"non-finite iterate at step {first} in replication {bad} (seed {seeds[bad]})"
        raise DivergenceError(first, message)

    mean, stderr = merge_parts(stats[0], stats[1], sizes)
    # Whole counts below 2^53: their sum in doubles is exact.
    fraction = stats[2].sum(axis=0) / count
    final_x = final_x[np.argsort(order)]
    for array in (mean, stderr, fraction, final_x):
        array.flags.writeable = False
    return DnSeries(
        seeds=seeds, mean=mean, stderr=stderr, in_region_fraction=fraction, final_x=final_x
    )


def run_replications(
    problem: StochasticProblem,
    schedule: Schedule,
    x0,
    steps: int,
    cert: HypothesisCertificate,
    master_seed: int,
    count: int,
) -> DnSeries:
    """Run ``count`` replications seeded from ``master_seed`` in lockstep.

    Replication i uses derive_seed(master_seed, i); see run_seeds.  A
    standard error needs at least two replications.
    """
    count = require_int(count, "count", 2)
    try:  # a run whose last iterates do not fit is refused before one seed is derived
        np.empty((count, problem.dimension))
    except (ValueError, MemoryError):
        raise UsageError(f"{steps} steps of {count} replications do not fit in memory") from None
    seeds = [derive_seed(master_seed, i) for i in range(count)]
    return run_seeds(problem, schedule, x0, steps, cert, seeds)
