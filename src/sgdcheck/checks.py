"""The checks of an experiment: one table of check types and their verdicts.

``CHECKS`` declares each check type once: the key table of its config
section, its judge, its preflight and whether the judge reads the run.
``preflight_checks``, ``run_checks`` and ``started_checks`` loop over the
configured checks through it; ``started_checks`` splits those that do not
read the run once between a forked worker and the caller.  The d_n checks
build their verdicts with ``_compare``; the lemma check also compares the
contraction product against a closed form where one exists.
"""
from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .analyzer import DnSeries, product_decay, step_stats, validate_lemma
from .engine import _fork_workers, aux_generator, fork_usable
from .errors import (ConfigurationError, SgdCheckError, UsageError, config_guard, require_int,
                     require_real, require_vector)
from .objective import HypothesisCertificate, StochasticProblem, row_dot, sample_in_ball, sq_norm
from .schedule import ConstantSchedule, Schedule

if TYPE_CHECKING:
    from .config import ExperimentConfig

ORACLE_RTOL = 1e-12


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


def g17(value: float) -> str:
    """Decimal rendering with 17 significant digits (round-trip exact)."""
    return format(float(value), ".17g")


def _compare(dn: DnSeries, steps: np.ndarray, upper, z: float, context: str) -> Verdict:
    """The verdict of mean_n <= upper_n + z * stderr_n on ``steps``, a
    non-empty increasing array, with ``upper`` a scalar or one bound per step:
    the first violating step, the smallest slack upper_n + z * stderr_n -
    mean_n, and ``context`` followed by the number of violating steps."""
    slack = upper + z * dn.stderr[steps] - dn.mean[steps]
    bad = np.flatnonzero(slack < 0.0)
    first = int(steps[bad[0]]) if len(bad) else None
    return Verdict(first is None, first, float(np.min(slack)), f"{context}{len(bad)} violations")


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
    context = (
        f"checked {checked.shape[0]}/{dn.mean.shape[0]} steps at z={z:g}, "
        f"{excluded} excluded by region exits, "
    )
    return _compare(dn, checked, bounds[checked], z, context)


def validate_neighborhood(
    cert: HypothesisCertificate, schedule: Schedule, window: int, horizon: int
) -> int:
    """Check that the neighborhood claim applies to a run; returns the window.

    Needs only the certificate, the schedule and the horizon, so a run can be
    refused before any replication starts.
    """
    if schedule.kind != ConstantSchedule.kind:
        raise UsageError("the neighborhood check applies to constant schedules only")
    if schedule.rho * cert.strong_convexity >= 1.0:
        raise UsageError("the neighborhood claim needs rho * mu < 1")
    window = require_int(window, "window", 1)
    if window > horizon + 1:
        raise UsageError(f"window {window} exceeds the horizon of {horizon} steps")
    return window


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
    context = f"theta={theta:.6g}, threshold={threshold:.6g}, window={window}, "
    return _compare(dn, tail, threshold, 3.0, context)


def validate_checkpoints(points, horizon: int) -> list[tuple[int, float]]:
    """Check (step, threshold) checkpoints against a horizon; returns them cleaned.

    Steps must be integers in [0, horizon], strictly increasing, and
    thresholds finite positive reals.
    """
    cleaned: list[tuple[int, float]] = []
    try:
        for n, threshold in points:
            n = require_int(n, "checkpoint step", 0, horizon)
            if cleaned and n <= cleaned[-1][0]:
                raise UsageError("checkpoints must be strictly increasing in step")
            cleaned.append((n, require_real(threshold, "checkpoint threshold")))
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
    return _compare(dn, steps, thresholds, 3.0, f"{len(cleaned)} checkpoints, ")


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
    x = np.array(require_vector(x, "x", len(cert.region_center), UsageError))
    gap = x - cert.region_center
    gap_sq = float(sq_norm(gap))
    if gap_sq > cert.region_radius * cert.region_radius:
        raise UsageError("x lies outside the certified region")
    noise = problem.noise_block(rng, samples)
    # A value or statistic that overflows shows in the verdict, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        values = problem.alignment(noise, x, gap)
        estimate, stderr = (float(stat[0]) for stat in step_stats(values[None]))
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


def lemma_verdict(schedule: Schedule, mu: float, n: int, k: int) -> tuple[Verdict, dict]:
    """The lemma check over l = n..n+k, with its product, majorant and oracle.

    Passes when the product stays below its majorant and matches the
    schedule's closed_form_product, where one exists, within ORACLE_RTOL relative.
    """
    result = product_decay(schedule, mu, n, k)
    oracle = schedule.closed_form_product(mu, n, k)
    dominated = result.product <= result.majorant
    matches = oracle is None or abs(result.product - oracle) <= ORACLE_RTOL * abs(oracle)
    oracle_text = "n/a" if oracle is None else g17(oracle)
    margin = result.majorant - result.product
    context = (
        f"product={g17(result.product)}, majorant={g17(result.majorant)}, "
        f"oracle={oracle_text}, range l={n}..{n + k}"
    )
    verdict = Verdict(
        passed=dominated and matches,
        first_violation_index=None if dominated and matches else n,
        worst_margin=margin,
        context=context,
    )
    return verdict, {"product": result.product, "majorant": result.majorant, "oracle": oracle}


def descent_verdict(problem: StochasticProblem, cert: HypothesisCertificate,
                    master_seed: int, points: int, samples: int) -> Verdict:
    """The descent inequality at ``points`` points drawn from the certified ball.

    Points come from auxiliary stream 0 of the master seed and the samples
    at every point from stream 1.
    """
    points = require_int(points, "points", 1)
    point_rng = aux_generator(master_seed, 0)
    draw_rng = aux_generator(master_seed, 1)
    locations = sample_in_ball(cert.region_center, cert.region_radius, points, point_rng)
    worst = float("inf")
    first_bad = None
    for i in range(points):
        verdict = check_descent_inequality(problem, cert, locations[i], samples, draw_rng)
        # np.minimum, unlike min, keeps a NaN margin.
        worst = float(np.minimum(worst, verdict.worst_margin))
        if not verdict.passed and first_bad is None:
            first_bad = i
    return Verdict(
        passed=first_bad is None,
        first_violation_index=first_bad,
        worst_margin=worst,
        context=f"{points} points at {samples} draws each",
    )


def _descent_preflight(spec: dict, problem: StochasticProblem, **_) -> None:
    """Refuse a descent check whose points or one point's draws cannot be
    allocated; np.empty touches no page, so a size that fits costs nothing."""
    try:
        np.empty((spec["points"], problem.dimension))
        np.empty((spec["samples"],) + problem.noise_shape)
    except (MemoryError, ValueError, OverflowError):
        raise UsageError(f"{spec['points']} points at {spec['samples']} draws each "
                         "do not fit in memory") from None


def _checkpoints(value, where: str, horizon: int) -> list[list]:
    """``value`` as the checkpoints of a convergence check's config section."""
    try:
        return [list(point) for point in validate_checkpoints(value, horizon)]
    except UsageError as err:
        raise ConfigurationError(f"{where}: {err}") from None


class Check(NamedTuple):
    """A check type: ``keys(horizon)``, the key table of its config section for
    ``horizon`` steps; ``judge(spec, **run)``, its verdict; ``preflight(spec,
    **run)``, if any, its refusal before any replication runs; ``reads_run``,
    whether the judge needs the finished run.  ``run`` is cfg, problem,
    schedule, cert and, for the judge of a check that reads the run, dn and
    bounds."""

    keys: Callable[[int], dict]
    judge: Callable[..., Verdict]
    preflight: Callable[..., None] | None = None
    reads_run: bool = True


# Every check type by name; its row here is the only place the name is written.
CHECKS = {
    "recurrence": Check(
        lambda horizon: {"z": (config_guard(require_real, True), 3.0)},
        lambda spec, dn, bounds, **_: check_recurrence(dn, bounds, z=spec["z"]),
    ),
    "neighborhood": Check(
        lambda horizon: {
            "window": (config_guard(require_int, 1), min(max(100, horizon // 10), horizon + 1)),
            "tol_rel": (config_guard(require_real, False), 0.2),
        },
        lambda spec, dn, cert, schedule, **_: check_neighborhood(
            dn, cert, schedule, spec["window"], spec["tol_rel"]),
        lambda spec, cfg, cert, schedule, **_: validate_neighborhood(
            cert, schedule, spec["window"], cfg.horizon),
    ),
    "convergence": Check(
        lambda horizon: {"checkpoints": (functools.partial(_checkpoints, horizon=horizon), ...)},
        lambda spec, dn, **_: check_convergence(dn, spec["checkpoints"]),
    ),
    "descent": Check(
        lambda horizon: {"points": (config_guard(require_int, 1), 10),
                         "samples": (config_guard(require_int, 100), 10_000)},
        lambda spec, cfg, problem, cert, **_: descent_verdict(
            problem, cert, cfg.master_seed, spec["points"], spec["samples"]),
        _descent_preflight,
        reads_run=False,
    ),
    "lemma": Check(
        lambda horizon: {"n": (config_guard(require_int, 0), ...),
                         "k": (config_guard(require_int, 0), ...)},
        lambda spec, schedule, cert, **_: lemma_verdict(
            schedule, cert.strong_convexity, spec["n"], spec["k"])[0],
        lambda spec, schedule, cert, **_: validate_lemma(
            schedule, cert.strong_convexity, spec["n"]),
        reads_run=False,
    ),
}


def preflight_checks(cfg: ExperimentConfig, problem: StochasticProblem, schedule: Schedule,
                     cert: HypothesisCertificate) -> None:
    """Refuse, before any replication runs, a check that cannot apply to the run."""
    for spec in cfg.checks:
        preflight = CHECKS[spec["type"]].preflight
        if preflight is not None:
            preflight(spec, cfg=cfg, problem=problem, schedule=schedule, cert=cert)


def _verdicts(cfg: ExperimentConfig, run: dict, outcomes: dict) -> list[tuple[str, Verdict]]:
    """What run_checks returns, with ``outcomes[i]``, a verdict or the error
    it raised, for check i where it has one; raises the first error."""
    verdicts = []
    for i, spec in enumerate(cfg.checks):
        outcome = outcomes[i] if i in outcomes else CHECKS[spec["type"]].judge(spec, **run)
        if isinstance(outcome, SgdCheckError):
            raise outcome
        verdicts.append((spec["type"], outcome))
    return verdicts


def run_checks(cfg: ExperimentConfig, problem: StochasticProblem, schedule: Schedule,
               cert: HypothesisCertificate, dn: DnSeries,
               bounds: np.ndarray) -> list[tuple[str, Verdict]]:
    """One (check type, verdict) pair per configured check, in config order."""
    run = dict(cfg=cfg, problem=problem, schedule=schedule, cert=cert, dn=dn, bounds=bounds)
    return _verdicts(cfg, run, {})


@contextlib.contextmanager
def started_checks(cfg: ExperimentConfig, problem: StochasticProblem, schedule: Schedule,
                   cert: HypothesisCertificate):
    """Start judging the checks that do not read the run; yields
    ``judge(dn, bounds)``, which returns what run_checks returns.

    Where fork_usable, those checks are split once, in config order: a
    worker forked now judges the 1st, 3rd, ... at once and the caller the
    2nd, 4th, ... in ``judge``, before the checks that read the run.  The
    first error in config order is raised, as in run_checks; a worker that
    dies raises RuntimeError naming every check it was given.  Elsewhere,
    or with no such check, ``judge`` is run_checks and nothing is forked.
    Such a verdict depends only on the config, the certificate, the schedule
    and its own auxiliary streams, and pickling keeps its doubles, so who
    judges a check changes no output byte.
    """
    free = [i for i, spec in enumerate(cfg.checks) if not CHECKS[spec["type"]].reads_run]
    if not free or not fork_usable():
        yield functools.partial(run_checks, cfg, problem, schedule, cert)
        return
    run = dict(cfg=cfg, problem=problem, schedule=schedule, cert=cert)
    given, kept = free[::2], free[1::2]
    label = "judging " + ", ".join(f"check {i} ({cfg.checks[i]['type']})" for i in given)

    def judged(share: list[int]) -> dict:
        outcomes = {}
        for i in share:
            try:
                outcomes[i] = CHECKS[cfg.checks[i]["type"]].judge(cfg.checks[i], **run)
            except SgdCheckError as err:
                outcomes[i] = err
        return outcomes

    def judge(dn: DnSeries, bounds: np.ndarray) -> list[tuple[str, Verdict]]:
        outcomes = judged(kept)
        [worker] = join()
        return _verdicts(cfg, dict(run, dn=dn, bounds=bounds), {**outcomes, **worker})

    with _fork_workers({label: lambda parent: judged(given)}) as join:
        yield judge
