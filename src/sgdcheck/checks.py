"""The configured checks of an experiment, from preflight to verdicts.

``preflight_checks`` refuses checks that cannot apply before any replication
runs; ``run_checks`` evaluates every configured check on the finished run, in
config order.  The lemma check also compares the contraction product against
an independent closed form where one exists.
"""
from __future__ import annotations

import numpy as np

from .analyzer import (
    DnSeries,
    Verdict,
    check_convergence,
    check_descent_inequality,
    check_neighborhood,
    check_recurrence,
    product_decay,
    validate_lemma,
    validate_neighborhood,
)
from .config import ExperimentConfig
from .engine import aux_generator
from .errors import require_int
from .objective import HypothesisCertificate, StochasticProblem, sample_in_ball
from .schedule import ConstantSchedule, InverseTimeSchedule, Schedule

ORACLE_RTOL = 1e-12


def g17(value: float) -> str:
    """Decimal rendering with 17 significant digits (round-trip exact)."""
    return format(float(value), ".17g")


def closed_form_product(schedule: Schedule, mu: float, n: int, k: int) -> float | None:
    """Independent closed form for the contraction product, when one exists.

    Constant rates give a plain power.  Inverse-time rates with
    scale * mu = 1 telescope: every factor is (offset + l - 1) / (offset + l),
    so the product over l = n..n+k collapses to a single ratio.
    """
    if isinstance(schedule, ConstantSchedule):
        return (1.0 - schedule.rho * mu) ** (k + 1)
    if isinstance(schedule, InverseTimeSchedule) and schedule.scale * mu == 1.0:
        return (schedule.offset + n - 1.0) / (schedule.offset + n + k)
    return None


def lemma_verdict(schedule: Schedule, mu: float, n: int, k: int) -> tuple[Verdict, dict]:
    """The lemma check over l = n..n+k, with its product, majorant and oracle.

    Passes when the product stays below its majorant and, where a closed
    form exists, matches it within ORACLE_RTOL relative.
    """
    result = product_decay(schedule, mu, n, k)
    oracle = closed_form_product(schedule, mu, n, k)
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


def preflight_checks(cfg: ExperimentConfig, schedule: Schedule,
                     cert: HypothesisCertificate) -> None:
    """Refuse, before any replication runs, a check that cannot apply to the run."""
    for spec in cfg.checks:
        if spec["type"] == "neighborhood":
            validate_neighborhood(cert, schedule, spec["window"], cfg.horizon)
        elif spec["type"] == "lemma":
            validate_lemma(schedule, cert.strong_convexity, spec["n"])


def run_checks(cfg: ExperimentConfig, problem: StochasticProblem, schedule: Schedule,
               cert: HypothesisCertificate, dn: DnSeries,
               bounds: np.ndarray) -> list[tuple[str, Verdict]]:
    """One (check type, verdict) pair per configured check, in config order."""
    verdicts: list[tuple[str, Verdict]] = []
    for spec in cfg.checks:
        kind = spec["type"]
        if kind == "recurrence":
            verdict = check_recurrence(dn, bounds, z=spec["z"])
        elif kind == "neighborhood":
            verdict = check_neighborhood(dn, cert, schedule, spec["window"], spec["tol_rel"])
        elif kind == "convergence":
            verdict = check_convergence(dn, spec["checkpoints"])
        elif kind == "descent":
            verdict = descent_verdict(problem, cert, cfg.master_seed,
                                      spec["points"], spec["samples"])
        else:
            verdict, _ = lemma_verdict(schedule, cert.strong_convexity, spec["n"], spec["k"])
        verdicts.append((kind, verdict))
    return verdicts
