"""Command line interface: run experiments, verify problems, probe the lemma.

Exit codes: 0 when everything passed, 1 when a check failed, 2 for malformed
configs or out-of-domain arguments, 3 when a run diverged.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .analyzer import (
    BoundSequence,
    DnSeries,
    Verdict,
    bound_sequence,
    check_convergence,
    check_descent_inequality,
    check_neighborhood,
    check_recurrence,
    estimate_dn,
    product_decay,
    validate_neighborhood,
)
from .config import ExperimentConfig, build_problem, build_schedule, load_config
from .engine import SeededGenerator, derive_seed, run_replications
from .errors import (
    CertificationError,
    ConfigurationError,
    DivergenceError,
    DomainError,
    UsageError,
)
from .objective import audit_certificate, check_gradients, sample_in_ball
from .schedule import ConstantSchedule, InverseTimeSchedule, Schedule, validate_schedule

ENV_OUTPUT_DIR = "SGDCHECK_OUTPUT_DIR"

# Replication seeds use indices below 2^32; auxiliary streams (descent check
# points and draws, audits, gradient checks) use indices above it so they can
# never collide with a replication stream.
_AUX_BASE = 1 << 32

CSV_HEADER = "n,rho_n,d_hat,stderr,bound_b_n,in_region_fraction"

ORACLE_RTOL = 1e-12


def _g17(value: float) -> str:
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


def _lemma_verdict(schedule: Schedule, mu: float, n: int, k: int) -> tuple[Verdict, dict]:
    result = product_decay(schedule, mu, n, k)
    oracle = closed_form_product(schedule, mu, n, k)
    dominated = result.product <= result.majorant
    if oracle is None:
        matches = True
        oracle_text = "n/a"
    else:
        matches = abs(result.product - oracle) <= ORACLE_RTOL * abs(oracle)
        oracle_text = _g17(oracle)
    margin = result.majorant - result.product
    context = (
        f"product={_g17(result.product)}, majorant={_g17(result.majorant)}, "
        f"oracle={oracle_text}, range l={n}..{n + k}"
    )
    verdict = Verdict(
        passed=dominated and matches,
        first_violation_index=None if dominated and matches else n,
        worst_margin=margin,
        context=context,
    )
    return verdict, {"product": result.product, "majorant": result.majorant, "oracle": oracle}


def _descent_verdict(problem, cert, schedule_seed: int, points: int, samples: int) -> Verdict:
    point_rng = SeededGenerator(derive_seed(schedule_seed, _AUX_BASE))
    draw_rng = SeededGenerator(derive_seed(schedule_seed, _AUX_BASE + 1))
    locations = sample_in_ball(cert.region_center, cert.region_radius, points, point_rng)
    worst = float("inf")
    first_bad = None
    for i in range(points):
        verdict = check_descent_inequality(problem, cert, locations[i], samples, draw_rng)
        worst = min(worst, verdict.worst_margin)
        if not verdict.passed and first_bad is None:
            first_bad = i
    context = f"{points} points at {samples} draws each"
    return Verdict(
        passed=first_bad is None,
        first_violation_index=first_bad,
        worst_margin=worst,
        context=context,
    )


def _run_checks(cfg: ExperimentConfig, problem, schedule, cert, dn: DnSeries,
                bounds: BoundSequence) -> list[tuple[str, Verdict]]:
    verdicts: list[tuple[str, Verdict]] = []
    for spec in cfg.checks:
        kind = spec["type"]
        if kind == "recurrence":
            verdicts.append((kind, check_recurrence(dn, bounds, z=spec["z"])))
        elif kind == "neighborhood":
            verdicts.append(
                (kind, check_neighborhood(dn, cert, schedule, spec["window"], spec["tol_rel"]))
            )
        elif kind == "convergence":
            checkpoints = [(n, threshold) for n, threshold in spec["checkpoints"]]
            verdicts.append((kind, check_convergence(dn, checkpoints)))
        elif kind == "descent":
            verdicts.append(
                (kind, _descent_verdict(problem, cert, cfg.master_seed,
                                        spec["points"], spec["samples"]))
            )
        else:
            verdict, _ = _lemma_verdict(schedule, cert.strong_convexity, spec["n"], spec["k"])
            verdicts.append((kind, verdict))
    return verdicts


def _resolve_output_dir(cfg: ExperimentConfig) -> Path:
    override = os.environ.get(ENV_OUTPUT_DIR)
    if override:
        return Path(override)
    if cfg.output is not None:
        return Path(cfg.output)
    return Path(".")


def _write_text(path: Path, text: str) -> None:
    with path.open("w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def _series_csv(rates: np.ndarray, dn: DnSeries, bounds: BoundSequence) -> str:
    lines = [CSV_HEADER]
    for n in range(dn.mean.shape[0]):
        lines.append(
            f"{n},{_g17(rates[n])},{_g17(dn.mean[n])},{_g17(dn.stderr[n])},"
            f"{_g17(bounds.values[n])},{_g17(dn.in_region_fraction[n])}"
        )
    return "\n".join(lines) + "\n"


def _report_lines(cfg: ExperimentConfig, problem, schedule, cert, sched_report,
                  dn: DnSeries, verdicts: list[tuple[str, Verdict]]) -> list[str]:
    schedule_bits = ", ".join(
        f"{key}={getattr(schedule, key):g}"
        for key in ("rho", "scale", "offset")
        if hasattr(schedule, key)
    )
    lines = [
        f"problem: {problem.family}, dimension={problem.dimension}",
        (
            f"certificate: strong_convexity={cert.strong_convexity:.12g}, "
            f"grad_sq_bound={cert.grad_sq_bound:.12g}, "
            f"region_radius={cert.region_radius:g}, "
            f"containment_guaranteed={cert.guaranteed_containment}"
        ),
        (
            f"schedule: {schedule.kind} ({schedule_bits}), "
            f"robbins_monro={sched_report.robbins_monro}, "
            f"max_rate_mu={sched_report.max_rate_mu:.6g}, "
            f"stability_ok={sched_report.stability_ok}"
        ),
        (
            f"run: horizon={cfg.horizon}, replications={cfg.replications}, "
            f"master_seed={cfg.master_seed}"
        ),
        (
            f"final: d_hat={dn.mean[-1]:.6g}, stderr={dn.stderr[-1]:.3g}, "
            f"in_region_fraction={dn.in_region_fraction[-1]:g}"
        ),
    ]
    for name, verdict in verdicts:
        status = "PASS" if verdict.passed else "FAIL"
        detail = f"worst_margin={verdict.worst_margin:.6g}; {verdict.context}"
        if verdict.first_violation_index is not None:
            detail += f"; first_violation_index={verdict.first_violation_index}"
        lines.append(f"[{status}] {name}: {detail}")
    overall = all(verdict.passed for _, verdict in verdicts)
    lines.append(f"overall: {'PASS' if overall else 'FAIL'}")
    return lines


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    problem = build_problem(cfg.problem)
    schedule = build_schedule(cfg.schedule)
    cert = problem.certify(cfg.region_radius, cfg.x0)
    for spec in cfg.checks:
        if spec["type"] == "neighborhood":
            validate_neighborhood(cert, schedule, spec["window"], cfg.horizon)
    sched_report = validate_schedule(schedule, cert.strong_convexity, cfg.horizon)
    runs = run_replications(
        problem, schedule, cfg.x0, cfg.horizon, cert, cfg.master_seed, cfg.replications
    )
    dn = estimate_dn(runs)
    bounds = bound_sequence(float(dn.mean[0]), schedule, cert, cfg.horizon)
    verdicts = _run_checks(cfg, problem, schedule, cert, dn, bounds)

    out_dir = _resolve_output_dir(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    rates = schedule.rates(0, cfg.horizon + 1)
    _write_text(out_dir / "series.csv", _series_csv(rates, dn, bounds))
    report = _report_lines(cfg, problem, schedule, cert, sched_report, dn, verdicts)
    _write_text(out_dir / "report.txt", "\n".join(report) + "\n")
    for line in report:
        print(line)
    return 0 if all(verdict.passed for _, verdict in verdicts) else 1


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    problem = build_problem(cfg.problem)
    cert = problem.certify(cfg.region_radius, cfg.x0)
    audit_rng = SeededGenerator(derive_seed(cfg.master_seed, _AUX_BASE + 2))
    audit = audit_certificate(problem, cert, cfg.verify["audit_samples"], audit_rng)
    grad_rng = SeededGenerator(derive_seed(cfg.master_seed, _AUX_BASE + 3))
    grad = check_gradients(problem, cert, cfg.verify["gradient_checks"], grad_rng)
    print(
        f"[{'PASS' if audit.passed else 'FAIL'}] certificate_audit: "
        f"samples={audit.samples}, max_grad_ratio={audit.max_grad_ratio:.6g}, "
        f"min_convexity_slack={audit.min_convexity_slack:.3g}, "
        f"violations={audit.grad_violations + audit.convexity_violations}"
    )
    print(
        f"[{'PASS' if grad.passed else 'FAIL'}] gradient_check: "
        f"samples={grad.samples}, max_rel_error={grad.max_rel_error:.3g}, "
        f"tolerance={grad.tolerance:g}"
    )
    return 0 if audit.passed and grad.passed else 1


def cmd_lemma(args) -> int:
    if args.kind == "constant":
        if args.rho is None:
            raise ConfigurationError("--rho is required for the constant kind")
        schedule: Schedule = ConstantSchedule(rho=args.rho)
    else:
        if args.scale is None or args.offset is None:
            raise ConfigurationError("--scale and --offset are required for inverse_time")
        schedule = InverseTimeSchedule(scale=args.scale, offset=args.offset)
    verdict, numbers = _lemma_verdict(schedule, args.mu, args.n, args.k)
    print(f"product={_g17(numbers['product'])}")
    print(f"majorant={_g17(numbers['majorant'])}")
    print(f"oracle={'n/a' if numbers['oracle'] is None else _g17(numbers['oracle'])}")
    print(f"[{'PASS' if verdict.passed else 'FAIL'}] lemma: {verdict.context}")
    return 0 if verdict.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgdcheck",
        description="Run seeded SGD replications and verify convergence guarantees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment and check its guarantees")
    run.add_argument("config", help="path to a JSON experiment config")
    run.set_defaults(handler=cmd_run)

    verify = sub.add_parser("verify", help="audit a problem's certificate and gradients")
    verify.add_argument("config", help="path to a JSON experiment config")
    verify.set_defaults(handler=cmd_verify)

    lemma = sub.add_parser("lemma", help="evaluate the contraction product for a schedule")
    lemma.add_argument("--kind", required=True, choices=["constant", "inverse_time"])
    lemma.add_argument("--rho", type=float, default=None, help="rate for the constant kind")
    lemma.add_argument("--scale", type=float, default=None, help="numerator for inverse_time")
    lemma.add_argument("--offset", type=float, default=None, help="denominator offset for inverse_time")
    lemma.add_argument("--mu", type=float, required=True, help="strong convexity modulus")
    lemma.add_argument("--n", type=int, required=True, help="first step of the product")
    lemma.add_argument("--k", type=int, required=True, help="number of steps past the first")
    lemma.set_defaults(handler=cmd_lemma)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigurationError, CertificationError, UsageError, DomainError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except DivergenceError as err:
        print(f"divergence: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
