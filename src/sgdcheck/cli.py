"""Command line interface: run experiments, verify problems, probe the lemma.

Exit codes: 0 when everything passed, 1 when a check failed, 2 for malformed
configs or out-of-domain arguments, 3 when a run diverged.
"""
from __future__ import annotations

import argparse
import contextlib
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .analyzer import DnSeries, bound_sequence
from .checks import Verdict, g17, lemma_verdict, preflight_checks, started_checks
from .config import ExperimentConfig, build_problem, build_schedule, load_config
from .engine import aux_generator, run_replications
from .errors import ConfigurationError, DivergenceError, SgdCheckError
from .objective import verify_certificate
from .schedule import KINDS, validate_schedule

ENV_OUTPUT_DIR = "SGDCHECK_OUTPUT_DIR"

CSV_HEADER = "n,rho_n,d_hat,stderr,bound_b_n,in_region_fraction"

# Rows of series.csv formatted per write; the text of a long run is never
# held in memory at once.
SERIES_CHUNK_ROWS = 4096
_SERIES_ROW = "%d,%.17g,%.17g,%.17g,%.17g,%.17g\n"


def _make_output_dir(cfg: ExperimentConfig) -> Path:
    """The run's output directory, created if missing."""
    override = os.environ.get(ENV_OUTPUT_DIR)
    if override:
        out_dir = Path(override)
    elif cfg.output is not None:
        out_dir = Path(cfg.output)
    else:
        out_dir = Path(".")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        message = f"cannot create output directory {out_dir}: {err.strerror}"
        raise ConfigurationError(message) from None
    return out_dir


@contextlib.contextmanager
def _write_errors(path: Path):
    """An OSError in the block is a ConfigurationError naming ``path``."""
    try:
        yield
    except OSError as err:
        raise ConfigurationError(f"cannot write {path}: {err.strerror}") from None


@contextlib.contextmanager
def _output_file(path: Path):
    """``path`` open for writing; an OSError while it is opened, written or
    closed is a ConfigurationError naming the file."""
    with _write_errors(path), path.open("w", encoding="utf-8", newline="\n") as handle:
        yield handle


def _probe_output_file(path: Path) -> None:
    """Raise the error _output_file would raise on opening ``path``, before
    a run computes what goes into it.

    An existing file is opened for writing without truncating it; a new one
    is created exclusively and removed again.
    """
    with _write_errors(path):
        try:
            os.close(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            os.close(os.open(path, os.O_WRONLY))
        else:
            path.unlink()


def _write_series_csv(path: Path, rates: np.ndarray, dn: DnSeries, bounds: np.ndarray) -> None:
    """Write ``series.csv``, formatting SERIES_CHUNK_ROWS rows at a time.

    ``"%.17g" % v`` renders a float exactly like ``checks.g17``, NaN and infinities
    included.
    """
    columns = (rates, dn.mean, dn.stderr, bounds, dn.in_region_fraction)
    total = dn.mean.shape[0]
    with _output_file(path) as handle:
        handle.write(CSV_HEADER + "\n")
        for lo in range(0, total, SERIES_CHUNK_ROWS):
            hi = min(lo + SERIES_CHUNK_ROWS, total)
            rows = zip(range(lo, hi), *(column[lo:hi].tolist() for column in columns))
            handle.write("".join([_SERIES_ROW % row for row in rows]))


def _report_lines(cfg: ExperimentConfig, problem, schedule, cert, sched_report,
                  dn: DnSeries, verdicts: list[tuple[str, Verdict]]) -> list[str]:
    schedule_bits = ", ".join(
        f"{parameter.name}={getattr(schedule, parameter.name):g}" for parameter in fields(schedule)
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
    preflight_checks(cfg, problem, schedule, cert)
    sched_report = validate_schedule(schedule, cert.strong_convexity)
    out_dir = _make_output_dir(cfg)
    for name in ("series.csv", "report.txt"):
        _probe_output_file(out_dir / name)
    with started_checks(cfg, problem, schedule, cert) as judge:
        dn = run_replications(
            problem, schedule, cfg.x0, cfg.horizon, cert, cfg.master_seed, cfg.replications
        )
        bounds = bound_sequence(float(dn.mean[0]), schedule, cert, cfg.horizon)
        verdicts = judge(dn, bounds)

    rates = schedule.rates(0, cfg.horizon + 1)
    _write_series_csv(out_dir / "series.csv", rates, dn, bounds)
    report = _report_lines(cfg, problem, schedule, cert, sched_report, dn, verdicts)
    with _output_file(out_dir / "report.txt") as handle:
        handle.write("\n".join(report) + "\n")
    for line in report:
        print(line)
    return 0 if all(verdict.passed for _, verdict in verdicts) else 1


def _witness_text(value) -> str:
    """A row index as an integer, a vector as a list of g17 values."""
    if np.ndim(value) == 0:
        return str(int(value))
    return "[" + ", ".join(g17(v) for v in value) + "]"


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    problem = build_problem(cfg.problem)
    cert = problem.certify(cfg.region_radius, cfg.x0)
    audit, grad = verify_certificate(
        problem, cert,
        cfg.verify["audit_samples"], aux_generator(cfg.master_seed, 2),
        cfg.verify["gradient_checks"], aux_generator(cfg.master_seed, 3),
    )
    print(
        f"[{'PASS' if audit.passed else 'FAIL'}] certificate_audit: "
        f"samples={audit.samples}, max_grad_ratio={audit.max_grad_ratio:.6g}, "
        f"min_convexity_slack={audit.min_convexity_slack:.3g}, "
        f"violations={audit.grad_violations + audit.convexity_violations}"
    )
    if audit.grad_witness is not None:
        noise, x = audit.grad_witness
        print(f"  grad_witness: noise={_witness_text(noise)}, x={_witness_text(x)}")
    if audit.convexity_witness is not None:
        x, y = audit.convexity_witness
        print(f"  convexity_witness: x={_witness_text(x)}, y={_witness_text(y)}")
    print(
        f"[{'PASS' if grad.passed else 'FAIL'}] gradient_check: "
        f"samples={grad.samples}, max_rel_error={grad.max_rel_error:.3g}, "
        f"tolerance={grad.tolerance:g}"
    )
    return 0 if audit.passed and grad.passed else 1


def cmd_lemma(args) -> int:
    names = [parameter.name for parameter in fields(KINDS[args.kind])]
    if any(getattr(args, name) is None for name in names):
        flags = " and ".join(f"--{name}" for name in names)
        raise ConfigurationError(f"{flags} is required for the {args.kind} kind" if len(names) == 1
                                 else f"{flags} are required for {args.kind}")
    for name in (parameter.name for cls in KINDS.values() for parameter in fields(cls)):
        if name not in names and getattr(args, name) is not None:
            raise ConfigurationError(f"--{name} is not a parameter of the {args.kind} kind")
    schedule = KINDS[args.kind](**{name: getattr(args, name) for name in names})
    verdict, numbers = lemma_verdict(schedule, args.mu, args.n, args.k)
    print(f"product={g17(numbers['product'])}")
    print(f"majorant={g17(numbers['majorant'])}")
    print(f"oracle={'n/a' if numbers['oracle'] is None else g17(numbers['oracle'])}")
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
    lemma.add_argument("--kind", required=True, choices=list(KINDS))
    for kind, cls in KINDS.items():
        for parameter in fields(cls):
            lemma.add_argument(f"--{parameter.name}", type=float, help=f"{kind} schedule parameter")
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
    except DivergenceError as err:
        print(f"divergence: {err}", file=sys.stderr)
        return 3
    except SgdCheckError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
