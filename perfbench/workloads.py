"""Workload configs generated from the benchmark seed.

Every value the program receives is drawn here from the seed: the problem
data (quadratic centre and start point, least-squares design and targets) and
the `master_seed`.  Sizes (replications, horizon, check and verify budgets)
are fixed per workload, so every seed asks for the same amount of work.

Each workload yields two configs that differ only in `master_seed`: `main`,
which is timed, and `alt`, which must give a different `series.csv`.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from oracle import Expected, expected_series

# Least-squares targets are A @ x_true plus Gaussian noise of this size, so
# the residual at the minimizer (the noise floor of SGD) is never zero.
TARGET_NOISE = 0.5


@dataclass(frozen=True)
class Workload:
    name: str
    main: dict
    alt: dict
    expected: Expected


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def _master_seeds(rng: np.random.Generator) -> tuple[int, int]:
    first = int(rng.integers(0, 1 << 63))
    second = first
    while second == first:
        second = int(rng.integers(0, 1 << 63))
    return first, second


def _pair(name: str, config: dict, rng: np.random.Generator, expected: Expected) -> Workload:
    seed_main, seed_alt = _master_seeds(rng)
    return Workload(
        name, dict(config, master_seed=seed_main), dict(config, master_seed=seed_alt), expected
    )


def _dyadic_offset(rng: np.random.Generator, low: float, high: float) -> list[float]:
    # Multiples of 1/8 keep ||x0 - center||^2 exact in binary floating point,
    # so d_0 can be compared bit for bit.
    while True:
        offset = rng.integers(-12, 13, size=2) / 8.0
        if low * low <= float(offset @ offset) <= high * high:
            return offset.tolist()


def quad_wide(seed: int) -> Workload:
    """Shifted quadratic, d=2, constant rate, R=8000 by H=2000."""
    rng = _rng(seed, "quad-wide")
    center = (rng.integers(-16, 17, size=2) / 16.0).tolist()
    offset = _dyadic_offset(rng, 1.0, 1.5)
    config = {
        "problem": {
            "family": "shifted_quadratic",
            "curvature": 1.0,
            "center": center,
            "noise_halfwidth": 0.5,
        },
        "schedule": {"kind": "constant", "rho": 0.01},
        "x0": [c + o for c, o in zip(center, offset)],
        "horizon": 2000,
        "replications": 8000,
        "region_radius": 2.0,
        "checks": [
            {"type": "recurrence", "z": 3.0},
            {"type": "neighborhood", "window": 200, "tol_rel": 0.2},
            {"type": "descent", "points": 10, "samples": 10000},
            {"type": "lemma", "n": 1, "k": 1000},
        ],
        "verify": {"audit_samples": 1_000_000, "gradient_checks": 300_000},
    }
    return _pair("quad-wide", config, rng, expected_series(config))


def _least_squares(rng: np.random.Generator, rows: int, dim: int) -> tuple[dict, np.ndarray, dict]:
    """Gaussian design, a start point at distance 1 and an inverse-time rate.

    The rate is scale / (offset + n) with scale = 1 / mu, and offset large
    enough that rate_0 * ||a_i||^2 <= 1/2 for every row, so no iterate blows up.
    """
    design = rng.standard_normal((rows, dim))
    targets = design @ rng.standard_normal(dim) + TARGET_NOISE * rng.standard_normal(rows)
    x_star = np.linalg.lstsq(design, targets, rcond=None)[0]
    direction = rng.standard_normal(dim)
    x0 = x_star + direction / np.linalg.norm(direction)
    mu = float(np.linalg.svd(design, compute_uv=False)[-1] ** 2 / rows)
    scale = 1.0 / mu
    offset = 2.0 * scale * float(np.max(np.einsum("ij,ij->i", design, design)))
    problem = {
        "family": "finite_sum_least_squares",
        "design_rows": design.tolist(),
        "targets": targets.tolist(),
    }
    schedule = {"kind": "inverse_time", "scale": scale, "offset": offset}
    return problem, x0, schedule


def ls_long(seed: int) -> Workload:
    """Least squares, 32x8 design, inverse-time rate, R=200 by H=50 000.

    The convergence checkpoints sit at twice the exact E d_n, so the check
    is tight but cannot fail by chance at R=200.
    """
    rng = _rng(seed, "ls-long")
    problem, x0, schedule = _least_squares(rng, 32, 8)
    horizon = 50_000
    config = {
        "problem": problem,
        "schedule": schedule,
        "x0": x0.tolist(),
        "horizon": horizon,
        "replications": 200,
        "region_radius": 3.0,
        "checks": [{"type": "recurrence", "z": 3.0}],
        "verify": {"audit_samples": 400_000, "gradient_checks": 100_000},
    }
    expected = expected_series(config)
    checkpoints = [[n, 2.0 * float(expected.mean_dn[n])] for n in (horizon // 10, horizon)]
    config["checks"] += [
        {"type": "convergence", "checkpoints": checkpoints},
        {"type": "lemma", "n": 1, "k": horizon},
    ]
    return _pair("ls-long", config, rng, expected)


def ls_audit(seed: int) -> Workload:
    """Least squares, 128x16 design, small R*H, heavy descent, lemma and verify."""
    rng = _rng(seed, "ls-audit")
    problem, x0, schedule = _least_squares(rng, 128, 16)
    config = {
        "problem": problem,
        "schedule": schedule,
        "x0": x0.tolist(),
        "horizon": 500,
        "replications": 400,
        "region_radius": 3.0,
        "checks": [
            {"type": "recurrence", "z": 3.0},
            {"type": "descent", "points": 200, "samples": 20000},
            {"type": "lemma", "n": 1, "k": 5_000_000},
        ],
        "verify": {"audit_samples": 200_000, "gradient_checks": 50_000},
    }
    return _pair("ls-audit", config, rng, expected_series(config))


WORKLOADS = {"quad-wide": quad_wide, "ls-long": ls_long, "ls-audit": ls_audit}
