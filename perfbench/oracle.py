"""Expected outputs of `sgdcheck run` and `sgdcheck verify`, derived apart from the program.

Nothing here imports `sgdcheck`.  The constants and the exact mean of
d_n = E||x_n - x*||^2 are computed from the config alone:

- shifted quadratic, constant rate rho, curvature c, uniform noise of
  half-width hw in d dimensions: e_{n+1} = (1 - rho c) e_n + rho c xi_n, so
  E d_n = q^n d_0 + rho^2 c^2 s2 (1 - q^n) / (1 - q) with q = (1 - rho c)^2
  and s2 = E||xi||^2 = d hw^2 / 3;
- finite-sum least squares with rows a_i, targets y_i and minimizer x*:
  e_{n+1} = (I - rho_n a_i a_i^T) e_n - rho_n a_i r_i with r_i = <a_i, x*> - y_i,
  and the row index is independent of e_n, so the first and second moments
  (E e_n, E e_n e_n^T) follow an exact linear recursion (Moulines & Bach,
  NeurIPS 2011) and E d_n is the trace of the second moment.

The check functions return a list of problems; an empty list means the
output is correct.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

CSV_HEADER = "n,rho_n,d_hat,stderr,bound_b_n,in_region_fraction"

# |d_hat_n - E d_n| may not exceed this many standard errors at any step.
# The largest |z| over all steps of one run was at most 3.7 (quadratic, 23
# seeds), 3.3 (ls-audit, 40 seeds) and 4.6 (ls-long, 40 seeds); d_n is skewed
# and the early steps of least squares take few distinct values, so the
# tail is heavier than normal, and the limit leaves room for that.
Z_MAX = 8.0
# rho_n is the same formula in both places; bound_b_n and the certified
# constants come from other algorithms (SVD vs. eigvalsh, lstsq vs. normal
# equations, plain vs. deviation-form recursion), so they agree to rounding.
RATE_RTOL = 1e-12
BOUND_RTOL = 1e-9
CONSTANT_RTOL = 1e-9


@dataclass(frozen=True, eq=False)
class Expected:
    """Independently derived columns of `series.csv` and certified constants."""

    rates: np.ndarray
    bound: np.ndarray
    mean_dn: np.ndarray
    d0: float
    d0_exact: bool
    mu: float
    grad_sq_bound: float
    contained: bool


def _rates(schedule: dict, count: int) -> np.ndarray:
    if schedule["kind"] == "constant":
        return np.full(count, float(schedule["rho"]))
    n = np.arange(count, dtype=float)
    return schedule["scale"] / (schedule["offset"] + n)


def _envelope(d0: float, rates: np.ndarray, mu: float, grad_sq_bound: float) -> np.ndarray:
    values = np.empty(rates.shape[0])
    values[0] = d0
    for n in range(rates.shape[0] - 1):
        values[n + 1] = (1.0 - rates[n] * mu) * values[n] + rates[n] ** 2 * grad_sq_bound
    return values


def _quadratic(config: dict, rates: np.ndarray):
    problem = config["problem"]
    c = float(problem["curvature"])
    hw = float(problem["noise_halfwidth"])
    center = np.array(problem["center"])
    dim = center.shape[0]
    gap = np.array(config["x0"]) - center
    d0 = math.fsum(g * g for g in gap)
    rho = float(rates[0])
    q = (1.0 - rho * c) ** 2
    s2 = dim * hw * hw / 3.0
    powers = q ** np.arange(rates.shape[0], dtype=float)
    mean_dn = powers * d0 + rho * rho * c * c * s2 * (1.0 - powers) / (1.0 - q)
    radius = float(config["region_radius"])
    reach = hw * math.sqrt(dim)
    grad_sq_bound = (c * (radius + reach)) ** 2
    return mean_dn, d0, True, c, grad_sq_bound, reach <= radius


def _least_squares(config: dict, rates: np.ndarray):
    design = np.array(config["problem"]["design_rows"])
    targets = np.array(config["problem"]["targets"])
    rows, dim = design.shape
    x_star = np.linalg.lstsq(design, targets, rcond=None)[0]
    residual = design @ x_star - targets
    gram = design.T @ design / rows
    g0 = design.T @ residual / rows

    def weighted_gram(weights):
        return (design * weights[:, None]).T @ design / rows

    # The state s = (m, vec S) with m = E e_n and S = E e_n e_n^T obeys
    # s' = s + rho (L1 s + c1) + rho^2 (L2 s + c2).  With P_i = a_i a_i^T:
    #   m' = m - rho (G m + g0)
    #   S' = S - rho (G S + S G + m g0^T + g0 m^T)
    #          + rho^2 (mean_i P_i S P_i + W + W^T + mean_i r_i^2 P_i)
    # where G = mean_i P_i, g0 = mean_i r_i a_i, W = mean_i <a_i, m> r_i P_i.
    def first(m, second):
        gs = gram @ second
        cross = np.outer(m, g0)
        return np.concatenate([-gram @ m, -(gs + gs.T + cross + cross.T).ravel()])

    def second_order(m, second):
        w = weighted_gram((design @ m) * residual)
        quad = weighted_gram(np.einsum("ij,jk,ik->i", design, second, design))
        return np.concatenate([np.zeros(dim), (quad + w + w.T).ravel()])

    size = dim + dim * dim
    basis = np.eye(size)
    split = [(b[:dim], b[dim:].reshape(dim, dim)) for b in basis]
    step_1 = np.column_stack([first(m, sec) for m, sec in split])
    step_2 = np.column_stack([second_order(m, sec) for m, sec in split])
    const_1 = np.concatenate([-g0, np.zeros(dim * dim)])
    const_2 = np.concatenate([np.zeros(dim), weighted_gram(residual * residual).ravel()])
    trace = np.concatenate([np.zeros(dim), np.eye(dim).ravel()])

    e0 = np.array(config["x0"]) - x_star
    state = np.concatenate([e0, np.outer(e0, e0).ravel()])
    mean_dn = np.empty(rates.shape[0])
    mean_dn[0] = float(e0 @ e0)
    for n in range(rates.shape[0] - 1):
        rho = rates[n]
        state = state + rho * (step_1 @ state + const_1) + rho * rho * (step_2 @ state + const_2)
        mean_dn[n + 1] = trace @ state

    mu = float(np.linalg.svd(design, compute_uv=False)[-1] ** 2 / rows)
    radius = float(config["region_radius"])
    row_norms = np.sqrt(np.einsum("ij,ij->i", design, design))
    grad_sq_bound = float(np.max(row_norms * (row_norms * radius + np.abs(residual)))) ** 2
    return mean_dn, float(mean_dn[0]), False, mu, grad_sq_bound, False


def expected_series(config: dict) -> Expected:
    """Exact E d_n, rho_n, the envelope b_n and the certified constants for a config."""
    rates = _rates(config["schedule"], config["horizon"] + 1)
    if config["problem"]["family"] == "shifted_quadratic":
        derived = _quadratic(config, rates)
    else:
        derived = _least_squares(config, rates)
    mean_dn, d0, d0_exact, mu, grad_sq_bound, contained = derived
    return Expected(
        rates=rates,
        bound=_envelope(d0, rates, mu, grad_sq_bound),
        mean_dn=mean_dn,
        d0=d0,
        d0_exact=d0_exact,
        mu=mu,
        grad_sq_bound=grad_sq_bound,
        contained=contained,
    )


def parse_series(text: str) -> np.ndarray:
    """Rows of `series.csv` as an (H+1, 6) array; raises ValueError if malformed."""
    lines = text.split("\n")
    if lines[0] != CSV_HEADER or lines[-1] != "":
        raise ValueError("series.csv has a wrong header or no final newline")
    table = np.array([line.split(",") for line in lines[1:-1]], dtype=float)
    if table.ndim != 2 or table.shape[1] != 6:
        raise ValueError("series.csv rows do not have six fields")
    return table


def _rel_err(actual: np.ndarray, expected: np.ndarray) -> float:
    return float(np.max(np.abs(actual - expected) / np.maximum(np.abs(expected), 1e-300)))


def check_series(text: str, config: dict, expected: Expected) -> list[str]:
    """Compare `series.csv` with the exact moments, rates and envelope."""
    try:
        table = parse_series(text)
    except ValueError as err:
        return [str(err)]
    horizon = config["horizon"]
    if table.shape[0] != horizon + 1:
        return [f"series.csv has {table.shape[0]} rows, expected {horizon + 1}"]
    n, rates, d_hat, stderr, bound, fraction = table.T
    problems = []
    if not np.array_equal(n, np.arange(horizon + 1)):
        problems.append("column n is not 0..H")
    if _rel_err(rates, expected.rates) > RATE_RTOL:
        problems.append(f"rho_n off by {_rel_err(rates, expected.rates):.3g} relative")
    if _rel_err(bound, expected.bound) > BOUND_RTOL:
        problems.append(f"bound_b_n off by {_rel_err(bound, expected.bound):.3g} relative")
    d0_ok = d_hat[0] == expected.d0 if expected.d0_exact else (
        abs(d_hat[0] - expected.d0) <= CONSTANT_RTOL * expected.d0
    )
    if not d0_ok or stderr[0] != 0.0 or fraction[0] != 1.0:
        problems.append(
            f"step 0: d_hat={d_hat[0]!r}, stderr={stderr[0]!r}, in_region={fraction[0]!r}; "
            f"expected d_0={expected.d0!r} with zero spread inside the region"
        )
    if np.any(stderr[1:] <= 0.0) or not np.all(np.isfinite(stderr)):
        problems.append("stderr is not positive and finite after step 0")
    else:
        z = (d_hat[1:] - expected.mean_dn[1:]) / stderr[1:]
        worst = int(np.argmax(np.abs(z)))
        if not abs(z[worst]) <= Z_MAX:
            problems.append(
                f"d_hat is {z[worst]:.3g} standard errors from E d_n at step {worst + 1}"
            )
    replications = config["replications"]
    counts = fraction * replications
    if np.any((fraction < 0.0) | (fraction > 1.0)) or np.any(np.abs(counts - np.round(counts)) > 1e-9):
        problems.append("in_region_fraction is not a share of the replications")
    if expected.contained and np.any(fraction != 1.0):
        problems.append("an iterate left a region that contains every iterate")
    return problems


def check_report(text: str, config: dict, expected: Expected) -> list[str]:
    """Check `report.txt`: constants, run line, one [PASS] per check, overall PASS."""
    lines = text.split("\n")
    if lines[-1] != "":
        return ["report.txt has no final newline"]
    lines = lines[:-1]
    problems = []
    cert = re.search(r"strong_convexity=(\S+), grad_sq_bound=(\S+),", text)
    if cert is None:
        problems.append("report.txt has no certificate line")
    else:
        for label, value, want in (
            ("strong_convexity", cert.group(1), expected.mu),
            ("grad_sq_bound", cert.group(2), expected.grad_sq_bound),
        ):
            if abs(float(value) - want) > CONSTANT_RTOL * want:
                problems.append(f"{label}={value}, derived independently as {want!r}")
    run_line = (
        f"run: horizon={config['horizon']}, replications={config['replications']}, "
        f"master_seed={config['master_seed']}"
    )
    if run_line not in lines:
        problems.append(f"report.txt lacks '{run_line}'")
    verdicts = [line for line in lines if line.startswith("[")]
    kinds = [check["type"] for check in config["checks"]]
    if [v.split(":")[0] for v in verdicts] != [f"[PASS] {kind}" for kind in kinds]:
        problems.append(f"verdict lines {verdicts!r} are not one [PASS] per check {kinds}")
    if not lines or lines[-1] != "overall: PASS":
        problems.append("report.txt does not end with 'overall: PASS'")
    return problems


def check_verify_output(stdout: str, config: dict) -> list[str]:
    """Both verify lines pass and report the configured sample counts."""
    want = [
        f"[PASS] certificate_audit: samples={config['verify']['audit_samples']},",
        f"[PASS] gradient_check: samples={config['verify']['gradient_checks']},",
    ]
    lines = stdout.splitlines()
    if len(lines) != 2 or not all(line.startswith(w) for line, w in zip(lines, want)):
        return [f"verify printed {lines!r}, expected lines starting {want!r}"]
    return []
