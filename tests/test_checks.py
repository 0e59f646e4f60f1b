"""Tests for the check pipeline of an experiment (sgdcheck.checks)."""
import json
import math

import numpy as np
import pytest

from sgdcheck import (
    ConstantSchedule,
    FiniteSumLeastSquares,
    InverseTimeSchedule,
    StochasticProblem,
    Verdict,
    bound_sequence,
    build_problem,
    build_schedule,
    parse_config,
    product_decay,
    run_replications,
)
from sgdcheck import checks
from sgdcheck.checks import (
    ORACLE_RTOL,
    descent_verdict,
    lemma_verdict,
    preflight_checks,
    run_checks,
)


def config(checks):
    return parse_config(json.dumps({
        "problem": {"family": "shifted_quadratic", "curvature": 1.0, "center": [0.0, 0.0],
                    "noise_halfwidth": 0.5},
        "schedule": {"kind": "constant", "rho": 0.05},
        "x0": [1.0, 0.0],
        "horizon": 40,
        "replications": 8,
        "master_seed": 7,
        "region_radius": 2.0,
        "checks": checks,
    }))


class TestClosedFormProduct:
    @pytest.mark.parametrize("rho, mu, n, k", [(0.5, 1.0, 3, 9), (0.01, 2.0, 0, 1000)])
    def test_constant_is_the_power(self, rho, mu, n, k):
        schedule = ConstantSchedule(rho=rho)
        oracle = schedule.closed_form_product(mu, n, k)
        assert oracle == (1.0 - rho * mu) ** (k + 1)
        product = product_decay(schedule, mu, n, k).product
        assert abs(product - oracle) <= ORACLE_RTOL * oracle

    @pytest.mark.parametrize("offset, n, k", [(1.0, 1, 8), (2.0, 5, 100_000)])
    def test_inverse_time_telescopes(self, offset, n, k):
        schedule = InverseTimeSchedule(scale=1.0, offset=offset)
        oracle = schedule.closed_form_product(1.0, n, k)
        assert oracle == (offset + n - 1.0) / (offset + n + k)
        product = product_decay(schedule, 1.0, n, k).product
        assert abs(product - oracle) <= ORACLE_RTOL * oracle

    def test_no_closed_form_off_the_telescoping_scale(self):
        schedule = InverseTimeSchedule(scale=2.0, offset=3.0)
        assert schedule.closed_form_product(0.7, 1, 8) is None
        verdict, numbers = lemma_verdict(schedule, 0.7, 1, 8)
        assert numbers["oracle"] is None
        assert "oracle=n/a" in verdict.context
        assert verdict.passed


def test_run_checks_gives_one_verdict_per_check_in_config_order():
    checks = [
        {"type": "lemma", "n": 1, "k": 10},
        {"type": "convergence", "checkpoints": [[40, 5.0]]},
        {"type": "recurrence"},
        {"type": "descent", "points": 2, "samples": 200},
        {"type": "neighborhood", "window": 10},
        {"type": "recurrence", "z": 1.0},
    ]
    cfg = config(checks)
    problem = build_problem(cfg.problem)
    schedule = build_schedule(cfg.schedule)
    cert = problem.certify(cfg.region_radius, cfg.x0)
    preflight_checks(cfg, problem, schedule, cert)
    dn = run_replications(problem, schedule, cfg.x0, cfg.horizon, cert, cfg.master_seed,
                          cfg.replications)
    bounds = bound_sequence(float(dn.mean[0]), schedule, cert, cfg.horizon)
    verdicts = run_checks(cfg, problem, schedule, cert, dn, bounds)
    assert [name for name, _ in verdicts] == [spec["type"] for spec in checks]
    assert all(isinstance(verdict, Verdict) for _, verdict in verdicts)


class TestDescentTable:
    """The descent check on least squares gathers one value per design row."""

    @staticmethod
    def problem():
        rng = np.random.default_rng(128)
        problem = FiniteSumLeastSquares(design=rng.normal(size=(128, 16)),
                                        targets=rng.normal(size=128))
        return problem, problem.certify(2.0, problem.minimizer())

    def test_verdict_is_identical_to_the_direct_path(self, monkeypatch):
        problem, cert = self.problem()
        table = descent_verdict(problem, cert, 31, 6, 20_000)
        monkeypatch.setattr(FiniteSumLeastSquares, "alignment", StochasticProblem.alignment)
        assert descent_verdict(problem, cert, 31, 6, 20_000) == table

    def test_at_most_one_gradient_row_per_design_row_per_point(self, monkeypatch):
        problem, cert = self.problem()
        rows_seen = []
        original = FiniteSumLeastSquares.pointwise_gradient

        def counting(self, noise, x, out=None):
            rows_seen.append(np.size(noise))
            return original(self, noise, x, out=out)

        monkeypatch.setattr(FiniteSumLeastSquares, "pointwise_gradient", counting)
        points = 5
        descent_verdict(problem, cert, 31, points, 20_000)
        assert sum(rows_seen) <= points * problem.rows


def test_descent_verdict_keeps_a_nan_margin(monkeypatch):
    margins = iter([1.0, float("nan"), 0.5])

    def point(problem, cert, x, samples, rng):
        margin = next(margins)
        return Verdict(margin >= 0.0, None if margin >= 0.0 else 0, margin, "")

    monkeypatch.setattr(checks, "check_descent_inequality", point)
    cfg = config([])
    problem = build_problem(cfg.problem)
    verdict = descent_verdict(problem, problem.certify(2.0, cfg.x0), 7, 3, 200)
    assert not verdict.passed
    assert verdict.first_violation_index == 1
    assert math.isnan(verdict.worst_margin)
