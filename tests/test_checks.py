"""Tests for the check pipeline of an experiment (sgdcheck.checks)."""
import dataclasses
import json
import math
import os
import signal

import numpy as np
import pytest

from sgdcheck import (
    ConstantSchedule,
    FiniteSumLeastSquares,
    InverseTimeSchedule,
    StochasticProblem,
    UsageError,
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
    started_checks,
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


def experiment(check_list):
    """The config of ``check_list`` with its problem, schedule and certificate."""
    cfg = config(check_list)
    problem = build_problem(cfg.problem)
    return cfg, problem, build_schedule(cfg.schedule), problem.certify(cfg.region_radius, cfg.x0)


def test_every_check_that_does_not_read_the_run_is_judged_without_it():
    # A judge that starts reading dn or bounds fails here until its row
    # drops reads_run=False, which keeps it out of the worker forked before
    # the run.
    sections = {"descent": {"type": "descent", "points": 2, "samples": 200},
                "lemma": {"type": "lemma", "n": 1, "k": 10}}
    for name, row in checks.CHECKS.items():
        if not row.reads_run:
            cfg, problem, schedule, cert = experiment([sections[name]])
            verdict = row.judge(cfg.checks[0], cfg=cfg, problem=problem, schedule=schedule,
                                cert=cert)
            assert isinstance(verdict, Verdict)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the checks' worker is forked")
class TestStartedChecks:
    CHECKS = [
        {"type": "lemma", "n": 1, "k": 10},
        {"type": "recurrence"},
        {"type": "descent", "points": 2, "samples": 200},
        {"type": "lemma", "n": 3, "k": 5},
    ]
    # Five checks that do not read the run: the worker is given 0, 2 and 4.
    FREE = [
        {"type": "lemma", "n": 1, "k": 10},
        {"type": "descent", "points": 2, "samples": 200},
        {"type": "lemma", "n": 2, "k": 10},
        {"type": "descent", "points": 3, "samples": 200},
        {"type": "lemma", "n": 3, "k": 10},
    ]

    @staticmethod
    def judged(cfg, problem, schedule, cert, before_run=lambda: None):
        with started_checks(cfg, problem, schedule, cert) as judge:
            before_run()
            dn = run_replications(problem, schedule, cfg.x0, cfg.horizon, cert,
                                  cfg.master_seed, cfg.replications)
            return judge(dn, bound_sequence(float(dn.mean[0]), schedule, cert, cfg.horizon))

    @staticmethod
    def wrap_free_judges(monkeypatch, wrapper):
        """Replace the judge of every check that does not read the run by
        ``wrapper(position, verdict_of)``, position the check's index in the
        config and verdict_of() the verdict of the judge it replaces."""
        for name, row in list(checks.CHECKS.items()):
            if not row.reads_run:
                def judge(spec, cfg, row=row, **run):
                    return wrapper(cfg.checks.index(spec),
                                   lambda: row.judge(spec, cfg=cfg, **run))

                monkeypatch.setitem(checks.CHECKS, name, row._replace(judge=judge))

    @pytest.mark.parametrize("cores", [1, 2])
    @pytest.mark.parametrize("check_list", [CHECKS, FREE], ids=["mixed", "free"])
    def test_the_verdicts_of_run_checks(self, check_list, cores, fake_cores):
        cfg, problem, schedule, cert = experiment(check_list)
        fake_cores(1)
        dn = run_replications(problem, schedule, cfg.x0, cfg.horizon, cert, cfg.master_seed,
                              cfg.replications)
        bounds = bound_sequence(float(dn.mean[0]), schedule, cert, cfg.horizon)
        alone = run_checks(cfg, problem, schedule, cert, dn, bounds)
        fake_cores(cores)
        assert self.judged(cfg, problem, schedule, cert) == alone

    def test_the_worker_judges_every_other_check_from_the_first(
            self, fake_cores, monkeypatch):
        # Each verdict's context becomes the pid of the process that judged it.
        cfg, problem, schedule, cert = experiment(self.FREE)
        self.wrap_free_judges(monkeypatch, lambda position, verdict_of: dataclasses.replace(
            verdict_of(), context=str(os.getpid())))
        dn = run_replications(problem, schedule, cfg.x0, cfg.horizon, cert, cfg.master_seed,
                              cfg.replications)
        bounds = bound_sequence(float(dn.mean[0]), schedule, cert, cfg.horizon)
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        fake_cores(2)
        with started_checks(cfg, problem, schedule, cert) as judge:
            pids = [int(verdict.context) for _, verdict in judge(dn, bounds)]
        assert len(forks) == 1
        assert pids[1] == pids[3] == os.getpid()
        assert pids[0] == pids[2] == pids[4] != os.getpid()

    @pytest.mark.parametrize("raising, first", [((2, 3), 2), ((1, 4), 1)],
                             ids=["worker-first", "caller-first"])
    def test_the_first_error_in_config_order_is_raised(self, raising, first, fake_cores,
                                                       monkeypatch):
        # Checks 0, 2 and 4 are the worker's and 1 and 3 the caller's, so
        # one raising check is in each process.
        cfg, problem, schedule, cert = experiment(self.FREE)

        def refuse(position, verdict_of):
            if position in raising:
                raise UsageError(f"check {position}")
            return verdict_of()

        self.wrap_free_judges(monkeypatch, refuse)
        fake_cores(2)
        with pytest.raises(UsageError, match=rf"^check {first}$"):
            self.judged(cfg, problem, schedule, cert)

    def test_a_worker_killed_mid_check_names_the_check(self, fake_cores, monkeypatch):
        # The worker is given checks 0 and 3, both lemmas, and dies in
        # check 0 only after the run was held back until it had started it.
        cfg, problem, schedule, cert = experiment(self.CHECKS)
        parent = os.getpid()
        read, write = os.pipe()
        lemma = checks.CHECKS["lemma"]

        def dying(spec, **run):
            if os.getpid() != parent:
                os.write(write, b"k")
                os.kill(os.getpid(), signal.SIGKILL)
            return lemma.judge(spec, **run)

        monkeypatch.setitem(checks.CHECKS, "lemma", lemma._replace(judge=dying))
        fake_cores(2)
        try:
            with pytest.raises(RuntimeError, match=r"^the process judging check 0 \(lemma\), "
                               r"check 3 \(lemma\) exited with code -9$"):
                self.judged(cfg, problem, schedule, cert, lambda: os.read(read, 1))
        finally:
            os.close(read)
            os.close(write)


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
