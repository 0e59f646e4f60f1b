"""Acceptance suite: one test per shipped guarantee.

Every test records a single [PASS] or [FAIL] line on the scoreboard printed
after the run, while the assertions pin each claim at its stated tolerance.
"""
import dataclasses
import json
import time
from fractions import Fraction

import numpy as np

from sgdcheck import (
    ConstantSchedule,
    FiniteSumLeastSquares,
    InverseTimeSchedule,
    ShiftedQuadratic,
    audit_certificate,
    bound_sequence,
    check_convergence,
    check_descent_inequality,
    check_gradients,
    check_neighborhood,
    check_recurrence,
    philox_generator,
    product_decay,
    run_replications,
    run_seeds,
    sample_in_ball,
)
from sgdcheck.cli import ENV_OUTPUT_DIR, main
from sgdcheck.objective import sq_norm


def standard_quadratic(noise_halfwidth=0.5):
    return ShiftedQuadratic(
        curvature=1.0, center=np.zeros(2), noise_halfwidth=noise_halfwidth
    )


def standard_finite_sum():
    # Perfect-fit system: minimizer (1, 0), smallest Gram eigenvalue 1/3.
    return FiniteSumLeastSquares(
        design=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], targets=[1.0, 0.0, 1.0]
    )


X0 = [2.0, 0.0]
RADIUS = 2.0


def test_criterion_1_recurrence_envelope_dominates(scoreboard):
    """The one-step envelope upper-bounds the estimated d_n path."""
    problem = standard_quadratic()
    schedule = ConstantSchedule(rho=0.05)
    cert = problem.certify(RADIUS, X0)
    started = time.monotonic()
    dn = run_replications(problem, schedule, X0, 500, cert, 20260818, 1000)
    bounds = bound_sequence(float(dn.mean[0]), schedule, cert, 500)
    elapsed = time.monotonic() - started

    covered = np.mean(dn.mean <= bounds + 3.0 * dn.stderr)
    verdict = check_recurrence(dn, bounds, z=5.0)
    ok = covered >= 0.99 and verdict.passed and elapsed < 10.0
    scoreboard("criterion 1: recurrence envelope dominates estimated distances", ok)
    assert covered >= 0.99, f"only {covered:.4f} of steps under the envelope"
    assert verdict.passed, verdict
    assert elapsed < 10.0, f"run took {elapsed:.1f} s"


def test_criterion_2_constant_rate_neighborhood(scoreboard):
    """Constant-rate runs settle inside the rho * B / mu neighborhood."""
    problem = standard_quadratic()
    schedule = ConstantSchedule(rho=0.01)
    cert = problem.certify(RADIUS, X0)
    dn = run_replications(problem, schedule, X0, 5000, cert, 20260819, 500)
    verdict = check_neighborhood(dn, cert, schedule, 500, 0.2)

    theta = 0.01 * cert.grad_sq_bound / cert.strong_convexity
    pinned = bound_sequence(theta, schedule, cert, 10_000)
    drift = np.max(np.abs(pinned - theta))
    ok = verdict.passed and drift <= 1e-12 * theta
    scoreboard("criterion 2: constant-rate neighborhood of size rho*B/mu", ok)
    assert verdict.passed, verdict
    assert drift <= 1e-12 * theta, f"fixed point drifted by {drift:.3g}"


def test_criterion_3_decaying_rate_convergence(scoreboard):
    """With a decaying rate both the envelope and the runs fall below fixed marks."""
    problem = standard_quadratic()
    schedule = InverseTimeSchedule(scale=1.0, offset=1.0)
    cert = problem.certify(RADIUS, X0)
    bounds = bound_sequence(4.0, schedule, cert, 10_000)
    dn = run_replications(problem, schedule, X0, 10_000, cert, 20260820, 500)
    verdict = check_convergence(dn, [(1000, 1.2), (10_000, 0.2)])

    ok = bounds[1000] <= 1.2 and bounds[10_000] <= 0.2 and verdict.passed
    scoreboard("criterion 3: decaying-rate convergence under the envelope", ok)
    assert bounds[1000] <= 1.2, bounds[1000]
    assert bounds[10_000] <= 0.2, bounds[10_000]
    assert verdict.passed, verdict


def test_criterion_4_contraction_product_telescopes(scoreboard):
    """The log-domain product matches exact rational telescoping at 1e-12."""
    schedule = InverseTimeSchedule(scale=1.0, offset=1.0)
    ok = True
    details = []
    for k in (10, 100, 10_000):
        result = product_decay(schedule, 1.0, 1, k)
        exact = Fraction(1)
        for step_index in range(1, k + 2):
            exact *= 1 - Fraction(1, 1 + step_index)
        assert exact == Fraction(1, k + 2)  # telescoping sanity check
        rel = abs(result.product - float(exact)) / float(exact)
        dominated = result.product <= result.majorant
        ok = ok and rel <= 1e-12 and dominated
        details.append((k, rel, dominated))
    scoreboard("criterion 4: contraction product matches telescoping and majorant", ok)
    for k, rel, dominated in details:
        assert rel <= 1e-12, f"k={k}: relative error {rel:.3g}"
        assert dominated, f"k={k}: product exceeds majorant"


def test_criterion_5_noiseless_geometric_contraction(scoreboard):
    """Without noise the iterates contract geometrically to the optimum."""
    problem = standard_quadratic(noise_halfwidth=0.0)
    cert = problem.certify(RADIUS, X0)
    runs = run_seeds(problem, ConstantSchedule(rho=0.5), X0, 100, cert, [1])

    expected_sq = 4.0 * 0.25 ** np.arange(101)
    sq_ok = np.allclose(runs.mean, expected_sq, rtol=1e-10, atol=0.0)
    expected_final = np.array(X0) * 0.5**100
    final_ok = np.allclose(runs.final_x[0], expected_final, rtol=1e-10, atol=0.0)
    scoreboard("criterion 5: noiseless geometric contraction", sq_ok and final_ok)
    assert sq_ok
    assert final_ok


def test_criterion_6_audit_accepts_truth_rejects_corruption(scoreboard):
    """Audits pass honest certificates and flag corrupted constants."""
    cases = [
        (standard_quadratic(), RADIUS, X0, 100),
        (standard_finite_sum(), 1.5, [0.0, 0.0], 200),
    ]
    ok = True
    reports = []
    for problem, radius, x0, seed in cases:
        cert = problem.certify(radius, x0)
        honest = audit_certificate(problem, cert, 100_000, philox_generator(seed))
        low_bound = audit_certificate(
            problem,
            dataclasses.replace(cert, grad_sq_bound=cert.grad_sq_bound * 0.9),
            100_000,
            philox_generator(seed + 1),
        )
        high_mu = audit_certificate(
            problem,
            dataclasses.replace(cert, strong_convexity=cert.strong_convexity * 1.1),
            100_000,
            philox_generator(seed + 2),
        )
        ok = ok and honest.passed and not low_bound.passed and not high_mu.passed
        reports.append((problem.family, honest, low_bound, high_mu))
    scoreboard("criterion 6: audit accepts truth and rejects corrupted constants", ok)
    for family, honest, low_bound, high_mu in reports:
        assert honest.passed, f"{family}: honest certificate rejected: {honest}"
        assert honest.grad_violations == 0 and honest.convexity_violations == 0
        assert not low_bound.passed, f"{family}: shrunken gradient bound accepted"
        assert low_bound.grad_violations > 0
        assert low_bound.grad_witness is not None
        assert not high_mu.passed, f"{family}: inflated convexity accepted"
        assert high_mu.convexity_violations > 0
        assert high_mu.convexity_witness is not None


def test_criterion_7_descent_inequality_at_sampled_points(scoreboard):
    """Sampled gradients satisfy the expected-descent inequality in the region."""
    cases = [
        (standard_quadratic(), RADIUS, X0, 90211),
        (standard_finite_sum(), 1.5, [0.0, 0.0], 90212),
    ]
    ok = True
    failures = []
    for problem, radius, x0, seed in cases:
        cert = problem.certify(radius, x0)
        points = sample_in_ball(
            cert.region_center, cert.region_radius, 50, philox_generator(seed)
        )
        draws = philox_generator(seed + 1)
        for i in range(50):
            verdict = check_descent_inequality(problem, cert, points[i], 10_000, draws)
            if not verdict.passed:
                failures.append((problem.family, i, verdict))
                ok = False
    scoreboard("criterion 7: descent inequality at sampled certified points", ok)
    assert not failures, failures


def test_criterion_8_gradients_match_finite_differences(scoreboard):
    """Analytic gradients agree with central differences to 1e-6."""
    quadratic = standard_quadratic()
    finite_sum = standard_finite_sum()
    report_q = check_gradients(
        quadratic, quadratic.certify(RADIUS, X0), 1000, philox_generator(313)
    )
    report_f = check_gradients(
        finite_sum, finite_sum.certify(1.5, [0.0, 0.0]), 1000, philox_generator(314)
    )
    ok = report_q.passed and report_f.passed
    scoreboard("criterion 8: analytic gradients match finite differences", ok)
    assert report_q.passed and report_q.max_rel_error <= 1e-6, report_q
    assert report_f.passed and report_f.max_rel_error <= 1e-6, report_f


def test_criterion_9_cli_determinism_and_seed_sensitivity(scoreboard, tmp_path, monkeypatch):
    """Identical configs give byte-identical outputs; a new seed gives new data."""
    document = {
        "problem": {
            "family": "shifted_quadratic",
            "curvature": 1.0,
            "center": [0.0, 0.0],
            "noise_halfwidth": 0.5,
        },
        "schedule": {"kind": "constant", "rho": 0.05},
        "x0": X0,
        "horizon": 300,
        "replications": 200,
        "master_seed": 424242,
        "region_radius": RADIUS,
        "checks": [
            {"type": "recurrence"},
            {"type": "neighborhood", "window": 100, "tol_rel": 0.2},
            {"type": "lemma", "n": 1, "k": 50},
            {"type": "descent", "points": 3, "samples": 2000},
        ],
    }
    config = tmp_path / "experiment.json"
    config.write_text(json.dumps(document), encoding="utf-8")

    codes = []
    for run_name in ("first", "second"):
        monkeypatch.setenv(ENV_OUTPUT_DIR, str(tmp_path / run_name))
        codes.append(main(["run", str(config)]))
    identical = (tmp_path / "first" / "series.csv").read_bytes() == (
        tmp_path / "second" / "series.csv"
    ).read_bytes()
    reports_identical = (tmp_path / "first" / "report.txt").read_bytes() == (
        tmp_path / "second" / "report.txt"
    ).read_bytes()

    document["master_seed"] = 424243
    config.write_text(json.dumps(document), encoding="utf-8")
    monkeypatch.setenv(ENV_OUTPUT_DIR, str(tmp_path / "reseeded"))
    codes.append(main(["run", str(config)]))

    def d_hat_column(name):
        rows = (tmp_path / name / "series.csv").read_text(encoding="utf-8").splitlines()
        return [row.split(",")[2] for row in rows[2:]]

    changed = d_hat_column("first") != d_hat_column("reseeded")
    ok = codes == [0, 0, 0] and identical and reports_identical and changed
    scoreboard("criterion 9: CLI determinism and seed sensitivity", ok)
    assert codes == [0, 0, 0], codes
    assert identical, "series.csv differs between identical runs"
    assert reports_identical, "report.txt differs between identical runs"
    assert changed, "changing the master seed left d_hat untouched"
