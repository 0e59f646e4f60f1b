"""Tests for the problem families, their certificates, and the audits."""
import numpy as np
import pytest

from sgdcheck import (
    CertificationError,
    ConfigurationError,
    ConstantSchedule,
    FiniteSumLeastSquares,
    SeededGenerator,
    ShiftedQuadratic,
    UsageError,
    audit_certificate,
    check_gradients,
    run_replications,
    sample_in_ball,
)
from sgdcheck import objective
from sgdcheck.cli import main
from sgdcheck.engine import aux_generator
from sgdcheck.objective import row_dot, sq_norm

import dataclasses
import json
import signal
import sys
import threading
import time
import warnings


def make_quadratic(dim=2, curvature=1.0, halfwidth=0.5):
    return ShiftedQuadratic(curvature=curvature, center=np.zeros(dim), noise_halfwidth=halfwidth)


class TestShiftedQuadratic:
    """The quadratic family has exact closed forms for everything."""

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            ShiftedQuadratic(curvature=0.0, center=[0.0], noise_halfwidth=0.1)
        with pytest.raises(ConfigurationError):
            ShiftedQuadratic(curvature=1.0, center=[0.0], noise_halfwidth=-0.1)
        with pytest.raises(ConfigurationError):
            ShiftedQuadratic(curvature=1.0, center=[np.inf], noise_halfwidth=0.1)
        with pytest.raises(ConfigurationError):
            ShiftedQuadratic(curvature=1.0, center=np.zeros(65), noise_halfwidth=0.1)

    def test_rejects_a_halfwidth_whose_width_overflows(self):
        # The law is uniform on [-hw, hw]; its width 2 * hw must be finite.
        largest = np.finfo(float).max / 2.0
        problem = ShiftedQuadratic(curvature=1.0, center=[0.0], noise_halfwidth=largest)
        assert problem.noise_halfwidth == largest
        with pytest.raises(ConfigurationError, match="noise_halfwidth"):
            ShiftedQuadratic(
                curvature=1.0, center=[0.0], noise_halfwidth=np.nextafter(largest, np.inf)
            )
        with pytest.raises(ConfigurationError, match="noise_halfwidth"):
            ShiftedQuadratic(curvature=1e-300, center=[0.0, 0.0], noise_halfwidth=1e308)

    def test_degenerate_noise_is_exactly_zero(self):
        problem = make_quadratic(halfwidth=0.0)
        draw = problem.noise_block(SeededGenerator(5), 1)[0]
        assert np.array_equal(draw, np.zeros(2))

    def test_noise_law_bounds_and_reproducibility(self):
        problem = make_quadratic(halfwidth=0.3)
        first = problem.noise_block(SeededGenerator(11), 1)[0]
        second = problem.noise_block(SeededGenerator(11), 1)[0]
        assert np.array_equal(first, second)
        block = problem.noise_block(SeededGenerator(11), 1000)
        assert block.shape == (1000, 2)
        assert np.all(np.abs(block) <= 0.3)

    def test_noise_block_matches_per_step_draws(self):
        problem = make_quadratic(halfwidth=0.3)
        block = problem.noise_block(SeededGenerator(77), 50)
        gen = SeededGenerator(77)
        singles = np.array([problem.noise_block(gen, 1)[0] for _ in range(50)])
        assert np.array_equal(block, singles)

    def test_mean_loss_noise_floor(self):
        problem = ShiftedQuadratic(curvature=1.0, center=[0.5, -0.5], noise_halfwidth=1.0)
        at_center = problem.mean_loss_and_gradient(np.array([0.5, -0.5]))[0]
        assert at_center == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_mean_quantities_match_pointwise_at_zero_noise(self):
        problem = make_quadratic(halfwidth=0.0)
        x = np.array([1.2, -0.7])
        assert problem.mean_loss_and_gradient(x)[0] == pytest.approx(
            problem.pointwise_loss(np.zeros(2), x), rel=1e-15
        )
        np.testing.assert_allclose(
            problem.mean_loss_and_gradient(x)[1], problem.pointwise_gradient(np.zeros(2), x)
        )

    def test_a_floor_beyond_a_squared_halfwidth_is_finite(self):
        # halfwidth^2 = 1e310 is not a double; the floor 1e-10 * 1e310 / 6 is.
        problem = ShiftedQuadratic(curvature=1e-10, center=[0.0], noise_halfwidth=1e155)
        loss, grad = problem.mean_loss_and_gradient([2.0])
        assert loss == pytest.approx(1e300 / 6.0, rel=1e-12)
        assert_same_bits(grad, [2e-10])

    def test_minimizer_is_center(self):
        problem = ShiftedQuadratic(curvature=2.0, center=[3.0, 4.0], noise_halfwidth=0.2)
        np.testing.assert_array_equal(problem.minimizer(), [3.0, 4.0])

    def test_dimension_mismatch_raises(self):
        problem = make_quadratic()
        with pytest.raises(ConfigurationError):
            problem.mean_loss_and_gradient(np.zeros(3))[0]

    def test_certificate_constants(self):
        narrow = ShiftedQuadratic(curvature=2.0, center=[0.0], noise_halfwidth=0.0)
        cert = narrow.certify(1.0, [0.5])
        assert cert.strong_convexity == 2.0
        assert cert.grad_sq_bound == 4.0
        assert cert.guaranteed_containment

        noisy = ShiftedQuadratic(curvature=1.0, center=[0.0], noise_halfwidth=1.0)
        cert = noisy.certify(2.0, [1.0])
        assert cert.strong_convexity == 1.0
        assert cert.grad_sq_bound == 9.0
        assert cert.guaranteed_containment

    def test_certificate_rejects_far_start(self):
        problem = make_quadratic()
        with pytest.raises(CertificationError):
            problem.certify(1.0, [2.0, 0.0])

    def test_certify_and_the_run_agree_on_the_ball(self):
        # Both compare squared distances with radius * radius.  The square
        # root of 1.0000000000000002 rounds to 1.0, so comparing distances
        # accepted a start that the run counts outside the ball at step 0.
        problem = ShiftedQuadratic(curvature=1.0, center=[0.0, 0.0], noise_halfwidth=0.1)
        assert float(sq_norm(np.array([0.6, 0.8000000000000002]))) > 1.0
        with pytest.raises(CertificationError, match="squared distance 1.0000000000000002"):
            problem.certify(1.0, [0.6, 0.8000000000000002])
        assert float(sq_norm(np.array([0.6, 0.8]))) == 1.0
        cert = problem.certify(1.0, [0.6, 0.8])
        dn = run_replications(problem, ConstantSchedule(rho=0.1), [0.6, 0.8], 3, cert, 7, 4)
        assert dn.in_region_fraction[0] == 1.0

    def test_containment_flag_needs_noise_inside_region(self):
        problem = ShiftedQuadratic(curvature=1.0, center=[0.0], noise_halfwidth=5.0)
        cert = problem.certify(1.0, [0.5])
        assert not cert.guaranteed_containment

    def test_strong_convexity_holds_with_equality(self):
        problem = ShiftedQuadratic(curvature=1.7, center=[0.3, -0.2, 1.0], noise_halfwidth=0.4)
        rng = SeededGenerator(21)
        xs = rng.normal(size=(200, 3))
        ys = rng.normal(size=(200, 3))
        loss_x, grad_x = problem.mean_loss_and_gradient(xs)
        lhs = problem.mean_loss_and_gradient(ys)[0] - loss_x - row_dot(grad_x, ys - xs)
        rhs = 0.5 * 1.7 * sq_norm(ys - xs)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-14)


class TestFiniteSumLeastSquares:
    """Finite sums of row losses with a normal-equations minimizer."""

    def test_requires_enough_rows(self):
        with pytest.raises(ConfigurationError):
            FiniteSumLeastSquares(design=[[1.0, 0.0]], targets=[1.0])

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            FiniteSumLeastSquares(design=[[1.0], [np.nan]], targets=[0.0, 0.0])
        with pytest.raises(ConfigurationError):
            FiniteSumLeastSquares(design=[[1.0], [1.0]], targets=[0.0])

    def test_noise_is_uniform_row_index(self):
        problem = FiniteSumLeastSquares(design=np.eye(3), targets=np.zeros(3))
        block = problem.noise_block(SeededGenerator(8), 3000)
        assert set(np.unique(block)) == {0, 1, 2}
        counts = np.bincount(block)
        assert counts.min() > 800

    def test_pointwise_quantities(self):
        problem = FiniteSumLeastSquares(design=[[1.0, 2.0], [0.0, 1.0]], targets=[1.0, 0.0])
        x = np.array([1.0, 1.0])
        # Row 0 residual is 1*1 + 2*1 - 1 = 2.
        assert problem.pointwise_loss(0, x) == pytest.approx(2.0)
        np.testing.assert_allclose(problem.pointwise_gradient(0, x), [2.0, 4.0])

    def test_minimizer_identity_design(self):
        problem = FiniteSumLeastSquares(design=np.eye(2), targets=[0.0, 0.0])
        np.testing.assert_allclose(problem.minimizer(), [0.0, 0.0], atol=1e-14)

    def test_minimizer_hand_solved(self):
        # Normal equations: Gram = 2*I, rhs = (2, 2), so the solution is (1, 1).
        problem = FiniteSumLeastSquares(design=[[1.0, 1.0], [1.0, -1.0]], targets=[2.0, 0.0])
        np.testing.assert_allclose(problem.minimizer(), [1.0, 1.0], rtol=1e-12, atol=1e-12)

    def test_minimizer_gradient_is_flat(self):
        rng = SeededGenerator(31)
        design = rng.normal(size=(12, 4))
        targets = rng.normal(size=12)
        problem = FiniteSumLeastSquares(design=design, targets=targets)
        x_star = problem.minimizer()
        grad = problem.mean_loss_and_gradient(x_star)[1]
        assert np.linalg.norm(grad) <= 1e-9 * (1.0 + np.linalg.norm(x_star))

    def test_certificate_identity_design(self):
        problem = FiniteSumLeastSquares(design=np.eye(2), targets=[0.0, 0.0])
        cert = problem.certify(1.0, [0.0, 0.0])
        assert cert.strong_convexity == pytest.approx(0.5, abs=1e-10)
        assert cert.grad_sq_bound == pytest.approx(1.0, rel=1e-12)
        assert not cert.guaranteed_containment

    @pytest.mark.parametrize("scale", [10.0**e for e in range(-8, 13)])
    def test_certification_does_not_depend_on_the_scale(self, scale):
        # Design and targets scaled together: mu scales by scale^2, and a
        # design with a repeated or a zero column is refused at every scale.
        rng = np.random.default_rng(0)
        design, targets = rng.standard_normal((32, 8)), rng.standard_normal(32)
        unit = FiniteSumLeastSquares(design=design, targets=targets)
        mu = unit.certify(1.0, unit.minimizer()).strong_convexity
        problem = FiniteSumLeastSquares(design=scale * design, targets=scale * targets)
        cert = problem.certify(1.0, problem.minimizer())
        assert cert.strong_convexity / scale**2 == pytest.approx(mu, rel=1e-12)
        for column in (design[:, 0], np.zeros(32)):
            deficient = FiniteSumLeastSquares(
                design=scale * np.column_stack([design, column]), targets=scale * targets
            )
            with pytest.raises(CertificationError):
                deficient.certify(1.0, deficient._form[1])

    @pytest.mark.parametrize("size", [1.0, 1e6, 1e12])
    def test_targets_orthogonal_to_the_columns_certify(self, size):
        # x* = 0 up to rounding and |r| = |targets|: the first-order test
        # scales with ||targets||, not with ||design^T targets||, which is
        # rounding noise here.
        rng = np.random.default_rng(0)
        design = rng.standard_normal((32, 8))
        basis, _ = np.linalg.qr(design)
        targets = rng.standard_normal(32)
        targets -= basis @ (basis.T @ targets)
        problem = FiniteSumLeastSquares(design=design, targets=size * targets)
        cert = problem.certify(1.0, np.zeros(8))
        assert np.sqrt(sq_norm(cert.region_center)) <= 1e-12 * size

    def test_rank_deficient_design_fails_certification(self):
        problem = FiniteSumLeastSquares(design=[[1.0, 0.0], [2.0, 0.0]], targets=[0.0, 0.0])
        with pytest.raises(CertificationError):
            problem.certify(1.0, [0.0, 0.0])

    def test_strong_convexity_inequality(self):
        rng = SeededGenerator(32)
        design = rng.normal(size=(10, 3))
        targets = rng.normal(size=10)
        problem = FiniteSumLeastSquares(design=design, targets=targets)
        cert = problem.certify(2.0, problem.minimizer())
        xs = sample_in_ball(cert.region_center, cert.region_radius, 500, rng)
        ys = sample_in_ball(cert.region_center, cert.region_radius, 500, rng)
        loss_x, grad_x = problem.mean_loss_and_gradient(xs)
        slack = (
            problem.mean_loss_and_gradient(ys)[0]
            - loss_x
            - row_dot(grad_x, ys - xs)
            - 0.5 * cert.strong_convexity * sq_norm(ys - xs)
        )
        assert slack.min() >= -1e-12


def residual_form(problem, x, dtype=float):
    """Mean loss and gradient through the residuals of every design row."""
    design = problem.design.astype(dtype)
    residual = np.einsum("kj,...j->...k", design, np.asarray(x, dtype=dtype))
    residual -= problem.targets.astype(dtype)
    rows = problem.rows
    return (
        np.einsum("...k,...k->...", residual, residual) / (2 * rows),
        np.einsum("...k,kj->...j", residual, design) / rows,
    )


def uncentred(problem):
    """A copy of ``problem`` whose mean quantities use the form centred at 0."""
    copy = FiniteSumLeastSquares(design=problem.design, targets=problem.targets)
    grad_at_zero = -np.einsum("ki,k->i", problem.design, problem.targets)
    form = (problem._form[0], np.zeros(problem.dimension), -problem.targets, grad_at_zero,
            sq_norm(problem.targets))
    object.__setattr__(copy, "_form", form)
    return copy


class TestCentredForm:
    """Least squares evaluates its mean quantities as a form centred near x*."""

    @staticmethod
    def slack_error(problem, centred=None, samples=4000):
        """Largest error of the audit's relative slacks against a long
        double evaluation of the residual form at the same points, in the
        certified ball of ``centred`` (by default ``problem``)."""
        centred = centred or problem
        cert = centred.certify(1.0, centred.minimizer())
        rng = SeededGenerator(3)
        xs = sample_in_ball(cert.region_center, cert.region_radius, samples, rng)
        ys = sample_in_ball(cert.region_center, cert.region_radius, samples, rng)
        noise = problem.noise_block(rng, samples)
        _, rel_slack = objective._audit_values(problem, cert, noise, xs, ys)
        loss_x, grad_x = residual_form(problem, xs, np.longdouble)
        loss_y, _ = residual_form(problem, ys, np.longdouble)
        gap = (ys - xs).astype(np.longdouble)
        quad = 0.5 * cert.strong_convexity * np.einsum("...i,...i->...", gap, gap)
        slack = loss_y - loss_x - np.einsum("...i,...i->...", grad_x, gap) - quad
        scale = np.maximum.reduce([np.ones(samples), np.abs(loss_x), np.abs(loss_y), quad])
        return float(np.max(np.abs(rel_slack - slack / scale)))

    @staticmethod
    def fitted(scale):
        """A 64x8 design with targets of size ``scale`` fitted to about 1e-3."""
        rng = np.random.default_rng(5)
        design = rng.normal(size=(64, 8))
        targets = design @ (scale * rng.normal(size=8)) + 1e-3 * rng.normal(size=64)
        return FiniteSumLeastSquares(design=design, targets=targets)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs an extended long double")
    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e5])
    def test_audit_slacks_are_accurate_at_every_target_scale(self, scale):
        assert self.slack_error(self.fitted(scale)) <= 1e-13

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs an extended long double")
    def test_a_form_centred_at_zero_loses_the_slacks_at_large_targets(self):
        # The reason for the centre: |targets|^2 cancels in the slack.
        problem = self.fitted(1e5)
        assert self.slack_error(uncentred(problem), problem) > 1e-13

    @pytest.mark.parametrize("extra", ["repeated", "zero", "sum"])
    def test_rank_deficient_design_agrees_with_the_residual_form(self, extra):
        # A fifth column that repeats the first, is zero or sums the first two.
        rng = np.random.default_rng(8)
        base = rng.normal(size=(40, 4))
        column = {"repeated": base[:, 0], "zero": np.zeros(40), "sum": base[:, 0] + base[:, 1]}
        design = np.column_stack([base, column[extra]])
        problem = FiniteSumLeastSquares(design=design, targets=rng.normal(size=40))
        assert np.all(np.isfinite(problem._form[1]))
        xs = 3.0 * rng.normal(size=(500, 5))
        loss, grad = problem.mean_loss_and_gradient(xs)
        ref_loss, ref_grad = residual_form(problem, xs)
        np.testing.assert_allclose(loss, ref_loss, rtol=1e-12)
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-12, atol=1e-12 * np.abs(ref_grad).max())

    @pytest.mark.parametrize("design, targets", [
        ([[1.0, 0.0], [1e200, 1e200]], [0.5, 0.0]),   # G overflows
        ([[1e160, 0.0], [0.0, 1.0]], [1e160, 0.0]),   # design^T targets overflows
    ])
    def test_a_centre_that_overflows_is_zero(self, design, targets, capfd):
        problem = FiniteSumLeastSquares(design=design, targets=targets)
        assert np.array_equal(problem._form[1], np.zeros(2))
        # Building the form prints nothing, neither numpy nor LAPACK.
        assert capfd.readouterr() == ("", "")

    def test_minimizer_and_certificate_read_the_form(self):
        problem = least_squares(385, 16, seed=4)
        _, centre, residual, grad_c, _ = problem._form
        x_star = problem.minimizer()
        assert_same_bits(x_star, centre)
        assert_same_bits(problem.mean_loss_and_gradient(x_star)[1], grad_c / problem.rows)
        cert = problem.certify(1.0, x_star)
        assert_same_bits(cert.region_center, centre)
        row_norms = np.sqrt(sq_norm(problem.design))
        assert cert.grad_sq_bound == np.max(row_norms * (row_norms + np.abs(residual))) ** 2

    def test_one_point_has_the_bits_of_the_batch(self):
        problem = least_squares(385, 16, seed=4)
        xs = np.random.default_rng(6).normal(size=(257, 16))
        loss, grad = problem.mean_loss_and_gradient(xs)
        for i in [0, 100, 256]:
            one_loss, one_grad = problem.mean_loss_and_gradient(xs[i])
            assert_same_bits(np.asarray(one_loss), loss[i])
            assert_same_bits(one_grad, grad[i])


class TestGradientConsistency:
    """Analytic gradients must match central finite differences."""

    def test_shifted_quadratic(self):
        problem = ShiftedQuadratic(curvature=1.3, center=[0.4, -0.1, 0.0], noise_halfwidth=0.6)
        cert = problem.certify(2.0, [1.0, 0.0, 0.0])
        report = check_gradients(problem, cert, 300, SeededGenerator(41))
        assert report.passed, report

    def test_finite_sum(self):
        rng = SeededGenerator(42)
        problem = FiniteSumLeastSquares(design=rng.normal(size=(8, 3)), targets=rng.normal(size=8))
        cert = problem.certify(1.5, problem.minimizer())
        report = check_gradients(problem, cert, 300, SeededGenerator(43))
        assert report.passed, report


def assert_same_bits(got, expected):
    assert got.shape == np.shape(expected)
    assert got.tobytes() == np.asarray(expected, dtype=float).tobytes()


class TestOutBuffers:
    """Writing into a caller's buffer gives the bits of the allocating call."""

    def draws(self, family, batch):
        rng = SeededGenerator(44)
        if family == "quadratic":
            problem = ShiftedQuadratic(curvature=1.7, center=[0.4, -0.1, 0.3], noise_halfwidth=0.6)
        else:
            problem = FiniteSumLeastSquares(design=rng.normal(size=(6, 3)), targets=rng.normal(size=6))
        noise = problem.noise_block(rng, 5) if batch else problem.noise_block(rng, 1)[0]
        x = rng.normal(size=(5, 3) if batch else 3)
        if family == "quadratic":
            formula = 1.7 * (x - problem.center - noise)
        else:
            rows = problem.design[noise]
            formula = rows * (row_dot(rows, x) - problem.targets[noise])[..., None]
        return problem, noise, x, formula

    @pytest.mark.parametrize("family", ["quadratic", "finite_sum"])
    @pytest.mark.parametrize("batch", [False, True])
    def test_pointwise_gradient_out(self, family, batch):
        problem, noise, x, formula = self.draws(family, batch)
        allocated = problem.pointwise_gradient(noise, x)
        assert_same_bits(allocated, formula)
        buf = np.empty_like(x)
        assert problem.pointwise_gradient(noise, x, out=buf) is buf
        assert_same_bits(buf, allocated)

    def test_out_keeps_the_row_bounds_check(self):
        problem, _, x, _ = self.draws("finite_sum", True)
        with pytest.raises(IndexError):
            problem.pointwise_gradient(np.array([0, 1, 2, 3, 6]), x, out=np.empty_like(x))

    def test_sq_norm_out(self):
        d = SeededGenerator(45).normal(size=(7, 3))
        # A row of a step-major buffer, as the engine passes it.
        row = np.empty((2, 7))[1]
        assert sq_norm(d, out=row) is row
        assert_same_bits(row, sq_norm(d))
        buf = np.empty(())
        assert sq_norm(d[0], out=buf) is buf
        assert_same_bits(buf, sq_norm(d[0]))


class TestUnbiasedness:
    """Sampled gradients average to the mean gradient."""

    def test_shifted_quadratic(self):
        problem = make_quadratic(halfwidth=0.8)
        x = np.array([1.1, -0.4])
        rng = SeededGenerator(51)
        draws = problem.noise_block(rng, 100_000)
        grads = problem.pointwise_gradient(draws, x)
        sample_mean = grads.mean(axis=0)
        stderr = grads.std(axis=0, ddof=1) / np.sqrt(grads.shape[0])
        exact = problem.mean_loss_and_gradient(x)[1]
        assert np.all(np.abs(sample_mean - exact) <= 5.0 * stderr + 1e-12)

    def test_finite_sum(self):
        rng = SeededGenerator(52)
        problem = FiniteSumLeastSquares(design=rng.normal(size=(6, 2)), targets=rng.normal(size=6))
        x = np.array([0.3, -0.8])
        draws = problem.noise_block(rng, 100_000)
        grads = problem.pointwise_gradient(draws, x)
        sample_mean = grads.mean(axis=0)
        stderr = grads.std(axis=0, ddof=1) / np.sqrt(grads.shape[0])
        exact = problem.mean_loss_and_gradient(x)[1]
        assert np.all(np.abs(sample_mean - exact) <= 5.0 * stderr + 1e-12)


class TestMinimizerOptimality:
    """Moving away from the minimizer costs at least the quadratic lower bound."""

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 10.0])
    def test_quadratic_growth(self, scale):
        rng = SeededGenerator(61)
        problems = [
            make_quadratic(halfwidth=0.5),
            FiniteSumLeastSquares(design=rng.normal(size=(9, 2)), targets=rng.normal(size=9)),
        ]
        for problem in problems:
            cert = problem.certify(20.0, problem.minimizer())
            x_star = cert.region_center
            base = problem.mean_loss_and_gradient(x_star)[0]
            directions = rng.normal(size=(100, 2))
            directions /= np.sqrt(sq_norm(directions))[:, None]
            moved = problem.mean_loss_and_gradient(x_star + scale * directions)[0]
            lower = 0.5 * cert.strong_convexity * scale**2
            assert np.all(moved - base >= lower * (1.0 - 1e-9))


class TestAudit:
    """Randomized certificate audits on the certified region."""

    def test_valid_certificates_pass(self):
        quadratic = make_quadratic(halfwidth=0.5)
        cert = quadratic.certify(2.0, [2.0, 0.0])
        report = audit_certificate(quadratic, cert, 20_000, SeededGenerator(71))
        assert report.passed
        assert report.max_grad_ratio <= 1.0
        assert report.min_convexity_slack >= -1e-9
        assert report.grad_witness is None and report.convexity_witness is None

    def test_halved_gradient_bound_is_caught(self):
        problem = make_quadratic(halfwidth=0.5)
        cert = problem.certify(2.0, [2.0, 0.0])
        corrupted = dataclasses.replace(cert, grad_sq_bound=cert.grad_sq_bound / 2.0)
        report = audit_certificate(problem, corrupted, 20_000, SeededGenerator(72))
        assert not report.passed
        assert report.grad_violations > 0
        noise, x = report.grad_witness
        observed = sq_norm(problem.pointwise_gradient(noise, x))
        assert observed > corrupted.grad_sq_bound

    def test_inflated_convexity_is_caught(self):
        problem = make_quadratic(halfwidth=0.5)
        cert = problem.certify(2.0, [2.0, 0.0])
        corrupted = dataclasses.replace(cert, strong_convexity=cert.strong_convexity * 1.1)
        report = audit_certificate(problem, corrupted, 20_000, SeededGenerator(73))
        assert not report.passed
        assert report.convexity_violations > 0
        assert report.convexity_witness is not None

    def test_needs_at_least_one_sample(self):
        problem = make_quadratic()
        cert = problem.certify(2.0, [2.0, 0.0])
        with pytest.raises(UsageError):
            audit_certificate(problem, cert, 0, SeededGenerator(74))

    @pytest.mark.parametrize("case", ["quadratic", "finite_sum", "nan_ratio"])
    def test_verify_output_does_not_depend_on_the_thread_count(
        self, case, tmp_path, monkeypatch, capsys, fake_cores
    ):
        # Blocks of 97 samples: the audit runs 11 blocks, the gradient check
        # 4.  The certificate is corrupted so both witnesses print; in
        # nan_ratio the last sample of the last block has a NaN gradient,
        # which must beat every larger finite ratio of the blocks before it.
        monkeypatch.setattr(objective, "_AUDIT_CHUNK", 97)
        if case == "finite_sum":
            problem, radius = least_squares(201, 16, seed=3), 1.0
            design = {"family": "finite_sum_least_squares",
                      "design_rows": problem.design.tolist(),
                      "targets": problem.targets.tolist()}
        else:
            problem, radius = make_quadratic(dim=3, halfwidth=0.5), 2.0
            design = {"family": "shifted_quadratic", "curvature": 1.0,
                      "center": [0.0, 0.0, 0.0], "noise_halfwidth": 0.5}
        document = {
            "problem": design, "schedule": {"kind": "constant", "rho": 0.05},
            "x0": problem.minimizer().tolist(), "horizon": 5, "replications": 2,
            "master_seed": 7, "region_radius": radius,
            "verify": {"audit_samples": 1000, "gradient_checks": 301},
        }
        config = tmp_path / "experiment.json"
        config.write_text(json.dumps(document), encoding="utf-8")
        kind = type(problem)
        certify = kind.certify

        def corrupted(self, region_radius, x0):
            cert = certify(self, region_radius, x0)
            return dataclasses.replace(
                cert,
                grad_sq_bound=cert.grad_sq_bound * 0.2,
                strong_convexity=cert.strong_convexity * 2.0,
            )

        monkeypatch.setattr(kind, "certify", corrupted)
        cert = problem.certify(radius, problem.minimizer())
        blocks = audit_blocks(problem, cert, 1000, aux_generator(7, 2))
        if case == "nan_ratio":
            last_noise = blocks[-1][0][-1]
            gradient = kind.pointwise_gradient

            def nan_at_the_last_draw(self, noise, x, out=None):
                value = gradient(self, noise, x, out)
                return np.where((noise == last_noise).all(axis=-1, keepdims=True), np.nan, value)

            monkeypatch.setattr(kind, "pointwise_gradient", nan_at_the_last_draw)

        # The reference: every block evaluated on its own, merged by one
        # np.argmax and one np.argmin over all samples.
        ratios, slacks = (np.concatenate(values) for values in zip(*(
            objective._audit_arrays(problem, cert, *block) for block in blocks
        )))
        noise, xs, ys = (np.concatenate(draws) for draws in zip(*blocks))
        worst_grad, worst_convexity = int(np.argmax(ratios)), int(np.argmin(slacks))
        if case == "nan_ratio":
            assert worst_grad == 999 and np.nanmax(ratios[:97]) > 1.0
        outputs = set()
        for cores in range(1, 6):
            fake_cores(cores)
            report = audit_certificate(problem, cert, 1000, aux_generator(7, 2))
            assert_same_bits(np.array(report.max_grad_ratio), ratios[worst_grad])
            assert_same_bits(np.array(report.min_convexity_slack), slacks[worst_convexity])
            assert report.grad_violations == np.count_nonzero(~(ratios <= 1.0 + 1e-9))
            assert report.convexity_violations == np.count_nonzero(~(slacks >= -1e-9))
            assert np.array_equal(report.grad_witness[0], noise[worst_grad])
            assert np.array_equal(report.grad_witness[1], xs[worst_grad])
            assert np.array_equal(report.convexity_witness[0], xs[worst_convexity])
            assert np.array_equal(report.convexity_witness[1], ys[worst_convexity])
            assert main(["verify", str(config)]) == 1
            outputs.add(capsys.readouterr().out)
        (stdout,) = outputs
        assert "  grad_witness: " in stdout and "  convexity_witness: " in stdout
        assert ("max_grad_ratio=nan" in stdout) == (case == "nan_ratio")


class TestSampleInBall:
    def test_stays_inside_and_reproduces(self):
        center = np.array([1.0, -2.0, 0.5])
        points = sample_in_ball(center, 1.5, 2000, SeededGenerator(81))
        again = sample_in_ball(center, 1.5, 2000, SeededGenerator(81))
        assert np.array_equal(points, again)
        assert np.all(sq_norm(points - center) <= 1.5**2 + 1e-12)
        # The draws should actually fill the ball, not hug the center.
        assert np.sqrt(sq_norm(points - center)).max() > 1.4


def least_squares(rows, dim, seed=0):
    rng = np.random.default_rng(seed)
    return FiniteSumLeastSquares(design=rng.normal(size=(rows, dim)), targets=rng.normal(size=rows))


ALIGNMENT_GRID = [
    (dim, rows)
    for dim in [*range(1, 17), 31, 32, 33, 63, 64]
    for rows in sorted({dim, 100, 128, 1000})
    if rows >= dim
]


def direct(problem, noise, x, direction):
    """The direct path: one gradient per draw, in draw order (the reference)."""
    return row_dot(direction, problem.pointwise_gradient(noise, x))


class TestGradientAlignment:
    """alignment: the least-squares row table has the bits of the per-draw
    path."""

    @pytest.mark.parametrize("dim, rows", ALIGNMENT_GRID)
    def test_bitwise_equal_to_the_direct_path(self, dim, rows):
        problem = least_squares(rows, dim, seed=dim * 1000 + rows)
        rng = np.random.default_rng(rows)
        x = problem.minimizer() + rng.normal(size=dim)
        direction = 3.0 * rng.normal(size=dim)
        gen = SeededGenerator(dim + rows)
        for samples in (max(1, rows // 2), rows - 1, rows, 20_000):
            if samples < 1:
                continue
            noise = problem.noise_block(gen, samples)
            got = problem.alignment(noise, x, direction)
            reference = direct(problem, noise, x, direction)
            assert got.dtype == reference.dtype
            assert_same_bits(got, reference)

    @pytest.mark.parametrize("case", ["duplicate_rows", "zero_row", "zero_direction",
                                      "uint8", "uint16"])
    def test_bitwise_equal_on_ties(self, case):
        rows = {"uint8": 256, "uint16": 257}.get(case, 40)
        problem = least_squares(rows, 3, seed=rows)
        design, targets = problem.design.copy(), problem.targets
        if case == "duplicate_rows":
            design[1::2] = design[0::2]
            targets = np.repeat(targets[0::2], 2)
        elif case == "zero_row":
            design[[0, 7]] = 0.0
        problem = FiniteSumLeastSquares(design=design, targets=targets)
        assert problem.noise_dtype == (np.uint16 if case == "uint16" else np.uint8)
        x = problem.minimizer() + 0.5
        direction = np.zeros(3) if case == "zero_direction" else np.array([1.0, -2.0, 0.5])
        for samples in (rows, 20_000):
            noise = problem.noise_block(SeededGenerator(rows), samples)
            got = problem.alignment(noise, x, direction)
            assert_same_bits(got, direct(problem, noise, x, direction))
        if case == "zero_direction":
            assert not got.any()

    def test_quadratic_keeps_the_direct_path(self):
        problem = make_quadratic(dim=3)
        rng = SeededGenerator(5)
        noise = problem.noise_block(rng, 500)
        x, direction = rng.normal(size=3), rng.normal(size=3)
        assert_same_bits(problem.alignment(noise, x, direction),
                         row_dot(direction, problem.pointwise_gradient(noise, x)))

    def test_evaluates_each_row_once(self, monkeypatch):
        problem = least_squares(128, 16)
        rows_seen = []
        original = FiniteSumLeastSquares.pointwise_gradient

        def counting(self, noise, x, out=None):
            rows_seen.append(np.size(noise))
            return original(self, noise, x, out=out)

        monkeypatch.setattr(FiniteSumLeastSquares, "pointwise_gradient", counting)
        noise = problem.noise_block(SeededGenerator(1), 20_000)
        problem.alignment(noise, np.zeros(16), np.ones(16))
        # Below one draw per row the draws are evaluated directly.
        problem.alignment(noise[:127], np.zeros(16), np.ones(16))
        assert rows_seen == [128, 127]

    def test_a_row_index_out_of_range_is_refused(self):
        problem = least_squares(100, 2)
        noise = np.full(200, 100, dtype=np.uint8)
        with pytest.raises(IndexError):
            problem.alignment(noise, np.zeros(2), np.ones(2))

    def test_a_row_never_drawn_does_not_warn(self):
        # Row 1 overflows at x; only row 0 is drawn, so no warning may escape
        # and the values are those of the direct path.
        problem = FiniteSumLeastSquares(design=[[1.0, 0.0], [1e200, 1e200]], targets=[0.5, 0.0])
        x, direction = np.array([1.0, 1.0]), np.array([1.0, -1.0])
        noise = np.zeros(10, dtype=np.uint8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = problem.alignment(noise, x, direction)
        assert_same_bits(got, np.full(10, 0.5))

    def test_a_drawn_overflowing_row_warns_as_before(self):
        problem = FiniteSumLeastSquares(design=[[1.0, 0.0], [1e200, 1e200]], targets=[0.5, 0.0])
        x, direction = np.array([1.0, 1.0]), np.array([1.0, -1.0])
        noise = np.array([0, 1, 0, 1], dtype=np.uint8)
        with pytest.warns(RuntimeWarning):
            got = problem.alignment(noise, x, direction)
        with pytest.warns(RuntimeWarning):
            reference = direct(problem, noise, x, direction)
        assert_same_bits(got, reference)


def separate_mean_loss(problem, x):
    """The mean loss as each family computed it on its own."""
    x = np.asarray(x, dtype=float)
    if isinstance(problem, ShiftedQuadratic):
        floor = problem.curvature * problem.dimension * problem.noise_halfwidth**2 / 6.0
        return 0.5 * problem.curvature * sq_norm(x - problem.center) + floor
    gram, centre, _, grad_c, sq_c = problem._form
    e = x - centre
    grad = np.einsum("ij,...j->...i", gram, e)
    np.add(grad, grad_c, out=grad)
    return (row_dot(e, grad) + row_dot(e, grad_c) + sq_c) / (2 * problem.rows)


def separate_mean_gradient(problem, x):
    """The mean gradient as each family computed it on its own."""
    x = np.asarray(x, dtype=float)
    if isinstance(problem, ShiftedQuadratic):
        return problem.curvature * (x - problem.center)
    gram, centre, _, grad_c, _ = problem._form
    grad = np.einsum("ij,...j->...i", gram, x - centre)
    np.add(grad, grad_c, out=grad)
    return np.divide(grad, problem.rows, out=grad)


class TestMeanLossAndGradient:
    @pytest.mark.parametrize("family", ["quadratic", "finite_sum"])
    @pytest.mark.parametrize("shape", [(3,), (7, 3)])
    def test_bitwise_equal_to_the_separate_calls(self, family, shape):
        if family == "quadratic":
            problem = ShiftedQuadratic(curvature=1.7, center=[0.4, -0.1, 0.3], noise_halfwidth=0.6)
        else:
            problem = least_squares(9, 3)
        x = np.random.default_rng(3).normal(size=shape)
        loss, grad = problem.mean_loss_and_gradient(x)
        assert_same_bits(np.asarray(loss), separate_mean_loss(problem, x))
        assert_same_bits(np.asarray(grad), separate_mean_gradient(problem, x))


class TestCompactNoise:
    @pytest.mark.parametrize("rows, dtype", [
        (1, np.uint8), (255, np.uint8), (256, np.uint8), (257, np.uint16),
        (65_536, np.uint16), (65_537, np.uint32),
    ])
    def test_smallest_unsigned_type_with_the_int64_draws(self, rows, dtype):
        problem = FiniteSumLeastSquares(design=np.ones((rows, 1)), targets=np.zeros(rows))
        block = problem.noise_block(SeededGenerator(9), 5000)
        assert block.dtype == dtype
        wide = SeededGenerator(9).integers(rows, size=5000)
        assert wide.dtype == np.int64
        assert np.array_equal(block, wide)


def quadratic_tile(count, dim):
    """Replications per tile of ShiftedQuadratic.fill_noise_block."""
    return max(1, objective._TILE_BYTES // (8 * dim * count))


def assert_fill_matches_noise_block(problem, replications, count):
    """fill_noise_block equals one noise_block per generator, bit for bit,
    and leaves every generator where that call leaves it."""
    seeds = [1000 + i for i in range(replications)]
    generators = [SeededGenerator(seed) for seed in seeds]
    out = np.empty((count, replications) + problem.noise_shape, dtype=problem.noise_dtype)
    problem.fill_noise_block(generators, out)
    references = [SeededGenerator(seed) for seed in seeds]
    expected = np.stack([problem.noise_block(gen, count) for gen in references], axis=1)
    assert (out.dtype, out.shape) == (expected.dtype, expected.shape)
    assert out.tobytes() == expected.tobytes()
    after = [problem.noise_block(gen, 3).tobytes() for gen in generators]
    assert after == [problem.noise_block(gen, 3).tobytes() for gen in references]


class TestFillNoiseBlock:
    """A block drawn for all replications at once has the per-generator bits."""

    @pytest.mark.parametrize("halfwidth", [0.0, 5e-324, 0.37])
    @pytest.mark.parametrize("dim", [1, 3, 64])
    @pytest.mark.parametrize("count", [1, 263])
    @pytest.mark.parametrize("replications", [1, 7])
    def test_quadratic(self, replications, count, dim, halfwidth):
        problem = ShiftedQuadratic(
            curvature=1.0, center=np.zeros(dim), noise_halfwidth=halfwidth
        )
        assert_fill_matches_noise_block(problem, replications, count)

    @pytest.mark.parametrize("dim", [1, 3, 64])
    @pytest.mark.parametrize("count", [1, 263])
    def test_quadratic_one_more_than_a_tile(self, count, dim):
        # The last tile holds a single replication: 32 769 at count = dim = 1.
        problem = ShiftedQuadratic(curvature=1.0, center=np.zeros(dim), noise_halfwidth=0.37)
        assert_fill_matches_noise_block(problem, quadratic_tile(count, dim) + 1, count)

    @pytest.mark.parametrize("rows", [3, 300])
    @pytest.mark.parametrize("count", [1, 263])
    @pytest.mark.parametrize("replications", [1, 7, 9])
    def test_least_squares(self, replications, count, rows):
        problem = FiniteSumLeastSquares(design=np.ones((rows, 1)), targets=np.zeros(rows))
        assert_fill_matches_noise_block(problem, replications, count)

    def test_tiles_of_one_replication(self, monkeypatch):
        monkeypatch.setattr(objective, "_TILE_BYTES", 1)
        assert quadratic_tile(263, 3) == 1
        assert_fill_matches_noise_block(make_quadratic(dim=3, halfwidth=0.37), 5, 263)


def stage_generators(rng, samples):
    """The generator and sample count of each block of a verify stage: block
    0 draws from ``rng``, block b from a copy jumped b times before it."""
    cap = objective._AUDIT_CHUNK
    blocks = -(-samples // cap)
    generators = [rng] + [rng.jumped(b) for b in range(1, blocks)]
    return [(gen, min(cap, samples - b * cap)) for b, gen in enumerate(generators)]


def audit_blocks(problem, cert, samples, rng):
    """The (noise, x, y) draws of each block of ``audit_certificate``."""
    blocks = []
    for gen, count in stage_generators(rng, samples):
        xs = sample_in_ball(cert.region_center, cert.region_radius, count, gen)
        ys = sample_in_ball(cert.region_center, cert.region_radius, count, gen)
        blocks.append((problem.noise_block(gen, count), xs, ys))
    return blocks


def audit_draws(problem, cert, samples, seed):
    """The (noise, x, y) draws of ``audit_certificate`` for ``seed``."""
    blocks = audit_blocks(problem, cert, samples, SeededGenerator(seed))
    return tuple(np.concatenate(draws) for draws in zip(*blocks))


def gradient_draws(problem, cert, samples, seed):
    """The (noise, x) draws of ``check_gradients`` for ``seed``."""
    noise, xs = [], []
    for gen, count in stage_generators(SeededGenerator(seed), samples):
        xs.append(sample_in_ball(cert.region_center, cert.region_radius, count, gen))
        noise.append(problem.noise_block(gen, count))
    return np.concatenate(noise), np.concatenate(xs)


def chunk_problem(name):
    """A problem and its certificate; ``ls-RxD`` is least squares R x D."""
    if name.startswith("quadratic-"):
        dim = int(name.split("-")[1])
        problem = ShiftedQuadratic(
            curvature=1.3, center=np.linspace(-1, 1, dim), noise_halfwidth=0.4
        )
        return problem, problem.certify(2.0, problem.minimizer())
    rows, dim = map(int, name[3:].split("x"))
    problem = least_squares(rows, dim, seed=rows + dim)
    return problem, problem.certify(1.0, problem.minimizer())


CHUNK_GRID = [
    (name, samples)
    for name in [
        "quadratic-2", "quadratic-16", "ls-12x3", "ls-128x16", "ls-128x2", "ls-201x16",
        "ls-385x16", "ls-2048x16",
    ]
    for samples in [1, 7, 1025, 32_769, 40_001]
]


class TestVerifyChunks:
    """Both verify stages evaluate cache-sized chunks with the bits of one batch."""

    @pytest.mark.parametrize("dimension, size", [
        (1, 4096),      # below 16 dimensions a chunk is sized as at 16
        (2, 4096),
        (3, 4096),
        (8, 4096),
        (16, 4096),
        (33, 1985),
        (64, 1024),
    ])
    def test_chunk_size(self, dimension, size):
        parts = objective._verify_chunks(1 << 15, dimension)
        assert parts[0] == slice(0, size)

    def test_chunks_are_sized_by_the_dimension_alone(self, monkeypatch, fake_cores):
        # A least-squares chunk is as long as a quadratic one of the same
        # dimension, however many design rows it has.
        fake_cores(1)
        values = objective._audit_values
        lengths = []

        def recording(problem, cert, noise, x, y):
            lengths.append(x.shape[0])
            return values(problem, cert, noise, x, y)

        monkeypatch.setattr(objective, "_audit_values", recording)
        for name in ["quadratic-16", "ls-128x16", "ls-2048x16"]:
            problem, cert = chunk_problem(name)
            audit_certificate(problem, cert, 10_000, SeededGenerator(3))
        assert lengths == [4096, 4096, 1808] * 3

    def test_one_sample_per_chunk_at_the_smallest_budget(self, monkeypatch):
        monkeypatch.setattr(objective, "_VERIFY_CHUNK_BYTES", 1)
        assert objective._verify_chunks(3, 64) == [slice(0, 1), slice(1, 2), slice(2, 3)]

    @pytest.mark.parametrize("samples", [
        1, 7, 1023, 1024, 2047, 2048, 3000, 32_767, 32_768, 32_769, 33_792, 34_817, 40_001, 100_000,
    ])
    def test_chunks_tile_every_block(self, samples):
        size, cap = 4096, objective._AUDIT_CHUNK
        counts = [count for _, count in objective._StageBlocks(SeededGenerator(0), samples)]
        assert counts == [min(cap, samples - lo) for lo in range(0, samples, cap)]
        for block_length in counts:
            parts = objective._verify_chunks(block_length, 16)
            assert parts[0].start == 0 and parts[-1].stop == block_length
            assert all(a.stop == b.start for a, b in zip(parts, parts[1:]))
            assert all(part.stop - part.start == size for part in parts[:-1])
            assert 0 < parts[-1].stop - parts[-1].start <= size

    def test_planning_a_stage_holds_no_generator_per_block(self, peak_traced_bytes):
        # 10^9 samples are 30 518 blocks; planning them builds two copies of
        # the generator, and each block's copy is built when it is taken.
        rng, blocks = SeededGenerator(5), []
        peak = peak_traced_bytes(lambda: blocks.append(objective._StageBlocks(rng, 10**9)))
        assert peak < 2**20, peak
        [stage] = blocks
        assert len(stage) == 30_518
        assert stage[30_517][1] == 10**9 - 30_517 * objective._AUDIT_CHUNK
        with pytest.raises(IndexError):
            stage[30_518]

    def test_a_block_taken_late_draws_from_its_own_jump(self):
        # Blocks 1 and 3 are taken after block 0 and block 1 have drawn, and
        # still draw what copies jumped before any draw give.
        rng = SeededGenerator(11)
        expected = [SeededGenerator(11).jumped(b).random(np.empty(3)) for b in (1, 3)]
        stage = objective._StageBlocks(rng, 4 * objective._AUDIT_CHUNK)
        stage[0][0].random(np.empty(5))
        late = []
        for b in (1, 3):
            late.append(stage[b][0].random(np.empty(3)))
            stage[b][0].random(np.empty(7))
        assert [draws.tobytes() for draws in late] == [draws.tobytes() for draws in expected]

    @pytest.mark.parametrize("name, samples", CHUNK_GRID)
    def test_audit_values_equal_whole_blocks(self, name, samples):
        # The reference evaluates each block of _AUDIT_CHUNK samples in one
        # batch, as the audit did before chunks were sized by memory; up to
        # 2^15 samples that is one whole-batch evaluation.
        problem, cert = chunk_problem(name)
        for block in audit_blocks(problem, cert, samples, SeededGenerator(samples)):
            ratios, rel_slack = objective._audit_arrays(problem, cert, *block)
            whole_ratios, whole_slack = objective._audit_values(problem, cert, *block)
            assert_same_bits(ratios, whole_ratios)
            assert_same_bits(rel_slack, whole_slack)

    @pytest.mark.parametrize("name", ["quadratic-16", "ls-128x16", "ls-2048x16"])
    def test_gradient_check_is_bitwise_equal_at_the_cap_and_at_the_old_block(
        self, name, monkeypatch
    ):
        problem, cert = chunk_problem(name)
        report = check_gradients(problem, cert, 40_001, SeededGenerator(9))
        monkeypatch.setattr(objective, "_VERIFY_CHUNK_BYTES", 1 << 40)
        assert objective._verify_chunks(1 << 15, problem.dimension) == [slice(0, 1 << 15)]
        assert check_gradients(problem, cert, 40_001, SeededGenerator(9)) == report

    @pytest.mark.parametrize("name", ["quadratic-2", "ls-12x3", "ls-128x16"])
    def test_gradient_check_matches_a_copy_per_coordinate(self, name):
        # Reference: every coordinate shifted in a fresh copy of all points.
        problem, cert = chunk_problem(name)
        samples = 3001
        rng = SeededGenerator(11)
        xs = sample_in_ball(cert.region_center, cert.region_radius, samples, rng)
        noise = problem.noise_block(rng, samples)
        grads = problem.pointwise_gradient(noise, xs)
        h = 1e-6 * (1.0 + np.sqrt(sq_norm(xs)))
        errors = []
        for j in range(problem.dimension):
            plus, minus = xs.copy(), xs.copy()
            plus[:, j] = xs[:, j] + h
            minus[:, j] = xs[:, j] - h
            difference = problem.pointwise_loss(noise, plus) - problem.pointwise_loss(noise, minus)
            approx = difference / (2.0 * h)
            errors.append(np.abs(approx - grads[:, j]) / np.maximum(1.0, np.abs(grads[:, j])))
        report = check_gradients(problem, cert, samples, SeededGenerator(11))
        assert report.max_rel_error == float(np.max(errors))

    def test_audit_memory_stays_near_the_draws(self, peak_traced_bytes):
        problem, cert = chunk_problem("ls-2048x16")
        samples = 40_000
        # x and y, the int64 row draws before they are stored compact, and
        # one ratio and one slack per sample.
        draws = 2 * samples * 16 * 8 + samples * 8 + 2 * samples * 8
        peak = peak_traced_bytes(
            lambda: audit_certificate(problem, cert, samples, SeededGenerator(5))
        )
        assert peak < draws + 4 * 2**20

    def test_gradient_check_memory_stays_near_the_draws(self, peak_traced_bytes, fake_cores):
        # One thread: each further thread holds a block and its chunk.
        fake_cores(1)
        problem, cert = chunk_problem("ls-2048x16")
        samples = 40_000
        draws = samples * 16 * 8 + samples * 8
        peak = peak_traced_bytes(
            lambda: check_gradients(problem, cert, samples, SeededGenerator(5))
        )
        assert peak < draws + 4 * 2**20

    @pytest.mark.parametrize("stage", ["audit", "gradient_check"])
    def test_memory_stays_near_the_draws_at_two_dimensions(
        self, stage, peak_traced_bytes, fake_cores
    ):
        # The draws of a d=2 block take 1.5 MiB in the audit and 1 MiB in
        # the gradient check; evaluated as one chunk, the block would take
        # them to 6.0 and 4.0 MiB.
        fake_cores(1)
        problem, cert = chunk_problem("quadratic-2")
        check = audit_certificate if stage == "audit" else check_gradients
        # A first call in a fresh process also traces the modules numpy
        # imports on first use, about 0.7 MiB.
        check(problem, cert, 40_000, SeededGenerator(5))
        peak = peak_traced_bytes(lambda: check(problem, cert, 40_000, SeededGenerator(5)))
        assert peak < 3 * 2**20


class TestVerifyBlocks:
    """Verify stages draw and evaluate independent blocks on a thread pool."""

    @pytest.mark.parametrize("stage", ["audit", "gradient_check"])
    def test_memory_does_not_grow_with_the_samples(self, stage, fake_cores, peak_traced_bytes,
                                                   monkeypatch):
        fake_cores(1)
        monkeypatch.setattr(objective, "_AUDIT_CHUNK", 1 << 12)
        problem, cert = chunk_problem("ls-128x16")
        check = audit_certificate if stage == "audit" else check_gradients
        peaks = [
            peak_traced_bytes(lambda: check(problem, cert, samples, SeededGenerator(5)))
            for samples in (2 << 12, 8 << 12)
        ]
        assert peaks[1] <= 1.25 * peaks[0]

    def test_no_thread_is_left_behind(self, fake_cores, tmp_path, monkeypatch, capsys):
        # A thread left running would keep the next run_seeds in one process.
        from sgdcheck import engine

        fake_cores(2)
        monkeypatch.setattr(objective, "_AUDIT_CHUNK", 64)
        config = tmp_path / "experiment.json"
        config.write_text(json.dumps({
            "problem": {"family": "shifted_quadratic", "curvature": 1.0,
                        "center": [0.0, 0.0], "noise_halfwidth": 0.5},
            "schedule": {"kind": "constant", "rho": 0.05}, "x0": [0.5, 0.0],
            "horizon": 5, "replications": 2, "master_seed": 3, "region_radius": 2.0,
            "verify": {"audit_samples": 1000, "gradient_checks": 500},
        }), encoding="utf-8")
        before = threading.active_count()
        assert main(["verify", str(config)]) == 0
        assert "samples=1000" in capsys.readouterr().out
        assert threading.active_count() == before
        assert engine._process_count(8000, 2000) == 2

    def test_every_block_runs_once_in_order(self, fake_cores):
        # More threads than cores and a short switch interval, so the threads
        # interleave as they take blocks from their shared iterator.
        fake_cores(8)
        calls = []

        def record(block):
            calls.append(block)
            return -block

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = objective._map_blocks(record, list(range(2000)))
        finally:
            sys.setswitchinterval(interval)
        assert sorted(calls) == list(range(2000))
        assert results == [-b for b in range(2000)]

    @staticmethod
    def block_of(blocks):
        """The index of the block whose points start with ``x[0]``."""
        firsts = [xs[0] for _, xs, _ in blocks]
        return lambda x: next(b for b, first in enumerate(firsts) if np.array_equal(first, x[0]))

    def test_a_failing_block_stops_the_blocks_after_it(self, fake_cores, monkeypatch):
        # Block 2 returns only after block 3 has raised, so the second
        # thread is free for block 4 only once block 3 failed.
        fake_cores(2)
        monkeypatch.setattr(objective, "_AUDIT_CHUNK", 50)
        problem = make_quadratic(halfwidth=0.5)
        cert = problem.certify(2.0, [2.0, 0.0])
        block_of = self.block_of(audit_blocks(problem, cert, 300, SeededGenerator(8)))
        values = objective._audit_values
        ran, raised = [], threading.Event()

        class BlockFailed(Exception):
            pass

        def failing_block_3(problem, cert, noise, x, y):
            block = block_of(x)
            ran.append(block)
            if block == 3:
                raised.set()
                raise BlockFailed
            if block == 2:
                assert raised.wait(timeout=30)
                time.sleep(0.2)
            return values(problem, cert, noise, x, y)

        monkeypatch.setattr(objective, "_audit_values", failing_block_3)
        before = threading.active_count()
        with pytest.raises(BlockFailed):
            audit_certificate(problem, cert, 300, SeededGenerator(8))
        assert sorted(ran) == [0, 1, 2, 3]
        assert threading.active_count() == before

    @pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="needs pthread_kill")
    def test_an_interrupt_stops_the_blocks_not_started(self, fake_cores, monkeypatch):
        # Block 1 interrupts the caller once it waits for the blocks, after
        # it started both threads; both blocks return only once the caller
        # joins the threads, so no block after them starts.
        fake_cores(2)
        monkeypatch.setattr(objective, "_AUDIT_CHUNK", 50)
        problem = make_quadratic(halfwidth=0.5)
        cert = problem.certify(2.0, [2.0, 0.0])
        block_of = self.block_of(audit_blocks(problem, cert, 300, SeededGenerator(8)))
        values = objective._audit_values
        ran, waiting, joining = [], threading.Event(), threading.Event()
        acquire, join = threading.Semaphore.acquire, threading.Thread.join

        def signalling_acquire(semaphore, *args, **kwargs):
            if threading.current_thread() is threading.main_thread():
                waiting.set()
            return acquire(semaphore, *args, **kwargs)

        def signalling_join(thread, *args, **kwargs):
            joining.set()
            return join(thread, *args, **kwargs)

        def interrupting_block_1(problem, cert, noise, x, y):
            block = block_of(x)
            ran.append(block)
            if block == 1:
                assert waiting.wait(timeout=30)
                signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
            if block < 2:
                assert joining.wait(timeout=30)
            return values(problem, cert, noise, x, y)

        monkeypatch.setattr(threading.Semaphore, "acquire", signalling_acquire)
        monkeypatch.setattr(threading.Thread, "join", signalling_join)
        monkeypatch.setattr(objective, "_audit_values", interrupting_block_1)
        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            audit_certificate(problem, cert, 300, SeededGenerator(8))
        assert sorted(ran) == [0, 1]
        assert threading.active_count() == before

    def test_a_thread_whose_start_was_interrupted_is_joined(self, fake_cores, monkeypatch):
        # The interrupt lands once the first thread runs, before start()
        # returns to the caller.
        from sgdcheck import engine

        fake_cores(2)
        monkeypatch.setattr(objective, "_AUDIT_CHUNK", 2000)
        problem = make_quadratic(halfwidth=0.5)
        cert = problem.certify(2.0, [2.0, 0.0])
        start = threading.Thread.start
        interrupted = []

        def interrupted_start(thread):
            start(thread)
            if not interrupted:
                interrupted.append(thread)
                raise KeyboardInterrupt

        monkeypatch.setattr(threading.Thread, "start", interrupted_start)
        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            audit_certificate(problem, cert, 20_000, SeededGenerator(8))
        assert threading.active_count() == before
        assert not interrupted[0].is_alive()
        assert engine._process_count(8000, 2000) == 2


def overflowing_quadratic():
    """A certificate whose mean losses overflow at every audited point."""
    problem = ShiftedQuadratic(curvature=1e-160, center=np.zeros(2), noise_halfwidth=0.5)
    return problem, problem.certify(1e155, [0.0, 0.0])


class TestNonFiniteValues:
    """A NaN or infinite value is a violation, never a pass."""

    def test_nan_slacks_fail_the_audit(self):
        problem, cert = overflowing_quadratic()
        report = audit_certificate(problem, cert, 1000, SeededGenerator(1))
        assert not report.passed
        assert report.grad_violations == 0
        assert report.convexity_violations == 1000
        assert np.isnan(report.min_convexity_slack)
        assert report.convexity_witness is not None

    def test_nan_errors_fail_the_gradient_check(self):
        problem, cert = overflowing_quadratic()
        report = check_gradients(problem, cert, 1000, SeededGenerator(1))
        assert not report.passed
        assert np.isnan(report.max_rel_error)

    def test_a_nan_in_a_later_chunk_is_carried(self, monkeypatch):
        problem = make_quadratic(halfwidth=0.5)
        cert = problem.certify(2.0, [2.0, 0.0])
        samples = 40_001
        last_noise = gradient_draws(problem, cert, samples, seed=5)[0][-1]
        loss = ShiftedQuadratic.pointwise_loss

        def nan_at_the_last_draw(self, noise, x):
            return np.where((noise == last_noise).all(axis=-1), np.nan, loss(self, noise, x))

        assert check_gradients(problem, cert, samples, SeededGenerator(5)).passed
        monkeypatch.setattr(ShiftedQuadratic, "pointwise_loss", nan_at_the_last_draw)
        report = check_gradients(problem, cert, samples, SeededGenerator(5))
        assert not report.passed
        assert np.isnan(report.max_rel_error)

    def test_a_nan_ratio_fails_the_audit(self, monkeypatch):
        problem = make_quadratic(halfwidth=0.5)
        cert = problem.certify(2.0, [2.0, 0.0])
        samples = 40_001
        last_noise = audit_draws(problem, cert, samples, seed=7)[0][-1]
        gradient = ShiftedQuadratic.pointwise_gradient

        def nan_at_the_last_draw(self, noise, x, out=None):
            value = gradient(self, noise, x, out)
            return np.where((noise == last_noise).all(axis=-1, keepdims=True), np.nan, value)

        monkeypatch.setattr(ShiftedQuadratic, "pointwise_gradient", nan_at_the_last_draw)
        report = audit_certificate(problem, cert, samples, SeededGenerator(7))
        assert not report.passed
        assert report.grad_violations == 1
        assert np.isnan(report.max_grad_ratio)
        assert np.array_equal(report.grad_witness[0], last_noise)

    def test_infinite_ratios_are_violations(self):
        problem = make_quadratic(halfwidth=0.5)
        cert = problem.certify(2.0, [2.0, 0.0])
        tiny = dataclasses.replace(cert, grad_sq_bound=5e-324)
        report = audit_certificate(problem, tiny, 100, SeededGenerator(6))
        assert report.max_grad_ratio == np.inf
        assert report.grad_violations == 100


class TestCertifyOverflow:
    """A grad_sq_bound that overflows a double cannot be certified."""

    def test_quadratic(self):
        problem = ShiftedQuadratic(curvature=1e200, center=np.zeros(2), noise_halfwidth=0.5)
        with pytest.raises(CertificationError, match="grad_sq_bound"):
            problem.certify(1.0, [0.0, 0.0])

    def test_least_squares(self):
        problem = FiniteSumLeastSquares(
            design=[[1e100, 0.0], [0.0, 1e100], [1e100, 1e100]], targets=[1.0, 0.0, 1.0]
        )
        with pytest.raises(CertificationError, match="grad_sq_bound"):
            problem.certify(1.5, [0.0, 0.0])
