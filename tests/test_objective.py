"""Tests for the problem families, their certificates, and the audits."""
import numpy as np
import pytest

from sgdcheck import (
    CertificationError,
    ConfigurationError,
    FiniteSumLeastSquares,
    SeededGenerator,
    ShiftedQuadratic,
    UsageError,
    audit_certificate,
    check_gradients,
    sample_in_ball,
)
from sgdcheck import objective
from sgdcheck.objective import row_dot, sq_norm

import dataclasses


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

    def test_degenerate_noise_is_exactly_zero(self):
        problem = make_quadratic(halfwidth=0.0)
        draw = problem.sample_noise(SeededGenerator(5))
        assert np.array_equal(draw, np.zeros(2))

    def test_noise_law_bounds_and_reproducibility(self):
        problem = make_quadratic(halfwidth=0.3)
        first = problem.sample_noise(SeededGenerator(11))
        second = problem.sample_noise(SeededGenerator(11))
        assert np.array_equal(first, second)
        block = problem.noise_block(SeededGenerator(11), 1000)
        assert block.shape == (1000, 2)
        assert np.all(np.abs(block) <= 0.3)

    def test_noise_block_matches_per_step_draws(self):
        problem = make_quadratic(halfwidth=0.3)
        block = problem.noise_block(SeededGenerator(77), 50)
        gen = SeededGenerator(77)
        singles = np.array([problem.sample_noise(gen) for _ in range(50)])
        assert np.array_equal(block, singles)

    def test_mean_loss_noise_floor(self):
        problem = ShiftedQuadratic(curvature=1.0, center=[0.5, -0.5], noise_halfwidth=1.0)
        at_center = problem.mean_loss(np.array([0.5, -0.5]))
        assert at_center == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_mean_quantities_match_pointwise_at_zero_noise(self):
        problem = make_quadratic(halfwidth=0.0)
        x = np.array([1.2, -0.7])
        assert problem.mean_loss(x) == pytest.approx(
            problem.pointwise_loss(np.zeros(2), x), rel=1e-15
        )
        np.testing.assert_allclose(
            problem.mean_gradient(x), problem.pointwise_gradient(np.zeros(2), x)
        )

    def test_minimizer_is_center(self):
        problem = ShiftedQuadratic(curvature=2.0, center=[3.0, 4.0], noise_halfwidth=0.2)
        np.testing.assert_array_equal(problem.minimizer(), [3.0, 4.0])

    def test_dimension_mismatch_raises(self):
        problem = make_quadratic()
        with pytest.raises(ConfigurationError):
            problem.mean_loss(np.zeros(3))

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

    def test_containment_flag_needs_noise_inside_region(self):
        problem = ShiftedQuadratic(curvature=1.0, center=[0.0], noise_halfwidth=5.0)
        cert = problem.certify(1.0, [0.5])
        assert not cert.guaranteed_containment

    def test_strong_convexity_holds_with_equality(self):
        problem = ShiftedQuadratic(curvature=1.7, center=[0.3, -0.2, 1.0], noise_halfwidth=0.4)
        rng = SeededGenerator(21)
        xs = rng.normal(size=(200, 3))
        ys = rng.normal(size=(200, 3))
        lhs = problem.mean_loss(ys) - problem.mean_loss(xs)
        lhs = lhs - row_dot(problem.mean_gradient(xs), ys - xs)
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
        grad = problem.mean_gradient(x_star)
        assert np.linalg.norm(grad) <= 1e-9 * (1.0 + np.linalg.norm(x_star))

    def test_certificate_identity_design(self):
        problem = FiniteSumLeastSquares(design=np.eye(2), targets=[0.0, 0.0])
        cert = problem.certify(1.0, [0.0, 0.0])
        assert cert.strong_convexity == pytest.approx(0.5, abs=1e-10)
        assert cert.grad_sq_bound == pytest.approx(1.0, rel=1e-12)
        assert not cert.guaranteed_containment

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
        slack = (
            problem.mean_loss(ys)
            - problem.mean_loss(xs)
            - row_dot(problem.mean_gradient(xs), ys - xs)
            - 0.5 * cert.strong_convexity * sq_norm(ys - xs)
        )
        assert slack.min() >= -1e-12


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
        noise = problem.noise_block(rng, 5) if batch else problem.sample_noise(rng)
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
        exact = problem.mean_gradient(x)
        assert np.all(np.abs(sample_mean - exact) <= 5.0 * stderr + 1e-12)

    def test_finite_sum(self):
        rng = SeededGenerator(52)
        problem = FiniteSumLeastSquares(design=rng.normal(size=(6, 2)), targets=rng.normal(size=6))
        x = np.array([0.3, -0.8])
        draws = problem.noise_block(rng, 100_000)
        grads = problem.pointwise_gradient(draws, x)
        sample_mean = grads.mean(axis=0)
        stderr = grads.std(axis=0, ddof=1) / np.sqrt(grads.shape[0])
        exact = problem.mean_gradient(x)
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
            base = problem.mean_loss(x_star)
            directions = rng.normal(size=(100, 2))
            directions /= np.sqrt(sq_norm(directions))[:, None]
            moved = problem.mean_loss(x_star + scale * directions)
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

    @pytest.mark.parametrize("family", ["quadratic", "finite_sum"])
    def test_chunking_is_invisible(self, family, monkeypatch):
        # Samples are drawn in full and then evaluated in chunks; no chunk
        # size may change a ratio, a count or a witness.
        if family == "quadratic":
            problem = make_quadratic(halfwidth=0.5)
            cert = problem.certify(2.0, [2.0, 0.0])
        else:
            rng = SeededGenerator(75)
            problem = FiniteSumLeastSquares(
                design=rng.normal(size=(12, 3)), targets=rng.normal(size=12)
            )
            cert = problem.certify(1.5, problem.minimizer())
        corrupted = dataclasses.replace(
            cert,
            grad_sq_bound=cert.grad_sq_bound * 0.8,
            strong_convexity=cert.strong_convexity * 1.1,
        )
        reports = []
        for chunk in (7, 1000, 1 << 20):
            monkeypatch.setattr(objective, "_AUDIT_CHUNK", chunk)
            reports.append(audit_certificate(problem, corrupted, 5003, SeededGenerator(76)))
        first = reports[0]
        assert first.grad_violations > 0 and first.convexity_violations > 0
        for other in reports[1:]:
            assert other.max_grad_ratio == first.max_grad_ratio
            assert other.min_convexity_slack == first.min_convexity_slack
            assert other.grad_violations == first.grad_violations
            assert other.convexity_violations == first.convexity_violations
            for mine, theirs in zip(other.grad_witness + other.convexity_witness,
                                    first.grad_witness + first.convexity_witness):
                assert np.array_equal(mine, theirs)


class TestSampleInBall:
    def test_stays_inside_and_reproduces(self):
        center = np.array([1.0, -2.0, 0.5])
        points = sample_in_ball(center, 1.5, 2000, SeededGenerator(81))
        again = sample_in_ball(center, 1.5, 2000, SeededGenerator(81))
        assert np.array_equal(points, again)
        assert np.all(sq_norm(points - center) <= 1.5**2 + 1e-12)
        # The draws should actually fill the ball, not hug the center.
        assert np.sqrt(sq_norm(points - center)).max() > 1.4
