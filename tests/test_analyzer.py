"""Tests for d_n estimation, the envelope, and the verdict checks."""
import dataclasses
import warnings
from fractions import Fraction

import numpy as np
import pytest

from sgdcheck import (
    BoundSequence,
    ConstantSchedule,
    DnSeries,
    DomainError,
    FiniteSumLeastSquares,
    HypothesisCertificate,
    InverseTimeSchedule,
    SeededGenerator,
    ReplicationSummary,
    ShiftedQuadratic,
    UsageError,
    bound_sequence,
    check_convergence,
    check_descent_inequality,
    check_neighborhood,
    check_recurrence,
    estimate_dn,
    product_decay,
)
from sgdcheck import analyzer
from sgdcheck.analyzer import merge_parts, step_stats


def make_runs(rows, in_region=None):
    """A replication summary folded from explicit squared-distance rows."""
    rows = np.asarray(rows, dtype=float)
    flags = np.ones_like(rows, dtype=bool) if in_region is None else np.asarray(in_region)
    mean, stderr = step_stats(rows.T)
    return ReplicationSummary(
        seeds=tuple(range(rows.shape[0])),
        steps=rows.shape[1] - 1,
        sq_dist_mean=mean,
        sq_dist_stderr=stderr,
        in_region_count=flags.sum(axis=0),
        final_x=np.zeros((rows.shape[0], 1)),
    )


def make_cert(mu=1.0, grad_sq_bound=1.0, radius=10.0, dim=1):
    return HypothesisCertificate(
        strong_convexity=mu,
        grad_sq_bound=grad_sq_bound,
        region_center=np.zeros(dim),
        region_radius=radius,
        guaranteed_containment=True,
    )


def make_series(mean, stderr=None, fraction=None, replications=4):
    mean = np.asarray(mean, dtype=float)
    stderr = np.zeros_like(mean) if stderr is None else np.asarray(stderr, dtype=float)
    fraction = np.ones_like(mean) if fraction is None else np.asarray(fraction, dtype=float)
    return DnSeries(
        replications=replications, mean=mean, stderr=stderr, in_region_fraction=fraction
    )


class TestEstimateDn:
    def test_two_point_example(self):
        # Columns {0, 2}: mean 1, sample std sqrt(2), standard error 1.
        series = estimate_dn(make_runs([[0.0, 0.0], [2.0, 2.0]]))
        np.testing.assert_array_equal(series.mean, [1.0, 1.0])
        np.testing.assert_array_equal(series.stderr, [1.0, 1.0])
        np.testing.assert_array_equal(series.in_region_fraction, [1.0, 1.0])
        assert series.replications == 2
        assert series.steps == 1

    def test_constant_columns_are_exact(self):
        series = estimate_dn(make_runs([[0.3, 0.1]] * 3))
        np.testing.assert_array_equal(series.mean, [0.3, 0.1])
        np.testing.assert_array_equal(series.stderr, [0.0, 0.0])

    def test_order_invariance_is_bitwise(self):
        rng = SeededGenerator(10)
        rows = rng.uniform(0.0, 1.0, size=(7, 30))
        forward = estimate_dn(make_runs(rows))
        backward = estimate_dn(make_runs(rows[::-1]))
        assert np.array_equal(forward.mean, backward.mean)
        assert np.array_equal(forward.stderr, backward.stderr)

    def test_region_fraction(self):
        series = estimate_dn(make_runs([[0.0, 0.0], [0.0, 0.0]], [[True, True], [True, False]]))
        np.testing.assert_array_equal(series.in_region_fraction, [1.0, 0.5])

    def test_needs_two_replications(self):
        with pytest.raises(UsageError):
            estimate_dn(make_runs([[1.0, 1.0]]))


class TestStepStats:
    def test_single_replication_is_exact(self):
        mean, stderr = step_stats(np.array([[0.1], [0.7], [3.0]]))
        np.testing.assert_array_equal(mean, [0.1, 0.7, 3.0])
        np.testing.assert_array_equal(stderr, [0.0, 0.0, 0.0])

    def test_sums_sorted_values_left_to_right(self):
        # The mean and the squared deviations are summed in ascending order
        # of the values, one after another, so a plain Python loop over the
        # sorted values reproduces every bit.
        rng = SeededGenerator(11)
        block = rng.uniform(0.0, 1.0, size=(40, 25)) ** 3 * 1e3
        mean, stderr = step_stats(block)
        for n, row in enumerate(block):
            ordered = sorted(row)
            total = 0.0
            for value in ordered:
                total += value
            expected_mean = total / len(ordered)
            squares = 0.0
            for value in ordered:
                squares += (value - expected_mean) * (value - expected_mean)
            expected_stderr = np.sqrt(squares / (len(ordered) - 1) / len(ordered))
            assert mean[n] == expected_mean
            assert stderr[n] == expected_stderr

    def test_replication_order_is_invisible(self):
        rng = SeededGenerator(12)
        block = rng.uniform(0.0, 5.0, size=(30, 64))
        mean, stderr = step_stats(block)
        for trial in range(5):
            order = np.argsort(rng.uniform(0.0, 1.0, size=64))
            permuted_mean, permuted_stderr = step_stats(block[:, order])
            assert np.array_equal(mean, permuted_mean)
            assert np.array_equal(stderr, permuted_stderr)

    def test_step_split_is_invisible(self, monkeypatch):
        rng = SeededGenerator(13)
        block = rng.uniform(0.0, 5.0, size=(101, 32))
        mean, stderr = step_stats(block)
        for chunk in (32, 7 * 32, 200 * 32):
            monkeypatch.setattr(analyzer, "_STATS_CHUNK", chunk)
            assert np.array_equal(step_stats(block)[0], mean)
            assert np.array_equal(step_stats(block)[1], stderr)
        pieces = [step_stats(block[lo:lo + 13]) for lo in range(0, 101, 13)]
        assert np.array_equal(np.concatenate([p[0] for p in pieces]), mean)
        assert np.array_equal(np.concatenate([p[1] for p in pieces]), stderr)


    def test_huge_deviations_do_not_overflow(self):
        # The squared deviations, 2.5e399, overflow; the row is summed scaled
        # by a power of two, which the square root undoes exactly.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean, stderr = step_stats(np.array([[0.0, 1e200]]))
        assert mean[0] == 5e199
        assert stderr[0] == 5e199

    def test_huge_sum_does_not_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean, stderr = step_stats(np.array([[1e308, 1.7e308]]))
        # Halving is exact, so the scaled sum gives the bits of (a + b) / 2.
        assert mean[0] == 1e308 / 2 + 1.7e308 / 2
        assert stderr[0] == pytest.approx(0.35e308, rel=1e-15)

    def test_rescaled_rows_leave_the_others_alone(self):
        rng = SeededGenerator(14)
        block = rng.uniform(0.0, 5.0, size=(6, 9))
        mean, stderr = step_stats(block)
        mixed = block.copy()
        mixed[2] *= 1e300
        mixed_mean, mixed_stderr = step_stats(mixed)
        keep = np.arange(6) != 2
        assert np.array_equal(mixed_mean[keep], mean[keep])
        assert np.array_equal(mixed_stderr[keep], stderr[keep])
        assert np.isfinite(mixed_stderr[2])


def merged(block, cuts):
    """merge_parts over the step_stats of the column slices of ``block``
    between consecutive ``cuts``."""
    pieces = [step_stats(block[:, lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
    means, stderrs = (np.array([piece[i] for piece in pieces]) for i in (0, 1))
    return merge_parts(means, stderrs, np.diff(cuts).tolist())


class TestMergeParts:
    def test_one_part_is_returned_unchanged(self):
        block = SeededGenerator(15).uniform(0.0, 5.0, size=(20, 9))
        mean, stderr = step_stats(block)
        got = merged(block, [0, 9])
        assert got[0].tobytes() == mean.tobytes()
        assert got[1].tobytes() == stderr.tobytes()

    @pytest.mark.parametrize(
        "cuts",
        [[0, 4, 8, 12, 16, 20, 24, 28, 32, 36, 37], [0, 1, 37], [0, 36, 37], list(range(38))],
    )
    def test_matches_the_statistics_of_all_values(self, cuts):
        block = SeededGenerator(16).uniform(0.0, 5.0, size=(50, 37)) ** 3
        mean, stderr = step_stats(block)
        got_mean, got_stderr = merged(block, cuts)
        np.testing.assert_allclose(got_mean, mean, rtol=1e-14)
        np.testing.assert_allclose(got_stderr, stderr, rtol=1e-13)

    def test_constant_rows_are_exact(self):
        block = np.full((3, 11), 0.1)
        block[1] = 7.3
        block[2] = 1e308
        mean, stderr = merged(block, [0, 4, 8, 11])
        assert mean.tolist() == [0.1, 7.3, 1e308]
        assert stderr.tolist() == [0.0, 0.0, 0.0]

    def test_huge_deviations_do_not_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean, stderr = merged(np.array([[0.0, 1e200]]), [0, 1, 2])
        assert mean[0] == 5e199
        assert stderr[0] == 5e199

    def test_huge_sum_does_not_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean, stderr = merged(np.array([[1e308, 1.7e308]]), [0, 1, 2])
        assert mean[0] == pytest.approx(1.35e308, rel=1e-15)
        assert stderr[0] == pytest.approx(0.35e308, rel=1e-15)

    def test_rescaled_rows_stay_finite(self):
        block = SeededGenerator(14).uniform(0.0, 5.0, size=(6, 9))
        block[2] *= 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean, stderr = merged(block, [0, 4, 8, 9])
        whole_mean, whole_stderr = step_stats(block)
        assert np.isfinite(stderr[2])
        np.testing.assert_allclose(mean, whole_mean, rtol=1e-14)
        np.testing.assert_allclose(stderr, whole_stderr, rtol=1e-13)


class TestBoundSequence:
    def test_reference_values(self):
        bounds = bound_sequence(1.0, ConstantSchedule(rho=0.1), make_cert(), 2)
        np.testing.assert_allclose(bounds.values, [1.0, 0.91, 0.829], rtol=1e-12)
        assert bounds.d0 == 1.0

    def test_zero_gradient_bound_contracts_exactly(self):
        # With B = 0 and rate * mu = 0.5 every step halves the value, and
        # halving is exact in binary floating point.
        cert = make_cert(mu=1.0, grad_sq_bound=0.0)
        bounds = bound_sequence(1.0, ConstantSchedule(rho=0.5), cert, 30)
        np.testing.assert_array_equal(bounds.values, 0.5 ** np.arange(31))

    def test_fixed_point_is_exact(self):
        # Starting exactly at rho * B / mu must stay there to the last bit.
        cert = make_cert(mu=0.5, grad_sq_bound=2.0)
        theta = 0.1 * 2.0 / 0.5
        bounds = bound_sequence(theta, ConstantSchedule(rho=0.1), cert, 100)
        np.testing.assert_array_equal(bounds.values, np.full(101, theta))

    def test_deviation_contracts_at_exact_rate(self):
        # rho * mu = 1/4 gives the dyadic factor 3/4; with pivot 1 and d0 = 3
        # the deviation 2 * (3/4)^n is exactly representable for this range.
        cert = make_cert(mu=1.0, grad_sq_bound=4.0)
        bounds = bound_sequence(3.0, ConstantSchedule(rho=0.25), cert, 20)
        np.testing.assert_array_equal(bounds.values - 1.0, 2.0 * 0.75 ** np.arange(21))

    def test_decaying_rate_envelope_shrinks(self):
        cert = make_cert(mu=1.0, grad_sq_bound=1.0)
        bounds = bound_sequence(4.0, InverseTimeSchedule(scale=1.0, offset=1.0), cert, 10_000)
        assert bounds.values[10_000] < 0.01
        assert bounds.values[10_000] < bounds.values[1000] < bounds.values[0]

    @pytest.mark.parametrize(
        "schedule",
        [ConstantSchedule(rho=0.013), InverseTimeSchedule(scale=0.7, offset=3.3)],
    )
    def test_matches_numpy_scalar_loop(self, schedule):
        # The envelope recursion on numpy float64 scalars read back from the
        # array, one step at a time.
        cert = make_cert(mu=0.37, grad_sq_bound=2.9)
        steps = 5000
        rates = schedule.rates(0, steps)
        expected = np.empty(steps + 1)
        expected[0] = 1.7
        for n in range(steps):
            rate = rates[n]
            pivot = rate * cert.grad_sq_bound / cert.strong_convexity
            expected[n + 1] = (1.0 - rate * cert.strong_convexity) * (expected[n] - pivot) + pivot
        bounds = bound_sequence(1.7, schedule, cert, steps)
        assert bounds.values.tobytes() == expected.tobytes()

    def test_input_validation(self):
        cert = make_cert()
        with pytest.raises(UsageError):
            bound_sequence(-1.0, ConstantSchedule(rho=0.1), cert, 5)
        with pytest.raises(UsageError):
            bound_sequence(1.0, ConstantSchedule(rho=0.1), cert, 0)


class TestCheckRecurrence:
    def test_pass_and_boundary(self):
        series = make_series([1.0, 1.0], stderr=[0.0, 0.1])
        bounds = BoundSequence(
            values=np.array([1.0, 0.7]), d0=1.0, strong_convexity=1.0, grad_sq_bound=1.0
        )
        # At z = 3 the slack at step 1 is exactly zero, which still passes.
        verdict = check_recurrence(series, bounds, z=3.0)
        assert verdict.passed
        assert verdict.first_violation_index is None
        assert verdict.worst_margin == 0.0

    def test_violation_is_located(self):
        series = make_series([1.0, 1.0, 1.0], stderr=[0.0, 0.1, 0.0])
        bounds = BoundSequence(
            values=np.array([1.0, 0.5, 0.9]), d0=1.0, strong_convexity=1.0, grad_sq_bound=1.0
        )
        verdict = check_recurrence(series, bounds, z=1.0)
        assert not verdict.passed
        assert verdict.first_violation_index == 1
        assert verdict.worst_margin == pytest.approx(-0.4)

    def test_region_exits_are_excluded(self):
        series = make_series([1.0, 5.0], fraction=[1.0, 0.5])
        bounds = BoundSequence(
            values=np.array([1.0, 0.5]), d0=1.0, strong_convexity=1.0, grad_sq_bound=1.0
        )
        verdict = check_recurrence(series, bounds)
        assert verdict.passed
        assert "1 excluded" in verdict.context

    def test_all_steps_excluded_is_vacuous(self):
        series = make_series([9.0, 9.0], fraction=[0.5, 0.5])
        bounds = BoundSequence(
            values=np.array([1.0, 1.0]), d0=1.0, strong_convexity=1.0, grad_sq_bound=1.0
        )
        verdict = check_recurrence(series, bounds)
        assert verdict.passed
        assert np.isnan(verdict.worst_margin)

    def test_validation(self):
        series = make_series([1.0, 1.0])
        bounds = BoundSequence(
            values=np.array([1.0]), d0=1.0, strong_convexity=1.0, grad_sq_bound=1.0
        )
        with pytest.raises(UsageError):
            check_recurrence(series, bounds)
        good = BoundSequence(
            values=np.array([1.0, 1.0]), d0=1.0, strong_convexity=1.0, grad_sq_bound=1.0
        )
        with pytest.raises(UsageError):
            check_recurrence(series, good, z=0.0)


class TestCheckNeighborhood:
    def test_constant_schedule_required(self):
        series = make_series([1.0, 1.0])
        with pytest.raises(UsageError):
            check_neighborhood(
                series, make_cert(), InverseTimeSchedule(scale=1.0, offset=1.0), 1, 0.2
            )

    def test_stability_required(self):
        series = make_series([1.0, 1.0])
        with pytest.raises(UsageError):
            check_neighborhood(series, make_cert(mu=2.0), ConstantSchedule(rho=0.5), 1, 0.2)

    def test_window_validation(self):
        series = make_series([1.0, 1.0])
        sched = ConstantSchedule(rho=0.1)
        with pytest.raises(UsageError):
            check_neighborhood(series, make_cert(), sched, 0, 0.2)
        with pytest.raises(UsageError):
            check_neighborhood(series, make_cert(), sched, 3, 0.2)

    def test_tail_within_theta_passes(self):
        # theta = 0.1 * 2 / 1 = 0.2 and the tolerance lifts it to 0.24.
        cert = make_cert(mu=1.0, grad_sq_bound=2.0)
        series = make_series([4.0, 1.0, 0.23, 0.21])
        verdict = check_neighborhood(series, cert, ConstantSchedule(rho=0.1), 2, 0.2)
        assert verdict.passed
        assert "theta=0.2" in verdict.context

    def test_tail_above_theta_fails_at_absolute_index(self):
        cert = make_cert(mu=1.0, grad_sq_bound=2.0)
        series = make_series([4.0, 1.0, 0.23, 0.30])
        verdict = check_neighborhood(series, cert, ConstantSchedule(rho=0.1), 2, 0.2)
        assert not verdict.passed
        assert verdict.first_violation_index == 3
        assert verdict.worst_margin == pytest.approx(-0.06)


class TestCheckConvergence:
    def test_pass_and_fail(self):
        series = make_series([4.0, 1.0, 0.5], stderr=[0.0, 0.1, 0.1])
        good = check_convergence(series, [(1, 1.5), (2, 0.6)])
        assert good.passed and good.first_violation_index is None
        bad = check_convergence(series, [(1, 0.5), (2, 0.6)])
        assert not bad.passed
        assert bad.first_violation_index == 1
        assert bad.worst_margin == pytest.approx(0.5 + 0.3 - 1.0)

    def test_three_sigma_allowance(self):
        series = make_series([2.0], stderr=[0.4])
        verdict = check_convergence(series, [(0, 0.8)])
        assert verdict.passed
        assert verdict.worst_margin == pytest.approx(0.0)

    def test_validation(self):
        series = make_series([4.0, 1.0, 0.5])
        with pytest.raises(UsageError):
            check_convergence(series, [])
        with pytest.raises(UsageError):
            check_convergence(series, [(5, 1.0)])
        with pytest.raises(UsageError):
            check_convergence(series, [(2, 1.0), (1, 1.0)])
        with pytest.raises(UsageError):
            check_convergence(series, [(1, 0.0)])
        with pytest.raises(UsageError):
            check_convergence(series, [(1.5, 1.0)])


class TestProductDecay:
    def test_inverse_time_reference_value(self):
        # scale * mu = 1 telescopes: the product over steps 1..9 is exactly
        # the rational 1/10, and the majorant exp(-sum of rates) sits above.
        result = product_decay(InverseTimeSchedule(scale=1.0, offset=1.0), 1.0, 1, 8)
        assert result.product == pytest.approx(0.1, rel=1e-12)
        assert result.majorant == pytest.approx(0.14529803184311987, rel=1e-12)
        assert result.product <= result.majorant

    def test_constant_reference_value(self):
        result = product_decay(ConstantSchedule(rho=0.5), 1.0, 3, 9)
        assert result.product == pytest.approx(0.5**10, rel=1e-12)
        assert result.majorant == pytest.approx(np.exp(-5.0), rel=1e-12)

    @pytest.mark.parametrize("n,k", [(0, 0), (0, 5), (1, 8), (3, 20), (10, 7)])
    def test_matches_exact_rational_product(self, n, k):
        sched = InverseTimeSchedule(scale=1.0, offset=2.0)
        exact = Fraction(1)
        for step_index in range(n, n + k + 1):
            exact *= 1 - Fraction(1, 2 + step_index)
        result = product_decay(sched, 1.0, n, k)
        assert result.product == pytest.approx(float(exact), rel=1e-12)

    def test_long_range_telescoping(self):
        # For scale * mu = 1 and offset c the product telescopes to
        # (c + n - 1) / (c + n + k).
        result = product_decay(InverseTimeSchedule(scale=1.0, offset=2.0), 1.0, 5, 100_000)
        assert result.product == pytest.approx(6.0 / 100_007.0, rel=1e-12)
        assert result.product <= result.majorant

    def test_majorant_dominates_on_random_schedules(self):
        rng = SeededGenerator(55)
        for _ in range(20):
            scale = rng.uniform(1e-3, 5.0)
            schedules = (
                ConstantSchedule(rho=rng.uniform(1e-6, 0.999)),
                InverseTimeSchedule(scale=scale, offset=scale * rng.uniform(1.001, 10.0)),
            )
            for sched in schedules:
                result = product_decay(sched, 1.0, 0, 49)
                assert result.product <= result.majorant
                assert result.log_product <= result.log_majorant

    def test_domain_error_names_first_bad_step(self):
        with pytest.raises(DomainError) as info:
            product_decay(InverseTimeSchedule(scale=1.0, offset=1.0), 1.0, 0, 5)
        assert "rate(0)" in str(info.value)
        with pytest.raises(DomainError):
            product_decay(ConstantSchedule(rho=1.0), 1.0, 0, 0)

    def test_domain_error_names_the_first_step_of_a_later_range(self):
        with pytest.raises(DomainError) as info:
            product_decay(ConstantSchedule(rho=2.0), 1.0, 3, 5)
        assert "rate(3) * mu >= 1" in str(info.value)

    def test_parameter_validation(self):
        sched = ConstantSchedule(rho=0.1)
        with pytest.raises(UsageError):
            product_decay(sched, 0.0, 0, 1)
        with pytest.raises(UsageError):
            product_decay(sched, 1.0, -1, 1)
        with pytest.raises(UsageError):
            product_decay(sched, 1.0, 0, -1)


def one_shot_decay(schedule, mu, n, k):
    """The lemma sums as one np.sum over the whole range (the reference)."""
    terms = schedule.rates(n, k + 1) * mu
    return float(np.sum(np.log1p(-terms))), float(-np.sum(terms))


LEMMA_SCHEDULES = {
    "constant": (ConstantSchedule(rho=0.3), 1e-3),
    "inverse_time": (InverseTimeSchedule(scale=1.0, offset=3.0), 0.7),
}


class TestProductDecayChunks:
    """The range is summed in parts with the bits of one pairwise np.sum."""

    @pytest.mark.parametrize(
        "kind,length",
        [
            (kind, length)
            for length in (1, 8, 128, 129, 1 << 16, (1 << 16) + 1, (1 << 17) + 7, 5_000_000)
            for kind in sorted(LEMMA_SCHEDULES)
        ],
    )
    def test_bitwise_equal_to_one_shot_sum(self, kind, length):
        schedule, mu = LEMMA_SCHEDULES[kind]
        for n in (0, 5):
            result = product_decay(schedule, mu, n, length - 1)
            log_product, log_majorant = one_shot_decay(schedule, mu, n, length - 1)
            assert result.log_product == log_product
            assert result.log_majorant == log_majorant

    def test_memory_does_not_grow_with_the_range(self, peak_traced_bytes):
        schedule = InverseTimeSchedule(scale=1.0, offset=2.0)
        peak = peak_traced_bytes(lambda: product_decay(schedule, 1.0, 1, 20_000_000))
        assert peak < 4 * 2**20, peak


class TestCheckDescentInequality:
    def test_quadratic_without_noise_is_exact(self):
        problem = ShiftedQuadratic(curvature=1.0, center=np.zeros(2), noise_halfwidth=0.0)
        cert = problem.certify(2.0, [1.0, 1.0])
        verdict = check_descent_inequality(problem, cert, [1.0, 1.0], 200, SeededGenerator(1))
        assert verdict.passed
        # Without noise the estimate equals the closed form bit for bit, so
        # the binding margin is the agreement term at exactly zero.
        assert verdict.worst_margin == 0.0
        assert "estimate=2" in verdict.context

    def test_quadratic_with_noise(self):
        problem = ShiftedQuadratic(curvature=2.0, center=np.zeros(3), noise_halfwidth=0.5)
        cert = problem.certify(3.0, [1.0, -1.0, 0.5])
        verdict = check_descent_inequality(
            problem, cert, [1.0, -1.0, 0.5], 5000, SeededGenerator(2)
        )
        assert verdict.passed

    def test_finite_sum(self):
        rng = SeededGenerator(3)
        problem = FiniteSumLeastSquares(design=rng.normal(size=(9, 2)), targets=rng.normal(size=9))
        x_star = problem.minimizer()
        cert = problem.certify(2.0, x_star)
        x = x_star + np.array([0.5, -0.5])
        verdict = check_descent_inequality(problem, cert, x, 5000, SeededGenerator(4))
        assert verdict.passed

    def test_inflated_convexity_fails(self):
        problem = ShiftedQuadratic(curvature=1.0, center=np.zeros(2), noise_halfwidth=0.0)
        cert = problem.certify(2.0, [1.0, 1.0])
        corrupted = dataclasses.replace(cert, strong_convexity=10.0)
        verdict = check_descent_inequality(problem, corrupted, [1.0, 1.0], 200, SeededGenerator(5))
        assert not verdict.passed
        assert verdict.first_violation_index == 0

    def test_validation(self):
        problem = ShiftedQuadratic(curvature=1.0, center=np.zeros(2), noise_halfwidth=0.0)
        cert = problem.certify(2.0, [1.0, 1.0])
        with pytest.raises(UsageError):
            check_descent_inequality(problem, cert, [1.0, 1.0], 99, SeededGenerator(6))
        with pytest.raises(UsageError):
            check_descent_inequality(problem, cert, [5.0, 0.0], 200, SeededGenerator(7))
