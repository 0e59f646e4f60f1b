"""Tests for d_n estimation, the envelope, and the verdict checks."""
import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from sgdcheck import (
    ConstantSchedule,
    DnSeries,
    DomainError,
    FiniteSumLeastSquares,
    HypothesisCertificate,
    InverseTimeSchedule,
    SeededGenerator,
    ShiftedQuadratic,
    UsageError,
    bound_sequence,
    check_convergence,
    check_descent_inequality,
    check_neighborhood,
    check_recurrence,
    product_decay,
    run_replications,
    run_seeds,
)
from sgdcheck import analyzer
from sgdcheck.analyzer import merge_parts, step_stats


def quadratic_runs(seeds, radius=10.0):
    """The d_n estimate of 30 steps of a noisy quadratic, one replication per seed."""
    problem = ShiftedQuadratic(curvature=1.0, center=np.zeros(2), noise_halfwidth=2.0)
    cert = problem.certify(radius, [0.5, 0.0])
    return run_seeds(problem, ConstantSchedule(rho=0.5), [0.5, 0.0], 30, cert, seeds)


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
        seeds=tuple(range(replications)),
        mean=mean,
        stderr=stderr,
        in_region_fraction=fraction,
        final_x=np.zeros((replications, 1)),
    )


class TestEstimateDn:
    """The d_n estimate that run_seeds returns."""

    def test_two_point_example(self):
        # Two replications: the mean is (a + b) / 2 and the standard error,
        # sqrt(2) times their sample standard deviation over 2, is |a - b| / 2.
        a, b = (quadratic_runs([seed]).mean for seed in (3, 4))
        series = quadratic_runs([3, 4])
        assert np.array_equal(series.mean, (a + b) / 2.0)
        np.testing.assert_allclose(series.stderr, np.abs(a - b) / 2.0, rtol=1e-12)
        np.testing.assert_array_equal(series.in_region_fraction, np.ones(31))
        assert series.replications == 2
        assert series.steps == 30

    def test_constant_columns_are_exact(self):
        solo = quadratic_runs([7])
        series = quadratic_runs([7, 7, 7])
        assert np.array_equal(series.mean, solo.mean)
        np.testing.assert_array_equal(series.stderr, np.zeros(31))

    def test_order_invariance_is_bitwise(self):
        seeds = [11, 5, 42, 8, 19, 3, 27]
        forward = quadratic_runs(seeds)
        backward = quadratic_runs(seeds[::-1])
        assert np.array_equal(forward.mean, backward.mean)
        assert np.array_equal(forward.stderr, backward.stderr)
        assert np.array_equal(forward.in_region_fraction, backward.in_region_fraction)
        assert np.array_equal(forward.final_x, backward.final_x[::-1])

    def test_region_fraction(self):
        seeds = [1, 2, 3, 4]
        solos = [quadratic_runs([seed], radius=1.0).in_region_fraction for seed in seeds]
        series = quadratic_runs(seeds, radius=1.0)
        np.testing.assert_array_equal(series.in_region_fraction, sum(solos) / 4)
        assert np.any((0.0 < series.in_region_fraction) & (series.in_region_fraction < 1.0))

    def test_needs_two_replications(self):
        problem = ShiftedQuadratic(curvature=1.0, center=np.zeros(1), noise_halfwidth=0.5)
        cert = problem.certify(2.0, [1.0])
        with pytest.raises(UsageError):
            run_replications(problem, ConstantSchedule(rho=0.1), [1.0], 5, cert, 7, 1)


class TestStepStats:
    def test_single_replication_is_exact(self):
        mean, stderr = step_stats(np.array([[0.1], [0.7], [3.0]]))
        np.testing.assert_array_equal(mean, [0.1, 0.7, 3.0])
        np.testing.assert_array_equal(stderr, [0.0, 0.0, 0.0])

    def test_sums_each_sorted_row_pairwise(self):
        # The mean and the squared deviations are summed with np.add.reduce
        # over the values in ascending order, so summing each sorted row on
        # its own reproduces every bit.
        rng = SeededGenerator(11)
        block = rng.uniform(0.0, 1.0, size=(40, 300)) ** 3 * 1e3
        mean, stderr = step_stats(block)
        for n, row in enumerate(block):
            ordered = np.sort(row)
            expected_mean = np.add.reduce(ordered) / ordered.shape[0]
            squares = np.add.reduce((ordered - expected_mean) ** 2)
            expected_stderr = np.sqrt(squares / (ordered.shape[0] - 1) / ordered.shape[0])
            assert mean[n] == expected_mean
            assert stderr[n] == expected_stderr

    def test_replication_order_is_invisible(self):
        rng = SeededGenerator(12)
        block = rng.uniform(0.0, 5.0, size=(30, 64))
        mean, stderr = step_stats(block)
        # The permuted blocks are F-ordered, as is a Fortran copy.
        reordered = [np.asfortranarray(block), block[:, ::-1]]
        for trial in range(5):
            reordered.append(block[:, np.argsort(rng.uniform(0.0, 1.0, size=64))])
        for permuted in reordered:
            permuted_mean, permuted_stderr = step_stats(permuted)
            assert np.array_equal(mean, permuted_mean)
            assert np.array_equal(stderr, permuted_stderr)

    def test_step_split_is_invisible(self, monkeypatch):
        rng = SeededGenerator(13)
        # 8193 replications: wider than the 8192-value buffers in which
        # einsum sums a block of several rows.
        for steps, width in ((101, 32), (9, 8193)):
            block = rng.uniform(0.0, 5.0, size=(steps, width))
            monkeypatch.setattr(analyzer, "_STATS_CHUNK", 1 << 16)
            mean, stderr = step_stats(block)
            for chunk_steps in (1, 3, 7, 200):
                monkeypatch.setattr(analyzer, "_STATS_CHUNK", chunk_steps * width)
                assert np.array_equal(step_stats(block)[0], mean)
                assert np.array_equal(step_stats(block)[1], stderr)
            pieces = [step_stats(block[lo:lo + 4]) for lo in range(0, steps, 4)]
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

    def test_values_spanning_the_float_range_are_summed_scaled(self):
        # 1 and 99: a deviation, -3.4e308, overflows.  100 and 100: the
        # pairwise halves of the sum overflow to -inf and +inf and add to NaN.
        for counts, expected in (((1, 99), 3.4e306), ((100, 100), 1.7e308 / math.sqrt(199.0))):
            row = np.repeat([-1.7e308, 1.7e308], counts)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                mean, stderr = step_stats(row[None])
            small_mean, small_stderr = TestDescentStatistics.plain(np.ldexp(row, -600))
            assert mean[0] == math.ldexp(small_mean, 600)
            assert stderr[0] == math.ldexp(small_stderr, 600)
            assert stderr[0] == pytest.approx(expected, rel=1e-12)

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
        np.testing.assert_allclose(bounds, [1.0, 0.91, 0.829], rtol=1e-12)
        assert not bounds.flags.writeable

    def test_zero_gradient_bound_contracts_exactly(self):
        # With B = 0 and rate * mu = 0.5 every step halves the value, and
        # halving is exact in binary floating point.
        cert = make_cert(mu=1.0, grad_sq_bound=0.0)
        bounds = bound_sequence(1.0, ConstantSchedule(rho=0.5), cert, 30)
        np.testing.assert_array_equal(bounds, 0.5 ** np.arange(31))

    def test_fixed_point_is_exact(self):
        # Starting exactly at rho * B / mu must stay there to the last bit.
        cert = make_cert(mu=0.5, grad_sq_bound=2.0)
        theta = 0.1 * 2.0 / 0.5
        bounds = bound_sequence(theta, ConstantSchedule(rho=0.1), cert, 100)
        np.testing.assert_array_equal(bounds, np.full(101, theta))

    def test_deviation_contracts_at_exact_rate(self):
        # rho * mu = 1/4 gives the dyadic factor 3/4; with pivot 1 and d0 = 3
        # the deviation 2 * (3/4)^n is exactly representable for this range.
        cert = make_cert(mu=1.0, grad_sq_bound=4.0)
        bounds = bound_sequence(3.0, ConstantSchedule(rho=0.25), cert, 20)
        np.testing.assert_array_equal(bounds - 1.0, 2.0 * 0.75 ** np.arange(21))

    def test_decaying_rate_envelope_shrinks(self):
        cert = make_cert(mu=1.0, grad_sq_bound=1.0)
        bounds = bound_sequence(4.0, InverseTimeSchedule(scale=1.0, offset=1.0), cert, 10_000)
        assert bounds[10_000] < 0.01
        assert bounds[10_000] < bounds[1000] < bounds[0]

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
        assert bounds.tobytes() == expected.tobytes()

    def test_input_validation(self):
        cert = make_cert()
        with pytest.raises(UsageError):
            bound_sequence(-1.0, ConstantSchedule(rho=0.1), cert, 5)
        with pytest.raises(UsageError):
            bound_sequence(1.0, ConstantSchedule(rho=0.1), cert, 0)


class TestCheckRecurrence:
    def test_pass_and_boundary(self):
        series = make_series([1.0, 1.0], stderr=[0.0, 0.1])
        bounds = np.array([1.0, 0.7])
        # At z = 3 the slack at step 1 is exactly zero, which still passes.
        verdict = check_recurrence(series, bounds, z=3.0)
        assert verdict.passed
        assert verdict.first_violation_index is None
        assert verdict.worst_margin == 0.0

    def test_violation_is_located(self):
        series = make_series([1.0, 1.0, 1.0], stderr=[0.0, 0.1, 0.0])
        bounds = np.array([1.0, 0.5, 0.9])
        verdict = check_recurrence(series, bounds, z=1.0)
        assert not verdict.passed
        assert verdict.first_violation_index == 1
        assert verdict.worst_margin == pytest.approx(-0.4)

    def test_region_exits_are_excluded(self):
        series = make_series([1.0, 5.0], fraction=[1.0, 0.5])
        bounds = np.array([1.0, 0.5])
        verdict = check_recurrence(series, bounds)
        assert verdict.passed
        assert "1 excluded" in verdict.context

    def test_all_steps_excluded_is_vacuous(self):
        series = make_series([9.0, 9.0], fraction=[0.5, 0.5])
        bounds = np.array([1.0, 1.0])
        verdict = check_recurrence(series, bounds)
        assert verdict.passed
        assert np.isnan(verdict.worst_margin)

    def test_validation(self):
        series = make_series([1.0, 1.0])
        bounds = np.array([1.0])
        with pytest.raises(UsageError):
            check_recurrence(series, bounds)
        good = np.array([1.0, 1.0])
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


# The three d_n checks as they were written before they shared one
# comparison, each with its own slack, count, first step and worst margin.
def reference_recurrence(dn, bounds, z):
    checked = dn.in_region_fraction == 1.0
    slack = bounds + z * dn.stderr - dn.mean
    excluded = int(np.count_nonzero(~checked))
    if not checked.any():
        return analyzer.Verdict(
            True, None, float("nan"),
            f"no step had all replications in region ({excluded} steps excluded)",
        )
    violations = checked & (slack < 0.0)
    n_violations = int(np.count_nonzero(violations))
    worst = float(np.min(slack[checked]))
    first = int(np.flatnonzero(violations)[0]) if n_violations else None
    context = (
        f"checked {int(np.count_nonzero(checked))}/{slack.shape[0]} steps at z={z:g}, "
        f"{excluded} excluded by region exits, {n_violations} violations"
    )
    return analyzer.Verdict(n_violations == 0, first, worst, context)


def reference_neighborhood(dn, cert, schedule, window, tol_rel):
    horizon = dn.steps
    theta = schedule.rho * cert.grad_sq_bound / cert.strong_convexity
    threshold = theta * (1.0 + tol_rel)
    tail = slice(horizon + 1 - window, horizon + 1)
    slack = threshold + 3.0 * dn.stderr[tail] - dn.mean[tail]
    bad = slack < 0.0
    n_bad = int(np.count_nonzero(bad))
    first = int(horizon + 1 - window + np.flatnonzero(bad)[0]) if n_bad else None
    context = (
        f"theta={theta:.6g}, threshold={threshold:.6g}, window={window}, "
        f"{n_bad} violations"
    )
    return analyzer.Verdict(n_bad == 0, first, float(np.min(slack)), context)


def reference_convergence(dn, checkpoints):
    worst = math.inf
    first = None
    failures = 0
    for n, threshold in checkpoints:
        slack = threshold + 3.0 * float(dn.stderr[n]) - float(dn.mean[n])
        worst = min(worst, slack)
        if slack < 0.0:
            failures += 1
            if first is None:
                first = n
    context = f"{len(checkpoints)} checkpoints, {failures} violations"
    return analyzer.Verdict(failures == 0, first, worst, context)


def assert_same_verdict(verdict, reference):
    assert verdict.passed is reference.passed
    assert verdict.first_violation_index == reference.first_violation_index
    assert float.hex(verdict.worst_margin) == float.hex(reference.worst_margin)
    assert verdict.context == reference.context


class TestSharedComparison:
    """The three d_n checks give the verdicts of their former separate code."""

    HORIZON = 40

    @staticmethod
    def random_series(seed, in_region=0.7):
        # Upper bounds near 1, so about half the steps fail at random; a
        # fraction below 1 leaves a step out of the recurrence check only.
        rng = np.random.default_rng(seed)
        steps = TestSharedComparison.HORIZON + 1
        fraction = np.where(rng.random(steps) < in_region, 1.0, rng.uniform(0.0, 1.0, steps))
        return make_series(
            rng.uniform(0.2, 1.8, steps), rng.uniform(0.0, 0.2, steps), fraction
        ), rng

    @staticmethod
    def step_at(steps, where):
        return steps[{"first": 0, "middle": len(steps) // 2, "last": -1}[where]]

    @staticmethod
    def violate_at(series, steps, where):
        """Let every step of ``steps`` pass but the first, a middle or the last one."""
        # Steps outside the set fail, without effect on the verdict.
        mean = np.full_like(series.mean, 1e3)
        mean[steps] = 0.0
        if where is not None:
            mean[TestSharedComparison.step_at(steps, where)] = 1e3
        return dataclasses.replace(series, mean=mean)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_series(self, seed):
        series, rng = self.random_series(seed)
        bounds = rng.uniform(0.5, 1.5, series.mean.shape[0])
        z = float(rng.uniform(0.5, 4.0))
        assert_same_verdict(check_recurrence(series, bounds, z),
                            reference_recurrence(series, bounds, z))
        cert, schedule = make_cert(mu=1.0, grad_sq_bound=2.0), ConstantSchedule(rho=0.5)
        window = int(rng.integers(1, self.HORIZON + 2))
        tol_rel = float(rng.uniform(0.0, 0.2))
        assert_same_verdict(check_neighborhood(series, cert, schedule, window, tol_rel),
                            reference_neighborhood(series, cert, schedule, window, tol_rel))
        steps = np.sort(rng.choice(self.HORIZON + 1, size=5, replace=False))
        checkpoints = [(int(n), float(t)) for n, t in zip(steps, rng.uniform(0.5, 1.5, 5))]
        assert_same_verdict(check_convergence(series, checkpoints),
                            reference_convergence(series, checkpoints))

    @pytest.mark.parametrize("where", ["first", "middle", "last", None])
    def test_recurrence_violation_position(self, where):
        series, rng = self.random_series(11)
        checked = np.flatnonzero(series.in_region_fraction == 1.0)
        assert 0 < checked.shape[0] < series.mean.shape[0]
        series = self.violate_at(series, checked, where)
        bounds = rng.uniform(0.5, 1.5, series.mean.shape[0])
        verdict = check_recurrence(series, bounds, 3.0)
        assert_same_verdict(verdict, reference_recurrence(series, bounds, 3.0))
        expected = None if where is None else self.step_at(checked, where)
        assert verdict.first_violation_index == expected

    @pytest.mark.parametrize("window", [1, 7, HORIZON + 1])
    @pytest.mark.parametrize("where", ["first", "middle", "last", None])
    def test_neighborhood_violation_position(self, window, where):
        series, _ = self.random_series(12)
        tail = np.arange(self.HORIZON + 1 - window, self.HORIZON + 1)
        series = self.violate_at(series, tail, where)
        cert, schedule = make_cert(mu=1.0, grad_sq_bound=2.0), ConstantSchedule(rho=0.5)
        verdict = check_neighborhood(series, cert, schedule, window, 0.1)
        assert_same_verdict(verdict, reference_neighborhood(series, cert, schedule, window, 0.1))
        expected = None if where is None else self.step_at(tail, where)
        assert verdict.first_violation_index == expected

    @pytest.mark.parametrize("steps", [[0], [17], [0, 9, 23, HORIZON]],
                             ids=["step-0", "single", "several"])
    @pytest.mark.parametrize("where", ["first", "middle", "last", None])
    def test_convergence_violation_position(self, steps, where):
        series, rng = self.random_series(13)
        series = self.violate_at(series, np.array(steps), where)
        checkpoints = [(n, float(t)) for n, t in zip(steps, rng.uniform(0.5, 1.5, len(steps)))]
        verdict = check_convergence(series, checkpoints)
        assert_same_verdict(verdict, reference_convergence(series, checkpoints))
        expected = None if where is None else self.step_at(steps, where)
        assert verdict.first_violation_index == expected

    def test_zero_slack_passes(self):
        # mean_n equal to u_n + 3 * stderr_n, in the same float operations.
        series, rng = self.random_series(15, in_region=1.0)
        bounds = rng.uniform(0.5, 1.5, series.mean.shape[0])
        cert, schedule = make_cert(mu=1.0, grad_sq_bound=2.0), ConstantSchedule(rho=0.5)
        threshold = 0.5 * 2.0 / 1.0 * (1.0 + 0.0)
        checkpoints = [(n, float(bounds[n])) for n in (0, 20, self.HORIZON)]
        for upper, check, reference in (
            (bounds, lambda dn: check_recurrence(dn, bounds, 3.0),
             lambda dn: reference_recurrence(dn, bounds, 3.0)),
            (threshold, lambda dn: check_neighborhood(dn, cert, schedule, 9, 0.0),
             lambda dn: reference_neighborhood(dn, cert, schedule, 9, 0.0)),
            (bounds, lambda dn: check_convergence(dn, checkpoints),
             lambda dn: reference_convergence(dn, checkpoints)),
        ):
            edge = dataclasses.replace(series, mean=upper + 3.0 * series.stderr)
            verdict = check(edge)
            assert_same_verdict(verdict, reference(edge))
            assert verdict.passed and verdict.worst_margin == 0.0

    def test_no_step_in_region(self):
        series, rng = self.random_series(14, in_region=0.0)
        assert not (series.in_region_fraction == 1.0).any()
        bounds = rng.uniform(0.5, 1.5, series.mean.shape[0])
        assert_same_verdict(check_recurrence(series, bounds, 3.0),
                            reference_recurrence(series, bounds, 3.0))
        # The other two checks still judge every step they name.
        cert, schedule = make_cert(mu=1.0, grad_sq_bound=2.0), ConstantSchedule(rho=0.5)
        assert_same_verdict(check_neighborhood(series, cert, schedule, 5, 0.0),
                            reference_neighborhood(series, cert, schedule, 5, 0.0))
        checkpoints = [(3, 1.0), (30, 0.9)]
        assert_same_verdict(check_convergence(series, checkpoints),
                            reference_convergence(series, checkpoints))


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
            for length in (1, 8, 128, 129, 1 << 15, (1 << 15) + 1, 1 << 16, (1 << 16) + 1, (1 << 17) + 7, 5_000_000)
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

    def test_a_margin_that_is_not_finite_fails_as_nan(self):
        # Some alignment values overflow to inf: the mean is inf and the
        # deviations hold a NaN.  No warning may escape.
        problem = ShiftedQuadratic(curvature=1.0, center=np.zeros(2), noise_halfwidth=1e155)
        cert = make_cert(radius=1e156, dim=2)
        verdict = check_descent_inequality(problem, cert, [1e155, 0.0], 200, SeededGenerator(8))
        assert not verdict.passed
        assert verdict.first_violation_index == 0
        assert math.isnan(verdict.worst_margin)

    def test_a_deviation_that_overflows_gives_a_finite_stderr(self):
        # Values spanning the float range: a deviation, -3.4e308, overflows,
        # so the squared deviations are summed from scaled values and the
        # standard error is the finite 3.4e306 that step_stats also gives.
        # The estimate, 1.666e308, is far from the closed form, 0.
        class Spread:
            def noise_block(self, rng, count):
                return np.zeros(count)

            def sorted_alignment(self, noise, x, direction):
                return np.repeat([-1.7e308, 1.7e308], [1, noise.shape[0] - 1])

            def mean_loss_and_gradient(self, x):
                return 0.0, np.zeros(1)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verdict = check_descent_inequality(Spread(), make_cert(), [1.0], 100, None)
        stderr = step_stats(np.repeat([-1.7e308, 1.7e308], [1, 99])[None])[1][0]
        assert f"stderr={stderr:.3g}" in verdict.context
        assert "stderr=3.4e+306" in verdict.context
        assert not verdict.passed
        assert verdict.first_violation_index == 0
        assert verdict.worst_margin == pytest.approx(5.0 * stderr - 1.666e308, rel=1e-12)

    def test_validation(self):
        problem = ShiftedQuadratic(curvature=1.0, center=np.zeros(2), noise_halfwidth=0.0)
        cert = problem.certify(2.0, [1.0, 1.0])
        with pytest.raises(UsageError):
            check_descent_inequality(problem, cert, [1.0, 1.0], 99, SeededGenerator(6))
        with pytest.raises(UsageError):
            check_descent_inequality(problem, cert, [5.0, 0.0], 200, SeededGenerator(7))


class TestDescentStatistics:
    """_sorted_stats rescales only the sums that are not finite."""

    @staticmethod
    def plain(ordered):
        """The unscaled statistics (the reference where nothing overflows)."""
        mean = float(ordered.mean())
        variance = float(np.add.reduce((ordered - mean) ** 2)) / (ordered.shape[0] - 1)
        return mean, math.sqrt(variance / ordered.shape[0])

    @staticmethod
    def stats(ordered):
        return tuple(float(stat[0]) for stat in analyzer._sorted_stats(ordered[None]))

    @pytest.mark.parametrize("scale", [1.0, 1e-300, 1e150])
    def test_bits_of_the_plain_sums_where_nothing_overflows(self, scale):
        ordered = np.sort(SeededGenerator(4).normal(size=20_000)) * scale
        assert self.stats(ordered) == self.plain(ordered)

    def test_a_sum_that_overflows_is_summed_scaled(self):
        values = SeededGenerator(5).uniform(1e307, 1.7e308, size=1000)
        ordered = np.sort(values)
        with np.errstate(over="ignore"):
            assert ordered.mean() == math.inf
            mean, stderr = self.stats(ordered)
        small = np.ldexp(ordered, -600)
        small_mean, small_stderr = self.plain(small)
        assert mean == math.ldexp(small_mean, 600)
        assert stderr == math.ldexp(small_stderr, 600)

    def test_halves_that_overflow_to_both_infinities_are_summed_scaled(self):
        # The pairwise sum adds -inf and +inf: a NaN mean, though the mean
        # (0) and the standard error are finite doubles.
        ordered = np.repeat([-1.7e308, 1.7e308], [100, 100])
        with np.errstate(over="ignore", invalid="ignore"):
            assert math.isnan(ordered.mean())
            mean, stderr = self.stats(ordered)
        assert mean == 0.0
        assert stderr == math.ldexp(self.plain(np.ldexp(ordered, -600))[1], 600)
        assert stderr == pytest.approx(1.7e308 / math.sqrt(199.0), rel=1e-12)

    def test_squared_deviations_that_overflow_are_summed_scaled(self):
        ordered = np.array([-1e300, -1e300, 1e300, 1e300])
        with np.errstate(over="ignore"):
            mean, stderr = self.stats(ordered)
        assert mean == 0.0
        assert stderr == math.ldexp(self.plain(np.ldexp(ordered, -600))[1], 600)
        assert stderr == pytest.approx(1e300 / math.sqrt(3.0), rel=1e-12)
