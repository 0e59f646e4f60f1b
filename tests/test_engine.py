"""Tests for seeding, the update step, and the replication runners.

The frozen seed-derivation values are the published SplitMix64 outputs for
master seed 0, so a regression here means the keying scheme changed and every
stored result becomes irreproducible.
"""
import tracemalloc
import warnings

import numpy as np
import pytest

from sgdcheck import engine
from sgdcheck import (
    ConstantSchedule,
    DivergenceError,
    FiniteSumLeastSquares,
    HypothesisCertificate,
    InverseTimeSchedule,
    SeededGenerator,
    ShiftedQuadratic,
    UsageError,
    derive_seed,
    estimate_dn,
    run_replications,
    run_seeds,
)
from sgdcheck.analyzer import step_stats
from sgdcheck.objective import sq_norm

# SplitMix64 stream for master seed 0 (indices 0..3).
SPLITMIX64_SEED0 = [
    16294208416658607535,
    7960286522194355700,
    487617019471545679,
    17909611376780542444,
]


class TestDeriveSeed:
    def test_frozen_reference_stream(self):
        for i, expected in enumerate(SPLITMIX64_SEED0):
            assert derive_seed(0, i) == expected

    def test_frozen_nonzero_master(self):
        assert derive_seed(12345, 0) == 2454886589211414944
        assert derive_seed(12345, 1) == 3778200017661327597

    def test_outputs_are_distinct_across_indices(self):
        seen = {derive_seed(99, i) for i in range(10_000)}
        assert len(seen) == 10_000

    def test_outputs_are_distinct_across_masters(self):
        assert derive_seed(1, 0) != derive_seed(2, 0)

    def test_range_validation(self):
        with pytest.raises(UsageError):
            derive_seed(-1, 0)
        with pytest.raises(UsageError):
            derive_seed(0, 2**64)
        with pytest.raises(UsageError):
            derive_seed(0.5, 0)
        with pytest.raises(UsageError):
            derive_seed(True, 0)

    def test_full_width_inputs_accepted(self):
        value = derive_seed(2**64 - 1, 2**64 - 1)
        assert 0 <= value < 2**64


class TestSeededGenerator:
    def test_frozen_uniform_draws(self):
        draws = SeededGenerator(2024).uniform(0.0, 1.0, size=3)
        np.testing.assert_array_equal(
            draws,
            [0.7539532404108791, 0.6536530412806927, 0.8305111850799092],
        )

    def test_frozen_integer_draws(self):
        draws = SeededGenerator(2024).integers(10, size=8)
        np.testing.assert_array_equal(draws, [2, 7, 2, 6, 8, 8, 4, 8])

    def test_same_seed_same_stream(self):
        a = SeededGenerator(7).normal(size=100)
        b = SeededGenerator(7).normal(size=100)
        assert np.array_equal(a, b)

    def test_different_seeds_different_streams(self):
        a = SeededGenerator(7).uniform(0.0, 1.0, size=100)
        b = SeededGenerator(8).uniform(0.0, 1.0, size=100)
        assert not np.array_equal(a, b)

    def test_algorithm_label(self):
        assert SeededGenerator(0).algorithm == "philox4x64"

    def test_seed_validation(self):
        with pytest.raises(UsageError):
            SeededGenerator(-1)
        with pytest.raises(UsageError):
            SeededGenerator(2**64)


class TestStep:
    """One SGD update, observed through a one-step, one-seed run."""

    def test_arithmetic(self):
        # Without noise the gradient at x = (1, -2) is x - center = (0.5, 0.5).
        problem = ShiftedQuadratic(curvature=1.0, center=[0.5, -2.5], noise_halfwidth=0.0)
        cert = problem.certify(2.0, [1.0, -2.0])
        runs = run_seeds(problem, ConstantSchedule(rho=0.1), [1.0, -2.0], 1, cert, [3])
        np.testing.assert_array_equal(runs.final_x, [[0.95, -2.05]])

    def test_does_not_mutate_input(self):
        problem, sched, cert = quadratic_setup()
        x0 = np.array([2.0, 0.0])
        runs = run_seeds(problem, sched, x0, 5, cert, [1, 2])
        np.testing.assert_array_equal(x0, [2.0, 0.0])
        assert not np.shares_memory(runs.final_x, x0)

    def test_nonfinite_result_raises_with_index(self):
        # 1 - 1e200 * 1 is finite but its square overflows at step 1.
        problem = ShiftedQuadratic(curvature=1.0, center=[0.0], noise_halfwidth=0.0)
        cert = problem.certify(2.0, [1.0])
        with pytest.raises(DivergenceError) as info:
            run_seeds(problem, ConstantSchedule(rho=1e200), [1.0], 5, cert, [17])
        assert info.value.step_index == 1
        assert "seed 17" in str(info.value)


def quadratic_setup(halfwidth=0.5, rho=0.05, radius=2.0, x0=(2.0, 0.0)):
    problem = ShiftedQuadratic(curvature=1.0, center=np.zeros(2), noise_halfwidth=halfwidth)
    cert = problem.certify(radius, x0)
    return problem, ConstantSchedule(rho=rho), cert


def finite_sum_setup():
    rng = SeededGenerator(3)
    problem = FiniteSumLeastSquares(design=rng.normal(size=(6, 2)), targets=rng.normal(size=6))
    x0 = problem.minimizer() + np.array([1.0, 0.0])
    cert = problem.certify(3.0, x0)
    return problem, InverseTimeSchedule(scale=1.0, offset=10.0), cert, x0


def assert_same_runs(a, b):
    assert a.seeds == b.seeds
    assert a.steps == b.steps
    assert np.array_equal(a.sq_dist_mean, b.sq_dist_mean)
    assert np.array_equal(a.sq_dist_stderr, b.sq_dist_stderr)
    assert np.array_equal(a.in_region_count, b.in_region_count)
    assert np.array_equal(a.final_x, b.final_x)


class TestRunReplication:
    """Runs of a single seed, where the statistics are the path itself."""

    def test_noiseless_contraction_is_exact(self):
        # With no noise and rate 0.5 each step halves the iterate, so the
        # squared distance contracts by exactly 0.25.
        problem = ShiftedQuadratic(curvature=1.0, center=[0.0], noise_halfwidth=0.0)
        cert = problem.certify(2.0, [1.0])
        runs = run_seeds(problem, ConstantSchedule(rho=0.5), [1.0], 3, cert, [42])
        np.testing.assert_array_equal(runs.sq_dist_mean, [1.0, 0.25, 0.0625, 0.015625])
        np.testing.assert_array_equal(runs.sq_dist_stderr, [0.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(runs.final_x, [[0.125]])

    def test_reruns_are_bit_identical(self):
        problem, sched, cert = quadratic_setup()
        a = run_seeds(problem, sched, [2.0, 0.0], 200, cert, [11])
        b = run_seeds(problem, sched, [2.0, 0.0], 200, cert, [11])
        assert_same_runs(a, b)

    def test_noise_replay_reproduces_trajectory(self, monkeypatch):
        # Replaying the same noise through the allocating update rule must
        # reproduce the runner's in-place steps exactly, not approximately,
        # for both families, for one seed and for three run together, across
        # blocks of 7 steps.
        for family in ("quadratic", "finite_sum"):
            for seeds in ([13], [13, 14, 15]):
                self.check_replay(family, seeds, monkeypatch)

    @staticmethod
    def check_replay(family, seeds, monkeypatch):
        if family == "quadratic":
            problem, sched, cert = quadratic_setup()
            x0, per_step = [2.0, 0.0], 2
        else:
            problem, sched, cert, x0 = finite_sum_setup()
            per_step = 1
        monkeypatch.setattr(engine, "BLOCK_BUDGET", 7 * len(seeds) * per_step)
        runs = run_seeds(problem, sched, x0, 150, cert, seeds)
        noise = np.stack(
            [problem.noise_block(SeededGenerator(seed), 150) for seed in seeds], axis=1
        )
        center = cert.region_center
        x = np.repeat(np.asarray(x0, dtype=float)[None, :], len(seeds), axis=0)
        path = [sq_norm(x - center)]
        for n in range(150):
            x = x - sched.rate(n) * problem.pointwise_gradient(noise[n], x)
            path.append(sq_norm(x - center))
        path = np.array(path)
        mean, stderr = step_stats(path)
        inside = np.count_nonzero(path <= cert.region_radius**2, axis=1)
        for got, expected in [
            (runs.final_x, x),
            (runs.sq_dist_mean, mean),
            (runs.sq_dist_stderr, stderr),
            (runs.in_region_count, inside),
        ]:
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()
        if len(seeds) == 1:
            np.testing.assert_array_equal(runs.sq_dist_mean, path[:, 0])
            assert runs.sq_dist_mean[150] == np.dot(x[0] - center, x[0] - center)

    def test_containment_when_guaranteed(self):
        problem, sched, cert = quadratic_setup(halfwidth=0.5, rho=0.05, radius=2.0)
        assert cert.guaranteed_containment
        runs = run_seeds(problem, sched, [2.0, 0.0], 2000, cert, [99])
        assert np.all(runs.in_region_count == 1)

    def test_trajectory_shapes_and_seed(self):
        problem, sched, cert = quadratic_setup()
        runs = run_seeds(problem, sched, [2.0, 0.0], 50, cert, [5])
        assert runs.steps == 50
        assert runs.seeds == (5,)
        assert runs.replications == 1
        assert runs.sq_dist_mean.shape == (51,)
        assert runs.sq_dist_stderr.shape == (51,)
        assert runs.in_region_count.shape == (51,)
        assert runs.final_x.shape == (1, 2)
        assert not runs.sq_dist_mean.flags.writeable
        assert not runs.final_x.flags.writeable

    def test_step_count_validation(self):
        problem, sched, cert = quadratic_setup()
        with pytest.raises(UsageError):
            run_seeds(problem, sched, [2.0, 0.0], 0, cert, [5])
        with pytest.raises(UsageError):
            run_seeds(problem, sched, [2.0, 0.0], 5, cert, [])
        with pytest.raises(UsageError):
            run_seeds(problem, sched, [2.0, 0.0], 5, cert, [-1])

    def test_divergence_raises_with_step_index(self):
        # rate * curvature = 3 flips the sign and doubles the distance every
        # step, so the iterate overflows past float range around step 1024.
        problem = ShiftedQuadratic(curvature=1.0, center=[0.0], noise_halfwidth=0.0)
        cert = problem.certify(2.0, [2.0])
        with pytest.raises(DivergenceError) as info:
            run_seeds(problem, ConstantSchedule(rho=3.0), [2.0], 2000, cert, [1])
        assert 0 < info.value.step_index <= 2000


def solo_rows(problem, sched, x0, steps, cert, seeds):
    solos = [run_seeds(problem, sched, x0, steps, cert, [seed]) for seed in seeds]
    return solos, np.stack([solo.sq_dist_mean for solo in solos])


class TestRunReplications:
    def check_against_solo(self, problem, sched, x0, steps, cert, master_seed, count):
        batch = run_replications(problem, sched, x0, steps, cert, master_seed, count)
        seeds = tuple(derive_seed(master_seed, i) for i in range(count))
        assert batch.seeds == seeds
        solos, rows = solo_rows(problem, sched, x0, steps, cert, seeds)
        for i, solo in enumerate(solos):
            assert np.array_equal(batch.final_x[i], solo.final_x[0])
        mean, stderr = step_stats(rows.T)
        assert np.array_equal(batch.sq_dist_mean, mean)
        assert np.array_equal(batch.sq_dist_stderr, stderr)
        assert np.array_equal(
            batch.in_region_count, sum(solo.in_region_count for solo in solos)
        )

    def test_rows_match_solo_runs_quadratic(self):
        problem, sched, cert = quadratic_setup()
        self.check_against_solo(problem, sched, [2.0, 0.0], 120, cert, 7, 5)

    def test_rows_match_solo_runs_finite_sum(self):
        problem, sched, cert, x0 = finite_sum_setup()
        self.check_against_solo(problem, sched, x0, 80, cert, 21, 4)

    def test_divergence_step_matches_solo(self):
        problem = ShiftedQuadratic(curvature=1.0, center=[0.0], noise_halfwidth=0.0)
        cert = problem.certify(2.0, [2.0])
        sched = ConstantSchedule(rho=3.0)
        with pytest.raises(DivergenceError) as solo_info:
            run_seeds(problem, sched, [2.0], 2000, cert, [derive_seed(4, 0)])
        with pytest.raises(DivergenceError) as batch_info:
            run_replications(problem, sched, [2.0], 2000, cert, 4, 2)
        assert batch_info.value.step_index == solo_info.value.step_index
        assert "replication 0" in str(batch_info.value)
        assert f"seed {derive_seed(4, 0)}" in str(batch_info.value)

    def test_divergence_names_the_first_bad_replication(self):
        # With noise the seeds run away at different steps; the batch stops
        # at the earliest one-seed divergence and names that replication.
        problem, _, _ = quadratic_setup()
        cert = problem.certify(3.0, [2.0, 0.0])
        sched = ConstantSchedule(rho=3.0)
        seeds = [8, 9, 10]
        solo_steps = []
        for seed in seeds:
            with pytest.raises(DivergenceError) as info:
                run_seeds(problem, sched, [2.0, 0.0], 3000, cert, [seed])
            solo_steps.append(info.value.step_index)
        first = int(np.argmin(solo_steps))
        with pytest.raises(DivergenceError) as batch_info:
            run_seeds(problem, sched, [2.0, 0.0], 3000, cert, seeds)
        assert batch_info.value.step_index == solo_steps[first]
        assert f"replication {first} (seed {seeds[first]})" in str(batch_info.value)

    def test_count_validation(self):
        problem, sched, cert = quadratic_setup()
        with pytest.raises(UsageError):
            run_replications(problem, sched, [2.0, 0.0], 10, cert, 7, 0)


class TestBlocks:
    """The horizon is cut into blocks; no block length may change a bit."""

    @pytest.mark.parametrize("family", ["quadratic", "finite_sum"])
    def test_block_length_is_invisible(self, family, monkeypatch):
        if family == "quadratic":
            problem, sched, cert = quadratic_setup()
            x0, per_step = [2.0, 0.0], 2
        else:
            problem, sched, cert, x0 = finite_sum_setup()
            per_step = 1
        count, steps = 5, 120
        results = []
        # Blocks of 1 step, of 7 steps (prime, does not divide 120), and of
        # the whole horizon.
        for block in (1, 7, steps + 50):
            monkeypatch.setattr(engine, "BLOCK_BUDGET", block * count * per_step)
            results.append(run_replications(problem, sched, x0, steps, cert, 7, count))
        for other in results[1:]:
            assert_same_runs(results[0], other)

    def test_noise_is_drawn_in_blocks(self, monkeypatch):
        problem, sched, cert = quadratic_setup()
        lengths = []
        original = type(problem).noise_block

        def recording(self, rng, count):
            lengths.append(count)
            return original(self, rng, count)

        monkeypatch.setattr(type(problem), "noise_block", recording)
        monkeypatch.setattr(engine, "BLOCK_BUDGET", 7 * 3 * 2)
        run_replications(problem, sched, [2.0, 0.0], 50, cert, 7, 3)
        assert lengths == [7] * 21 + [1] * 3

    def test_divergence_step_does_not_depend_on_blocks(self, monkeypatch):
        problem = ShiftedQuadratic(curvature=1.0, center=[0.0], noise_halfwidth=0.0)
        cert = problem.certify(2.0, [2.0])
        steps = []
        for budget in (1, 13, 1 << 22):
            monkeypatch.setattr(engine, "BLOCK_BUDGET", budget)
            with pytest.raises(DivergenceError) as info:
                run_replications(problem, ConstantSchedule(rho=3.0), [2.0], 2000, cert, 4, 1)
            steps.append(info.value.step_index)
        assert steps[0] == steps[1] == steps[2]

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_divergence_scan_matches_one_step_blocks(self, where, monkeypatch):
        # One design row of norm 1e100 makes the first step that samples it
        # overflow, while the other rows contract, so the squared distances
        # stay small until they jump to inf.  Seeds 13 and 15 both first
        # draw that row at step 12 (seeds 9 and 10 later), so the error must
        # name replication 1.  Blocks are cut so that step 12 is a block's
        # first, a middle or its last step; the block runs on past it into
        # overflow and NaN.
        rng = SeededGenerator(5)
        design = np.vstack([rng.normal(size=(39, 2)), [[1e100, 0.0]]])
        problem = FiniteSumLeastSquares(design=design, targets=rng.normal(size=40))
        cert = HypothesisCertificate(
            strong_convexity=1.0,
            grad_sq_bound=1.0,
            region_center=np.zeros(2),
            region_radius=10.0,
            guaranteed_containment=False,
        )
        seeds = [9, 13, 15, 10]

        def diverge(block):
            monkeypatch.setattr(engine, "BLOCK_BUDGET", block * len(seeds))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(DivergenceError) as info:
                    run_seeds(problem, ConstantSchedule(rho=0.1), [1.0, 0.5], 300, cert, seeds)
            assert [w.message for w in caught if issubclass(w.category, RuntimeWarning)] == []
            return info.value

        reference = diverge(1)
        assert reference.step_index == 12
        assert "replication 1 (seed 13)" in str(reference)
        # Step 12 is row 11 of the first block, or row 0 of the second.
        block = {"first": 11, "middle": 24, "last": 12}[where]
        error = diverge(block)
        assert error.step_index == reference.step_index
        assert str(error) == str(reference)

    def test_memory_does_not_grow_with_the_horizon(self, monkeypatch):
        # Blocks of 1024 steps at R = 256 and d = 2, so both horizons run in
        # full blocks.  Holding the paths would take R * H * 8 bytes for the
        # squared distances alone: 31 MiB at H = 16000.
        monkeypatch.setattr(engine, "BLOCK_BUDGET", 1 << 19)
        problem, sched, cert = quadratic_setup()
        peaks = []
        for steps in (2000, 16000):
            tracemalloc.start()
            try:
                estimate_dn(run_replications(problem, sched, [2.0, 0.0], steps, cert, 3, 256))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 2 * 2**20, peaks
        assert peaks[1] < 16 * 2**20, peaks
