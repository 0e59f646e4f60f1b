"""Tests for seeding, the update step, and the replication runners.

The frozen seed-derivation values are the published SplitMix64 outputs for
master seed 0, so a regression here means the keying scheme changed and every
stored result becomes irreproducible.
"""
import functools
import os
import signal
import threading
import time
import warnings

import numpy as np
import pytest

from sgdcheck import analyzer, engine, objective
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
    run_replications,
    run_seeds,
)
from sgdcheck.analyzer import merge_parts, step_stats
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

    @pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
    def test_stream_is_that_of_the_philox_key(self, seed):
        # The generator skips the OS entropy of Philox(key=seed), not its
        # key, counter or stream.
        keyed = np.random.Philox(key=seed)
        ours = SeededGenerator(seed)._gen.bit_generator
        expected, state = keyed.state, ours.state
        assert state["bit_generator"] == expected["bit_generator"] == "Philox"
        for name in ("counter", "key"):
            assert np.array_equal(state["state"][name], expected["state"][name])
        for name in ("buffer", "buffer_pos", "has_uint32", "uinteger"):
            assert np.array_equal(state[name], expected[name])
        assert np.array_equal(ours.random_raw(1000), keyed.random_raw(1000))
        assert np.array_equal(
            np.random.Generator(ours).random(1000), np.random.Generator(keyed).random(1000)
        )

    @pytest.mark.parametrize("jumps", [1, 2, 31])
    def test_jumped_is_the_philox_jump(self, jumps):
        gen = SeededGenerator(2**64 - 1)
        gen.normal(size=3)
        before = gen._gen.bit_generator.state
        expected = gen._gen.bit_generator.jumped(jumps)
        copy = gen.jumped(jumps)
        assert copy.seed == gen.seed
        counter = copy._gen.bit_generator.state["state"]["counter"]
        assert np.array_equal(counter, expected.state["state"]["counter"])
        assert np.array_equal(copy._gen.bit_generator.random_raw(64), expected.random_raw(64))
        after = gen._gen.bit_generator.state
        assert np.array_equal(after["state"]["counter"], before["state"]["counter"])
        assert after["buffer_pos"] == before["buffer_pos"]

    def test_jumped_needs_a_positive_count(self):
        with pytest.raises(UsageError):
            SeededGenerator(1).jumped(0)

    # The first four values of each draw method from a fresh generator,
    # recorded with numpy 2.4.6.  numpy does not promise that Generator
    # streams stay the same across versions (NEP 19); a failure here names
    # the stream that moved, where otherwise only golden digests would.
    PHILOX_ANSWERS = {
        "seed 0": (lambda: SeededGenerator(0), {
            "random": ["0x1.7a5d3204726c0p-7", "0x1.eeb1585ce5460p-3",
                       "0x1.c8667a55d9028p-4", "0x1.20faf40a5fab6p-1"],
            "uniform": ["-0x1.f42d166fdc6cap-2", "-0x1.08a753d18d5d0p-2",
                        "-0x1.8de6616a89bf6p-2", "0x1.07d7a052fd5b0p-4"],
            "integers": [4, 1, 78, 30],
            "normal": ["0x1.463cb3872ecbdp-3", "-0x1.c6313809c831cp+0",
                       "0x1.5396485e717b0p+0", "0x1.346e5e799d961p+0"],
        }),
        "seed 2**64 - 1": (lambda: SeededGenerator(2**64 - 1), {
            "random": ["0x1.e1290e2c6ef2cp-3", "0x1.6f435abb5c260p-1",
                       "0x1.a50baba7f4bfap-2", "0x1.6eaa5d0f1a384p-1"],
            "uniform": ["-0x1.0f6b78e9c886ap-2", "0x1.bd0d6aed70980p-3",
                        "-0x1.6bd151602d018p-4", "0x1.baa9743c68e10p-3"],
            "integers": [70, 30, 87, 91],
            "normal": ["-0x1.6263d495cd1d9p+1", "0x1.ad8c353429341p+0",
                       "-0x1.cf161705b3e36p-2", "0x1.41ecaa3154b2dp+1"],
        }),
        "seed 0 jumped once": (lambda: SeededGenerator(0).jumped(1), {
            "random": ["0x1.498ac0ff6240dp-1", "0x1.0435ec58bdff0p-4",
                       "0x1.ecd83886ec6c8p-4", "0x1.5aab132feebf6p-2"],
            "uniform": ["0x1.262b03fd89034p-3", "-0x1.bef284e9d0804p-2",
                        "-0x1.84c9f1de44e4ep-2", "-0x1.4aa9d9a022814p-3"],
            "integers": [88, 82, 69, 8],
            "normal": ["-0x1.c2493f81bf470p-3", "0x1.c010db6980710p-4",
                       "-0x1.503345ad68fc5p+0", "0x1.54ee2cba71f4bp-1"],
        }),
    }

    @pytest.mark.parametrize("name", list(PHILOX_ANSWERS))
    def test_philox_streams_give_their_known_answers(self, name):
        make, answers = self.PHILOX_ANSWERS[name]
        gen = make()
        draws = {
            "random": [gen.random() for _ in range(4)],
            "uniform": make().uniform(-0.5, 0.5, size=4).tolist(),
            "integers": make().integers(128, size=4).tolist(),
            "normal": make().normal(size=4).tolist(),
        }
        assert {
            method: [v if method == "integers" else float.hex(v) for v in values]
            for method, values in draws.items()
        } == answers


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


def family_setup(family):
    """problem, schedule, certificate, x0 and noise values per step of a
    family's small test problem."""
    if family == "quadratic":
        return (*quadratic_setup(), [2.0, 0.0], 2)
    return (*finite_sum_setup(), 1)


def assert_same_runs(a, b):
    assert a.seeds == b.seeds
    assert a.steps == b.steps
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.stderr, b.stderr)
    assert np.array_equal(a.in_region_fraction, b.in_region_fraction)
    assert np.array_equal(a.final_x, b.final_x)


# One design row of norm 1e100 makes the first step that samples it
# overflow, while the other rows contract, so the squared distances stay
# small until they jump to inf.  Seeds 13 and 15 both first draw that row at
# step 12 (seeds 9 and 10 later), so the error must name replication 1.
OVERFLOW_ROW_SEEDS = [9, 13, 15, 10]


def diverge_on_overflow_row():
    """Run the seeds above for 300 steps; return the DivergenceError.

    No RuntimeWarning may escape on the way.
    """
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
    sched = ConstantSchedule(rho=0.1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DivergenceError) as info:
            run_seeds(problem, sched, [1.0, 0.5], 300, cert, OVERFLOW_ROW_SEEDS)
    assert [w.message for w in caught if issubclass(w.category, RuntimeWarning)] == []
    return info.value


def descend_both_ways(problem, noise, x, rates):
    """The iterates of the least-squares ``descend`` and of the base loop."""
    paths = np.empty((2,) + noise.shape + x.shape[-1:])
    with np.errstate(over="ignore", invalid="ignore"):
        problem.descend(noise, x, rates, paths[0])
        objective.StochasticProblem.descend(problem, noise, x, rates, paths[1])
    return paths


class TestDescend:
    """FiniteSumLeastSquares.descend gathers a chunk's rows and targets once;
    its iterates are the bits of the base loop of pointwise_gradient steps."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 16, 64])
    @pytest.mark.parametrize("rows", [128, 300])
    def test_bits_of_the_base_loop(self, dim, rows):
        rng = SeededGenerator(dim)
        problem = FiniteSumLeastSquares(
            design=rng.normal(size=(rows, dim)), targets=rng.normal(size=rows)
        )
        assert problem.noise_dtype == (np.uint8 if rows <= 256 else np.uint16)
        x = rng.normal(size=(13, dim))
        hold = engine._PATH_BYTES // x.nbytes
        for steps in (1, 7, hold):
            noise = problem.noise_block(rng, 13 * steps).reshape(steps, 13)
            rates = rng.uniform(0.0, 2.0 / dim, size=steps)
            ours, base = descend_both_ways(problem, noise, x, rates)
            assert np.isfinite(ours).all()
            assert ours.tobytes() == base.tobytes()

    def test_a_row_out_of_range_raises_on_both_paths(self):
        problem = FiniteSumLeastSquares(design=np.eye(3), targets=np.ones(3))
        noise = np.array([[0, 1], [2, 3]], dtype=np.uint8)
        out = np.empty((2, 2, 3))
        base = functools.partial(objective.StochasticProblem.descend, problem)
        for descend in (problem.descend, base):
            with pytest.raises(IndexError):
                descend(noise, np.zeros((2, 3)), np.ones(2), out)

    def test_overflowing_rows_reach_the_same_first_non_finite_step(self):
        # The run of diverge_on_overflow_row: its 1e100 row first overflows
        # at step 12.
        rng = SeededGenerator(5)
        design = np.vstack([rng.normal(size=(39, 2)), [[1e100, 0.0]]])
        problem = FiniteSumLeastSquares(design=design, targets=rng.normal(size=40))
        noise = np.empty((300, len(OVERFLOW_ROW_SEEDS)), dtype=problem.noise_dtype)
        problem.fill_noise_block([SeededGenerator(seed) for seed in OVERFLOW_ROW_SEEDS], noise)
        x = np.repeat([[1.0, 0.5]], len(OVERFLOW_ROW_SEEDS), axis=0)
        paths = descend_both_ways(problem, noise, x, np.full(300, 0.1))
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(sq_norm(paths)).all(axis=2)
        assert finite[:, :11].all() and not finite[:, 11].any()
        assert paths[0].tobytes() == paths[1].tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 16, 64])
    def test_c_einsum_is_row_dot(self, dim):
        rng = SeededGenerator(dim + 100)
        a, b = rng.normal(size=(2, 37, dim))
        out = np.empty(37)
        objective.c_einsum("ij,ij->i", a, b, out=out)
        assert out.tobytes() == objective.row_dot(a, b).tobytes()


class TestRunReplication:
    """Runs of a single seed, where the statistics are the path itself."""

    def test_noiseless_contraction_is_exact(self):
        # With no noise and rate 0.5 each step halves the iterate, so the
        # squared distance contracts by exactly 0.25.
        problem = ShiftedQuadratic(curvature=1.0, center=[0.0], noise_halfwidth=0.0)
        cert = problem.certify(2.0, [1.0])
        runs = run_seeds(problem, ConstantSchedule(rho=0.5), [1.0], 3, cert, [42])
        np.testing.assert_array_equal(runs.mean, [1.0, 0.25, 0.0625, 0.015625])
        np.testing.assert_array_equal(runs.stderr, [0.0, 0.0, 0.0, 0.0])
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
        for n, rate in enumerate(sched.rates(0, 150)):
            x = x - rate * problem.pointwise_gradient(noise[n], x)
            path.append(sq_norm(x - center))
        path = np.array(path)
        mean, stderr = step_stats(path)
        inside = np.count_nonzero(path <= cert.region_radius**2, axis=1)
        for got, expected in [
            (runs.final_x, x),
            (runs.mean, mean),
            (runs.stderr, stderr),
            (runs.in_region_fraction, inside / len(seeds)),
        ]:
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()
        if len(seeds) == 1:
            np.testing.assert_array_equal(runs.mean, path[:, 0])
            assert runs.mean[150] == np.dot(x[0] - center, x[0] - center)

    def test_containment_when_guaranteed(self):
        problem, sched, cert = quadratic_setup(halfwidth=0.5, rho=0.05, radius=2.0)
        assert cert.guaranteed_containment
        runs = run_seeds(problem, sched, [2.0, 0.0], 2000, cert, [99])
        assert np.all(runs.in_region_fraction == 1.0)

    def test_trajectory_shapes_and_seed(self):
        problem, sched, cert = quadratic_setup()
        runs = run_seeds(problem, sched, [2.0, 0.0], 50, cert, [5])
        assert runs.steps == 50
        assert runs.seeds == (5,)
        assert runs.replications == 1
        assert runs.mean.shape == (51,)
        assert runs.stderr.shape == (51,)
        assert runs.in_region_fraction.shape == (51,)
        assert runs.final_x.shape == (1, 2)
        assert not runs.mean.flags.writeable
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
    return solos, np.stack([solo.mean for solo in solos])


class TestRunReplications:
    def check_against_solo(self, problem, sched, x0, steps, cert, master_seed, count):
        batch = run_replications(problem, sched, x0, steps, cert, master_seed, count)
        seeds = tuple(derive_seed(master_seed, i) for i in range(count))
        assert batch.seeds == seeds
        solos, rows = solo_rows(problem, sched, x0, steps, cert, seeds)
        for i, solo in enumerate(solos):
            assert np.array_equal(batch.final_x[i], solo.final_x[0])
        # One part: step_stats of the rows in ascending seed order.
        mean, stderr = step_stats(rows[sorted(range(count), key=seeds.__getitem__)].T)
        assert np.array_equal(batch.mean, mean)
        assert np.array_equal(batch.stderr, stderr)
        assert np.array_equal(
            batch.in_region_fraction, sum(solo.in_region_fraction for solo in solos) / count
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
        # The quadratic draws each block as one unit-value call per generator.
        problem, sched, cert = quadratic_setup()
        lengths = []
        original = SeededGenerator.random

        def recording(self, out=None):
            lengths.append(out.shape[0])
            return original(self, out=out)

        monkeypatch.setattr(SeededGenerator, "random", recording)
        monkeypatch.setattr(engine, "BLOCK_BUDGET", 7 * 3 * 2)
        run_replications(problem, sched, [2.0, 0.0], 50, cert, 7, 3)
        assert lengths == [7] * 21 + [1] * 3

    def test_tiles_of_one_replication_give_the_same_bytes(self, monkeypatch):
        # d = 3 at R = 37 for 2000 steps, one block: the default tile holds
        # 5 replications, so the last one holds 2; a one-byte tile holds one.
        problem = ShiftedQuadratic(curvature=0.8, center=[-0.75, 0.125, 2.0], noise_halfwidth=0.37)
        cert = problem.certify(4.0, [0.5, -1.0, 1.25])
        sched = ConstantSchedule(rho=0.1)

        def summary_bytes():
            runs = run_replications(problem, sched, [0.5, -1.0, 1.25], 2000, cert, 29, 37)
            arrays = (runs.mean, runs.stderr, runs.in_region_fraction, runs.final_x)
            return runs.seeds, [array.tobytes() for array in arrays]

        default = summary_bytes()
        monkeypatch.setattr(objective, "_TILE_BYTES", 1)
        assert summary_bytes() == default

    def test_divergence_step_does_not_depend_on_blocks(self, monkeypatch):
        problem = ShiftedQuadratic(curvature=1.0, center=[0.0], noise_halfwidth=0.0)
        cert = problem.certify(2.0, [2.0])
        steps = []
        for budget in (1, 13, 1 << 22):
            monkeypatch.setattr(engine, "BLOCK_BUDGET", budget)
            with pytest.raises(DivergenceError) as info:
                run_seeds(
                    problem, ConstantSchedule(rho=3.0), [2.0], 2000, cert, [derive_seed(4, 0)]
                )
            steps.append(info.value.step_index)
        assert steps[0] == steps[1] == steps[2]

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_divergence_scan_matches_one_step_blocks(self, where, monkeypatch):
        # Blocks are cut so that step 12 is a block's first, a middle or its
        # last step; the block runs on past it into overflow and NaN.
        def diverge(block):
            monkeypatch.setattr(engine, "BLOCK_BUDGET", block * len(OVERFLOW_ROW_SEEDS))
            return diverge_on_overflow_row()

        reference = diverge(1)
        assert reference.step_index == 12
        assert "replication 1 (seed 13)" in str(reference)
        # Step 12 is row 11 of the first block, or row 0 of the second.
        block = {"first": 11, "middle": 24, "last": 12}[where]
        error = diverge(block)
        assert error.step_index == reference.step_index
        assert str(error) == str(reference)

    def test_memory_does_not_grow_with_the_horizon(self, monkeypatch, peak_traced_bytes):
        # Blocks of 1024 steps at R = 256 and d = 2, so both horizons run in
        # full blocks.  Holding the paths would take R * H * 8 bytes for the
        # squared distances alone: 31 MiB at H = 16000.
        monkeypatch.setattr(engine, "BLOCK_BUDGET", 1 << 19)
        problem, sched, cert = quadratic_setup()
        peaks = [
            peak_traced_bytes(
                lambda: run_replications(problem, sched, [2.0, 0.0], steps, cert, 3, 256)
            )
            for steps in (2000, 16000)
        ]
        assert abs(peaks[1] - peaks[0]) < 2 * 2**20, peaks
        assert peaks[1] < 8 * 2**20, peaks


class TestFoldRuns:
    """Squared distances are scanned and folded every 2^16 // R steps."""

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_divergence_scan_matches_one_step_runs(self, where, monkeypatch):
        # The default budget runs the 300 steps in one block, cut into fold
        # runs so that step 12 is row 0 of the second run, or row 11 of the
        # first; the run goes on past it into overflow and NaN.
        run = {"first": 11, "middle": 24, "last": 12}[where]
        monkeypatch.setattr(analyzer, "_STATS_CHUNK", run * len(OVERFLOW_ROW_SEEDS))
        folded = []
        monkeypatch.setattr(
            engine, "step_stats", lambda rows: folded.append(rows.shape[0]) or step_stats(rows)
        )
        error = diverge_on_overflow_row()
        # Step 0 is folded alone; only runs before the one with step 12 fold.
        assert folded == ([1, 11] if where == "first" else [1])
        assert error.step_index == 12
        assert "step 12 in replication 1 (seed 13)" in str(error)

    def test_overflowing_fold_does_not_warn(self, monkeypatch):
        # rho = 3 doubles the distance every step: the last finite squared
        # distances reach about 1e308, where their squares overflow.  With
        # one-step blocks every step is folded on its own before the scan
        # meets the first non-finite one.
        problem, sched, cert = quadratic_setup(rho=3.0, radius=3.0)
        seeds = [8, 9, 10]
        with pytest.raises(DivergenceError) as reference:
            run_seeds(problem, sched, [2.0, 0.0], 3000, cert, seeds)
        monkeypatch.setattr(engine, "BLOCK_BUDGET", 2 * len(seeds))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DivergenceError) as info:
                run_seeds(problem, sched, [2.0, 0.0], 3000, cert, seeds)
        assert [w.message for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert str(info.value) == str(reference.value)

    def test_fold_buffer_does_not_grow_with_the_block(self, peak_traced_bytes):
        # One value per step at R = 200: one block spans the whole horizon,
        # so the noise buffer holds R * H compact row indices (one byte each
        # for 32 rows), while the squared distances take one fold run of
        # 2^16 // R steps (512 KiB), the fold twice that, and the path buffer
        # and its gathered rows 256 KiB each.  Squared distances for the
        # whole block would add another 3.1 MiB.
        rng = SeededGenerator(3)
        design = rng.normal(size=(32, 8))
        problem = FiniteSumLeastSquares(design=design, targets=rng.normal(size=32))
        x0 = problem.minimizer() + 0.5
        cert = problem.certify(3.0, x0)
        sched = InverseTimeSchedule(scale=1.0, offset=10.0)
        count, steps = 200, 2000
        assert steps * count <= engine.BLOCK_BUDGET
        noise_bytes = steps * count * problem.noise_block(SeededGenerator(0), 1).itemsize
        peak = peak_traced_bytes(
            lambda: run_replications(problem, sched, x0, steps, cert, 5, count)
        )
        assert peak < noise_bytes + 2 * 2**20, (peak, noise_bytes)


def summary_bytes(runs):
    arrays = (runs.mean, runs.stderr, runs.in_region_fraction, runs.final_x)
    return runs.seeds, runs.steps, [array.tobytes() for array in arrays]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="workers are forked")
class TestProcesses:
    """Groups of parts of the replications are stepped in forked workers."""

    @pytest.fixture(autouse=True)
    def time_limit(self):
        """A stuck worker fails the test after 60 s instead of hanging the run."""

        def expire(signum, frame):
            raise TimeoutError("the test did not finish within 60 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(60)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    @pytest.fixture
    def cores(self, monkeypatch, fake_cores):
        """``cores(k, part)`` cuts the replications into parts of ``part``,
        lets run_seeds fork a worker for each of k cores, or for each part if
        fewer, and counts the workers it forks."""
        forks = []
        fork = os.fork

        def counted_fork():
            forks.append(1)
            return fork()

        def use(count, part=1):
            fake_cores(count)
            monkeypatch.setattr(engine, "_PROCESS_STEPS", 1)
            monkeypatch.setattr(engine, "_PART", part)
            monkeypatch.setattr(os, "fork", counted_fork)
            return forks

        return use

    def test_size_rule(self, monkeypatch, fake_cores):
        # Processes by replication-steps R * H: ls-long (200 x 50 000) gets
        # 2 workers and ls-audit (400 x 500) stays in the caller; quad-wide
        # (8000 x 2000) gets 3 workers on 8 cores.
        fake_cores(8)
        assert engine._process_count(200, 50_000) == 2
        assert engine._process_count(400, 500) == 1
        assert engine._process_count(8000, 2000) == 3
        assert engine._process_count(10**6, 2000) == 8
        fake_cores(2)
        assert engine._process_count(200, 50_000) == 2
        assert engine._process_count(400, 500) == 1
        assert engine._process_count(8000, 2000) == 2
        monkeypatch.setattr(engine, "_PROCESS_STEPS", 1)
        assert engine._process_count(3, 4) == 2
        assert engine._process_count(1, 64) == 1

    @pytest.mark.parametrize(
        "count, sizes",
        [
            (2, [2]),
            (64, [64]),
            (65, [64, 1]),
            (128, [64, 64]),
            (200, [100, 100]),
            (400, [200, 200]),
            (1024, [512, 512]),
            (1500, [750, 750]),
            (2047, [1024, 1023]),
            (2048, [1024, 1024]),
            (2085, [1024, 1024, 37]),
            (8000, [1024] * 7 + [832]),
        ],
    )
    def test_part_rule(self, count, sizes):
        part = engine._part_size(count)
        assert [min(part, count - lo) for lo in range(0, count, part)] == sizes

    def test_two_halves_of_a_least_squares_run_on_two_cores(self, cores):
        # R = 200 is cut into two parts of 100, one for each of two workers:
        # the bytes of one process, the statistics of the two seed-ordered
        # halves merged, and no worker left behind.
        problem, sched, cert, x0 = finite_sum_setup()
        seeds = [derive_seed(4, i) for i in range(200)]
        forks = cores(1, engine._PART)
        alone = run_seeds(problem, sched, x0, 150, cert, seeds)
        assert forks == []
        cores(2, engine._PART)
        runs = run_seeds(problem, sched, x0, 150, cert, seeds)
        assert len(forks) == 2
        assert_no_child_left()
        assert summary_bytes(runs) == summary_bytes(alone)
        _, rows = solo_rows(problem, sched, x0, 150, cert, sorted(seeds))
        halves = [step_stats(rows[lo:lo + 100].T) for lo in (0, 100)]
        mean, stderr = merge_parts(*(np.stack(column) for column in zip(*halves)), [100, 100])
        assert runs.mean.tobytes() == mean.tobytes()
        assert runs.stderr.tobytes() == stderr.tobytes()

    def test_one_process_while_other_threads_run(self, fake_cores):
        fake_cores(2)
        assert engine._process_count(8000, 2000) == 2
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert engine._process_count(8000, 2000) == 1
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()

    def test_one_process_without_fork(self, monkeypatch):
        problem, sched, cert = quadratic_setup()

        def summary():
            return summary_bytes(run_replications(problem, sched, [2.0, 0.0], 50, cert, 3, 40))

        alone = summary()
        monkeypatch.setattr(engine, "_PROCESS_STEPS", 1)
        monkeypatch.delattr(os, "fork")
        assert engine._process_count(8000, 2000) == 1
        assert summary() == alone

    @pytest.mark.parametrize("family", ["quadratic", "finite_sum"])
    @pytest.mark.parametrize(
        "count, steps, block, processes",
        [
            (37, 300, None, 3),  # R not divisible by the process count
            (3, 40, None, 5),  # R smaller than the process count
            (10, 1, None, 2),  # a horizon of one step
            (11, 120, 7, 2),  # several blocks of 7 steps
        ],
    )
    def test_same_bytes_as_one_process(
        self, family, count, steps, block, processes, cores, monkeypatch
    ):
        problem, sched, cert, x0, per_step = family_setup(family)
        if block is not None:
            monkeypatch.setattr(engine, "BLOCK_BUDGET", block * count * per_step)

        def summary():
            return summary_bytes(run_replications(problem, sched, x0, steps, cert, 7, count))

        # Parts of one replication, and of four with a shorter last one.
        for part in (1, 4):
            forks = cores(1, part)
            alone = summary()
            assert forks == []
            cores(processes, part)
            assert summary() == alone
            workers = min(processes, -(-count // part))
            assert len(forks) == (workers if workers > 1 else 0)
            forks.clear()
            assert_no_child_left()

    @pytest.mark.parametrize("family", ["quadratic", "finite_sum"])
    def test_bytes_do_not_depend_on_the_process_count(self, family, cores, monkeypatch):
        # R = 23 in parts of 4 (the last one of 3) over blocks of 7 steps,
        # stepped by one to five processes.
        problem, sched, cert, x0, per_step = family_setup(family)
        monkeypatch.setattr(engine, "BLOCK_BUDGET", 7 * 23 * per_step)
        results = []
        for processes in range(1, 6):
            forks = cores(processes, 4)
            results.append(summary_bytes(run_replications(problem, sched, x0, 120, cert, 7, 23)))
            assert len(forks) == (processes if processes > 1 else 0)
            forks.clear()
        assert results[1:] == results[:1] * 4

    @pytest.mark.parametrize("processes", [1, 2])
    def test_seed_order_is_invisible(self, processes, cores):
        # The parts are cut from the sorted seeds, so reordered seeds give
        # the same statistics, and their last iterates in the new order.
        problem, sched, cert = quadratic_setup()
        seeds = [derive_seed(5, i) for i in range(23)]
        cores(processes, 4)
        reference = run_seeds(problem, sched, [2.0, 0.0], 200, cert, seeds)
        for order in (np.arange(23)[::-1], np.argsort(SeededGenerator(8).random(np.empty(23)))):
            runs = run_seeds(problem, sched, [2.0, 0.0], 200, cert, [seeds[i] for i in order])
            for field in ("mean", "stderr", "in_region_fraction"):
                assert getattr(runs, field).tobytes() == getattr(reference, field).tobytes()
            assert runs.final_x.tobytes() == reference.final_x[order].tobytes()

    @pytest.mark.parametrize("processes", [1, 2])
    def test_the_one_order_is_the_seed_order(self, processes, cores):
        # R = 11 in parts of 4, 4 and 3, seeds given in descending order:
        # each part's step_stats takes its rows in ascending seed order.
        problem, sched, cert = quadratic_setup()
        seeds = sorted((derive_seed(9, i) for i in range(11)), reverse=True)
        cores(processes, 4)
        runs = run_seeds(problem, sched, [2.0, 0.0], 150, cert, seeds)
        _, rows = solo_rows(problem, sched, [2.0, 0.0], 150, cert, seeds[::-1])
        parts = [step_stats(rows[lo:lo + 4].T) for lo in range(0, 11, 4)]
        mean, stderr = merge_parts(*(np.stack(column) for column in zip(*parts)), [4, 4, 3])
        assert runs.mean.tobytes() == mean.tobytes()
        assert runs.stderr.tobytes() == stderr.tobytes()

    def test_parts_merge_to_the_statistics_of_all_replications(self, cores):
        problem, sched, cert = quadratic_setup()
        whole = run_replications(problem, sched, [2.0, 0.0], 300, cert, 3, 37)
        cores(2, 4)
        parts = run_replications(problem, sched, [2.0, 0.0], 300, cert, 3, 37)
        np.testing.assert_allclose(parts.mean, whole.mean, rtol=1e-13)
        np.testing.assert_allclose(parts.stderr, whole.stderr, rtol=1e-12)
        assert parts.mean[0] == whole.mean[0]
        assert parts.stderr[0] == 0.0
        assert np.array_equal(parts.in_region_fraction, whole.in_region_fraction)
        assert np.array_equal(parts.final_x, whole.final_x)

    def test_fold_runs_and_path_buffer_of_several_steps(self, cores, monkeypatch):
        # R = 300 in parts of 100 folds runs of 218 steps in one process and
        # of 500 in each of three workers.  A 4 KiB path buffer holds one step
        # of all 300 replications of d = 2 and two steps of a worker's 100, so
        # every run is cut into many held spans in every process; the
        # default buffer holds 54 steps of all 300.
        problem, sched, cert = quadratic_setup()
        monkeypatch.setattr(engine, "_PATH_BYTES", 4096)

        def summary():
            return summary_bytes(run_replications(problem, sched, [2.0, 0.0], 500, cert, 3, 300))

        cores(1, 100)
        alone = summary()
        monkeypatch.setattr(engine, "_PATH_BYTES", 1 << 18)
        assert summary() == alone
        monkeypatch.setattr(engine, "_PATH_BYTES", 4096)
        forks = cores(3, 100)
        assert summary() == alone
        assert len(forks) == 3

    def test_divergence_in_a_worker_chunk(self, cores):
        # One replication per part: replication 1 (seed 13), the first to
        # overflow, is in the third part of the sorted seeds [9, 10, 13, 15],
        # stepped by the third of four workers, or with the others in one
        # process.
        reference = diverge_on_overflow_row()
        forks = cores(1)
        assert str(diverge_on_overflow_row()) == str(reference)
        assert forks == []
        cores(4)
        error = diverge_on_overflow_row()
        assert len(forks) == 4
        assert error.step_index == reference.step_index == 12
        assert str(error) == str(reference)
        assert_no_child_left()

    def test_interrupt_reaps_the_workers(self, cores, monkeypatch):
        # The worker of the last two parts, forked last, interrupts the caller
        # at its 50th step, while both workers still have steps to go.
        problem, sched, cert = quadratic_setup()
        parent = os.getpid()
        gradient = ShiftedQuadratic.pointwise_gradient
        calls = []

        def interrupting(self, noise, x, out=None):
            if os.getpid() != parent and x.shape[0] == 60:
                calls.append(1)
                if len(calls) == 50:
                    os.kill(parent, signal.SIGINT)
            return gradient(self, noise, x, out=out)

        monkeypatch.setattr(ShiftedQuadratic, "pointwise_gradient", interrupting)
        forks = cores(2, 30)
        with pytest.raises(KeyboardInterrupt):
            run_replications(problem, sched, [2.0, 0.0], 2000, cert, 3, 90)
        assert len(forks) == 2
        assert_no_child_left()

    def test_a_failing_worker_is_reported(self, cores, monkeypatch, capfd):
        problem, sched, cert = quadratic_setup()
        parent = os.getpid()
        gradient = ShiftedQuadratic.pointwise_gradient

        def failing(self, noise, x, out=None):
            # The second of two workers steps replications 5..10.
            if os.getpid() != parent and x.shape[0] == 6:
                raise MemoryError("worker out of memory")
            return gradient(self, noise, x, out=out)

        monkeypatch.setattr(ShiftedQuadratic, "pointwise_gradient", failing)
        cores(2)
        with pytest.raises(RuntimeError, match=r"replications 5\.\.10 exited with code 1"):
            run_replications(problem, sched, [2.0, 0.0], 50, cert, 3, 11)
        assert "MemoryError: worker out of memory" in capfd.readouterr().err
        assert_no_child_left()

    def test_worker_stops_when_the_parent_goes_away(self, cores, monkeypatch):
        # A forked caller leaves as soon as it would wait for its two workers,
        # whose steps take 1 ms each over a horizon of 100 s.  Only the caller
        # and its workers hold the write end of the pipe, so its read end
        # sees EOF once the workers have found another parent at a noise
        # block of 10 steps and left.
        problem, sched, cert = quadratic_setup()
        gradient = ShiftedQuadratic.pointwise_gradient

        def slow(self, noise, x, out=None):
            time.sleep(0.001)
            return gradient(self, noise, x, out=out)

        read, write = os.pipe()
        caller = os.fork()
        if caller == 0:
            try:
                os.close(read)
                monkeypatch.setattr(ShiftedQuadratic, "pointwise_gradient", slow)
                monkeypatch.setattr(engine, "BLOCK_BUDGET", 10 * 4 * 2)
                monkeypatch.setattr(os, "waitpid", lambda pid, options: os._exit(0))
                cores(2, 2)
                run_replications(problem, sched, [2.0, 0.0], 10**5, cert, 3, 4)
            finally:
                os._exit(1)
        os.close(write)
        try:
            assert os.waitstatus_to_exitcode(os.waitpid(caller, 0)[1]) == 0
            assert os.read(read, 1) == b""
        finally:
            os.close(read)
        assert_no_child_left()
