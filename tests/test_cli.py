"""End-to-end tests for the command line interface and its file outputs."""
import dataclasses
import json
import os
import time
import warnings

import numpy as np
import pytest

from sgdcheck import (
    DnSeries,
    bound_sequence,
    build_problem,
    build_schedule,
    run_replications,
)
from sgdcheck import (
    FiniteSumLeastSquares,
    ShiftedQuadratic,
    audit_certificate,
    load_config,
)
from sgdcheck import checks, cli, engine
from sgdcheck.cli import CSV_HEADER, ENV_OUTPUT_DIR, main
from sgdcheck.errors import UsageError
from sgdcheck.engine import aux_generator


def write_config(path, **overrides):
    document = {
        "problem": {
            "family": "shifted_quadratic",
            "curvature": 1.0,
            "center": [0.0, 0.0],
            "noise_halfwidth": 0.5,
        },
        "schedule": {"kind": "constant", "rho": 0.05},
        "x0": [2.0, 0.0],
        "horizon": 50,
        "replications": 20,
        "master_seed": 7,
        "region_radius": 2.0,
    }
    document.update(overrides)
    path.write_text(json.dumps(document), encoding="utf-8")
    return document


@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    target = tmp_path / "out"
    monkeypatch.setenv(ENV_OUTPUT_DIR, str(target))
    return target


class TestRunCommand:
    def test_passing_run(self, tmp_path, out_dir, capsys):
        config = tmp_path / "experiment.json"
        write_config(
            config,
            checks=[
                {"type": "recurrence"},
                {"type": "neighborhood", "window": 10, "tol_rel": 0.2},
                {"type": "lemma", "n": 1, "k": 10},
            ],
        )
        assert main(["run", str(config)]) == 0
        stdout = capsys.readouterr().out
        assert "[PASS] recurrence" in stdout
        assert "[PASS] neighborhood" in stdout
        assert "[PASS] lemma" in stdout
        assert "overall: PASS" in stdout

        report = (out_dir / "report.txt").read_text(encoding="utf-8")
        assert report.splitlines()[-1] == "overall: PASS"
        csv_lines = (out_dir / "series.csv").read_text(encoding="utf-8").splitlines()
        assert csv_lines[0] == CSV_HEADER
        assert len(csv_lines) == 52  # header plus steps 0..50

    def test_csv_row_zero_is_exact(self, tmp_path, out_dir):
        config = tmp_path / "experiment.json"
        write_config(config)
        main(["run", str(config)])
        first_row = (out_dir / "series.csv").read_text(encoding="utf-8").splitlines()[1]
        fields = first_row.split(",")
        # d_0 = ||x0||^2 = 4 with zero spread, inside the region.
        assert fields[0] == "0"
        assert fields[2] == "4"
        assert fields[3] == "0"
        assert fields[4] == "4"
        assert fields[5] == "1"

    def test_csv_round_trips_library_doubles(self, tmp_path, out_dir):
        config = tmp_path / "experiment.json"
        document = write_config(config, horizon=30, replications=5)
        main(["run", str(config)])

        problem = build_problem(
            {
                "family": "shifted_quadratic",
                "curvature": 1.0,
                "center": [0.0, 0.0],
                "noise_halfwidth": 0.5,
            }
        )
        schedule = build_schedule(document["schedule"])
        cert = problem.certify(2.0, [2.0, 0.0])
        dn = run_replications(problem, schedule, [2.0, 0.0], 30, cert, 7, 5)
        bounds = bound_sequence(float(dn.mean[0]), schedule, cert, 30)

        rows = (out_dir / "series.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert len(rows) == 31
        for n, row in enumerate(rows):
            fields = row.split(",")
            assert int(fields[0]) == n
            assert float(fields[1]) == schedule.rates(n, 1)[0]
            assert float(fields[2]) == dn.mean[n]
            assert float(fields[3]) == dn.stderr[n]
            assert float(fields[4]) == bounds[n]
            assert float(fields[5]) == dn.in_region_fraction[n]

    def test_reruns_are_byte_identical(self, tmp_path, monkeypatch):
        config = tmp_path / "experiment.json"
        write_config(config, checks=[{"type": "recurrence"}])
        monkeypatch.setenv(ENV_OUTPUT_DIR, str(tmp_path / "a"))
        main(["run", str(config)])
        monkeypatch.setenv(ENV_OUTPUT_DIR, str(tmp_path / "b"))
        main(["run", str(config)])
        first = (tmp_path / "a" / "series.csv").read_bytes()
        second = (tmp_path / "b" / "series.csv").read_bytes()
        assert first == second
        assert (tmp_path / "a" / "report.txt").read_bytes() == (
            tmp_path / "b" / "report.txt"
        ).read_bytes()

    def test_new_seed_changes_estimates_not_exit_code(self, tmp_path, monkeypatch):
        config_a = tmp_path / "a.json"
        config_b = tmp_path / "b.json"
        write_config(config_a)
        write_config(config_b, master_seed=8)
        monkeypatch.setenv(ENV_OUTPUT_DIR, str(tmp_path / "a"))
        assert main(["run", str(config_a)]) == 0
        monkeypatch.setenv(ENV_OUTPUT_DIR, str(tmp_path / "b"))
        assert main(["run", str(config_b)]) == 0
        rows_a = (tmp_path / "a" / "series.csv").read_text(encoding="utf-8").splitlines()
        rows_b = (tmp_path / "b" / "series.csv").read_text(encoding="utf-8").splitlines()
        d_hat_a = [row.split(",")[2] for row in rows_a[2:]]
        d_hat_b = [row.split(",")[2] for row in rows_b[2:]]
        assert d_hat_a != d_hat_b

    def test_output_directory_from_config(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENV_OUTPUT_DIR, raising=False)
        config = tmp_path / "experiment.json"
        write_config(config, output=str(tmp_path / "from_config"))
        main(["run", str(config)])
        assert (tmp_path / "from_config" / "series.csv").exists()

    def test_env_override_beats_config(self, tmp_path, monkeypatch):
        config = tmp_path / "experiment.json"
        write_config(config, output=str(tmp_path / "from_config"))
        monkeypatch.setenv(ENV_OUTPUT_DIR, str(tmp_path / "from_env"))
        main(["run", str(config)])
        assert (tmp_path / "from_env" / "series.csv").exists()
        assert not (tmp_path / "from_config").exists()

    def test_failing_check_exits_one(self, tmp_path, out_dir, capsys):
        config = tmp_path / "experiment.json"
        write_config(config, checks=[{"type": "convergence", "checkpoints": [[50, 1e-12]]}])
        assert main(["run", str(config)]) == 1
        stdout = capsys.readouterr().out
        assert "[FAIL] convergence" in stdout
        assert "overall: FAIL" in stdout
        report = (out_dir / "report.txt").read_text(encoding="utf-8")
        assert report.splitlines()[-1] == "overall: FAIL"

    def test_descent_statistics_that_overflow_stay_finite(self, tmp_path, out_dir, capsys):
        # Every alignment value is finite, near 1e304, but their sum and the
        # sum of their squared deviations overflow: both are summed scaled.
        config = tmp_path / "experiment.json"
        write_config(
            config,
            problem={"family": "shifted_quadratic", "curvature": 1.0, "center": [0.0, 0.0],
                     "noise_halfwidth": 1e150},
            schedule={"kind": "constant", "rho": 0.5},
            x0=[1e152, 0.0], region_radius=3e152, horizon=10, replications=4, master_seed=3,
            checks=[{"type": "descent", "points": 3, "samples": 20_000}],
        )
        with warnings.catch_warnings():
            # A warning would print to stderr instead of raising.
            warnings.simplefilter("always")
            assert main(["run", str(config)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "[PASS] descent" in captured.out
        report = (out_dir / "report.txt").read_text(encoding="utf-8")
        assert "inf" not in report and "nan" not in report

    def test_divergent_run_exits_three(self, tmp_path, out_dir, capsys):
        config = tmp_path / "experiment.json"
        write_config(
            config,
            problem={
                "family": "shifted_quadratic",
                "curvature": 1.0,
                "center": [0.0],
                "noise_halfwidth": 0.0,
            },
            schedule={"kind": "constant", "rho": 3.0},
            x0=[2.0],
            horizon=2000,
            replications=2,
        )
        assert main(["run", str(config)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("divergence:")
        assert "step" in err

    def test_a_first_rate_that_overflows_exits_two(self, tmp_path, out_dir, capsys):
        config = tmp_path / "experiment.json"
        write_config(config, schedule={"kind": "inverse_time", "scale": 1e308, "offset": 1e-300})
        with warnings.catch_warnings():
            # A warning would print to stderr instead of raising.
            warnings.simplefilter("always")
            assert main(["run", str(config)]) == 2
        assert capsys.readouterr().err == ("config error: the first rate 'scale' / 'offset' = "
                                           "1e+308 / 1e-300 is not a finite double\n")
        assert not out_dir.exists()

    def test_bad_config_exits_two(self, tmp_path, out_dir, capsys):
        config = tmp_path / "experiment.json"
        document = write_config(config)
        document["stepsize"] = 0.1
        config.write_text(json.dumps(document), encoding="utf-8")
        assert main(["run", str(config)]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_missing_config_exits_two(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_infeasible_start_exits_two(self, tmp_path, out_dir, capsys):
        config = tmp_path / "experiment.json"
        write_config(config, x0=[5.0, 0.0])
        assert main(["run", str(config)]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_ragged_design_rows_exit_two(self, tmp_path, out_dir, capsys):
        config = tmp_path / "experiment.json"
        write_config(
            config,
            problem={
                "family": "finite_sum_least_squares",
                "design_rows": [[1, 0], [0, 1, 2], [1, 1]],
                "targets": [1.0, 0.0, 1.0],
            },
        )
        assert main(["run", str(config)]) == 2
        assert "'design_rows' in problem" in capsys.readouterr().err
        assert not out_dir.exists()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the checks' worker is forked")
class TestChecksWhileTheRunSteps:
    """The checks that do not read the run are judged in a worker forked
    before the replications step, with the bytes and errors of one process."""

    CHECKS = [{"type": "recurrence"}, {"type": "descent", "points": 3, "samples": 2000},
              {"type": "lemma", "n": 1, "k": 10}]

    @pytest.fixture
    def forks(self, monkeypatch):
        """The list that gets one entry per os.fork call."""
        forks = []
        fork = os.fork

        def counted_fork():
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        return forks

    @pytest.fixture
    def worker_first(self, monkeypatch):
        """``worker_first()`` holds the run back until the forked worker has
        taken its first check, so the worker judges that check."""
        read, write = os.pipe()
        parent = os.getpid()

        def reporting(judge):
            def report(spec, **run):
                if os.getpid() != parent:
                    os.write(write, b"w")
                return judge(spec, **run)

            return report

        def use():
            for name, row in checks.CHECKS.items():
                if not row.reads_run:
                    monkeypatch.setitem(checks.CHECKS, name,
                                        row._replace(judge=reporting(row.judge)))
            replications = cli.run_replications

            def held(*args):
                assert os.read(read, 1) == b"w"
                return replications(*args)

            monkeypatch.setattr(cli, "run_replications", held)

        yield use
        os.close(read)
        os.close(write)

    def outputs(self, config, out_dir, capsys):
        code = main(["run", str(config)])
        captured = capsys.readouterr()
        files = [(out_dir / name).read_bytes() if (out_dir / name).exists() else None
                 for name in ("series.csv", "report.txt")]
        return code, captured.out, captured.err, files

    def test_same_bytes_with_and_without_the_worker(
        self, tmp_path, out_dir, capsys, fake_cores, forks, monkeypatch
    ):
        config = tmp_path / "experiment.json"
        write_config(config, checks=self.CHECKS)
        fake_cores(1)
        alone = self.outputs(config, out_dir, capsys)
        assert forks == [] and alone[0] == 0 and "[PASS] lemma" in alone[1]
        fake_cores(2)
        assert self.outputs(config, out_dir, capsys) == alone
        assert len(forks) == 1
        monkeypatch.delattr(os, "fork")
        assert not engine.fork_usable()
        assert self.outputs(config, out_dir, capsys) == alone

    @pytest.mark.parametrize("raising, expected", [
        (["lemma"], "lemma"),
        (["descent", "lemma"], "descent"),
        (["lemma", "recurrence"], "recurrence"),
    ])
    def test_the_first_error_in_config_order_wins(
        self, raising, expected, tmp_path, out_dir, capsys, fake_cores, forks, monkeypatch,
        worker_first,
    ):
        # Each raising check type refuses with its own message.  The worker
        # takes the descent check, the lemma goes to whichever process takes
        # it next, and the caller judges the recurrence.
        for name in raising:
            def refuse(spec, _name=name, **run):
                raise UsageError(f"{_name} refused")

            monkeypatch.setitem(checks.CHECKS, name, checks.CHECKS[name]._replace(judge=refuse))
        config = tmp_path / "experiment.json"
        write_config(config, checks=self.CHECKS)
        fake_cores(1)
        alone = self.outputs(config, out_dir, capsys)
        assert alone[:3] == (2, "", f"config error: {expected} refused\n")
        fake_cores(2)
        worker_first()
        assert self.outputs(config, out_dir, capsys) == alone
        assert len(forks) == 1

    def test_a_diverging_run_kills_the_worker(self, tmp_path, out_dir, capsys, fake_cores, forks):
        config = tmp_path / "experiment.json"
        write_config(
            config,
            problem={"family": "shifted_quadratic", "curvature": 1.0, "center": [0.0],
                     "noise_halfwidth": 0.0},
            schedule={"kind": "constant", "rho": 3.0}, x0=[2.0], horizon=2000, replications=2,
            checks=[{"type": "descent", "points": 200, "samples": 100_000}],
        )
        fake_cores(2)
        assert main(["run", str(config)]) == 3
        assert capsys.readouterr().err.startswith("divergence: non-finite iterate")
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def reference_series_csv(rates, dn, bounds) -> bytes:
    """series.csv as written one format(v, ".17g") call per field."""

    def g17(value):
        return format(float(value), ".17g")

    lines = [CSV_HEADER]
    for n in range(dn.mean.shape[0]):
        lines.append(
            f"{n},{g17(rates[n])},{g17(dn.mean[n])},{g17(dn.stderr[n])},"
            f"{g17(bounds[n])},{g17(dn.in_region_fraction[n])}"
        )
    return ("\n".join(lines) + "\n").encode("utf-8")


class TestSeriesWriter:
    SPECIAL = [0.0, -0.0, 5e-324, 1.7976931348623157e308, np.inf, np.nan, 1.0 / 3.0]

    @pytest.mark.parametrize(
        "rows", [1, cli.SERIES_CHUNK_ROWS, 2 * cli.SERIES_CHUNK_ROWS + 3]
    )
    def test_matches_per_field_formatting(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        columns = []
        for j in range(5):
            values = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, size=rows)
            picks = rng.random(rows) < 0.3
            values[picks] = rng.choice(self.SPECIAL, size=int(picks.sum()))
            # Every special value in every column, at a different row each.
            span = min(rows, len(self.SPECIAL))
            values[:span] = np.roll(self.SPECIAL, j)[:span]
            columns.append(values)
        rates, mean, stderr, bounds, fraction = columns
        dn = DnSeries(
            seeds=(1,), mean=mean, stderr=stderr, in_region_fraction=fraction,
            final_x=np.zeros((1, 1)),
        )
        path = tmp_path / "series.csv"
        cli._write_series_csv(path, rates, dn, bounds)
        assert path.read_bytes() == reference_series_csv(rates, dn, bounds)


class TestRunPreflight:
    """Check/schedule mismatches known from the config stop a run before it starts."""

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (
                {"schedule": {"kind": "inverse_time", "scale": 1.0, "offset": 2.0}},
                "applies to constant schedules only",
            ),
            ({"schedule": {"kind": "constant", "rho": 1.0}}, "needs rho * mu < 1"),
            ({"window": 20002}, "window 20002 exceeds the horizon of 20000 steps"),
        ],
    )
    def test_neighborhood_mismatch_exits_two_before_running(
        self, tmp_path, out_dir, capsys, monkeypatch, overrides, message
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("replications started for a config that cannot be checked")

        monkeypatch.setattr(cli, "run_replications", refuse)
        overrides = dict(overrides)
        window = overrides.pop("window", 100)
        config = tmp_path / "experiment.json"
        write_config(
            config,
            horizon=20000,
            replications=200,
            checks=[{"type": "neighborhood", "window": window, "tol_rel": 0.2}],
            **overrides,
        )
        started = time.monotonic()
        assert main(["run", str(config)]) == 2
        assert time.monotonic() - started < 1.0
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert message in err
        assert not out_dir.exists()

    def test_lemma_outside_the_domain_exits_two_before_running(
        self, tmp_path, out_dir, capsys, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("replications started for a config that cannot be checked")

        monkeypatch.setattr(cli, "run_replications", refuse)
        config = tmp_path / "experiment.json"
        # rate(0) * mu = 1 / 1 * 1: the first factor of the product is zero.
        write_config(
            config,
            schedule={"kind": "inverse_time", "scale": 1.0, "offset": 1.0},
            horizon=20000,
            replications=200,
            checks=[{"type": "lemma", "n": 0, "k": 10}],
        )
        started = time.monotonic()
        assert main(["run", str(config)]) == 2
        assert time.monotonic() - started < 1.0
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "rate(0) * mu >= 1; every factor must stay positive" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "checks, overrides, message",
        [
            ([{"type": "telemetry"}], {}, "unknown check type 'telemetry' in checks[0]"),
            ([{"type": 3}], {}, "unknown check type '3' in checks[0]"),
            ([{"z": 3.0}], {}, "missing key 'type' in checks[0]"),
            ([{"type": "recurrence", "x": 1}], {}, "unknown key 'x' in checks[0]"),
            ([{"type": "lemma"}], {}, "missing key 'k' in checks[0]"),
            ([{"type": "convergence"}], {}, "missing key 'checkpoints' in checks[0]"),
            ([{"type": "convergence", "checkpoints": [[10, 1.0], [10, 0.5]]}], {},
             "'checkpoints' in checks[0]: checkpoints must be strictly increasing in step"),
            ([{"type": "convergence", "checkpoints": [[10, 1.0, 2.0]]}], {},
             "'checkpoints' in checks[0]: checkpoints must be (step, threshold) pairs"),
            ([{"type": "convergence", "checkpoints": []}], {},
             "'checkpoints' in checks[0]: at least one checkpoint is required"),
            ([{"type": "convergence", "checkpoints": [[51, 1.0]]}], {},
             "'checkpoints' in checks[0]: checkpoint step must be an integer in [0, 50]"),
            ([{"type": "neighborhood"}],
             {"schedule": {"kind": "inverse_time", "scale": 1.0, "offset": 2.0}},
             "the neighborhood check applies to constant schedules only"),
            ([{"type": "neighborhood"}], {"schedule": {"kind": "constant", "rho": 1.0}},
             "the neighborhood claim needs rho * mu < 1"),
            ([{"type": "neighborhood", "window": 52}], {},
             "window 52 exceeds the horizon of 50 steps"),
            ([{"type": "lemma", "n": 0, "k": 10}],
             {"schedule": {"kind": "inverse_time", "scale": 1.0, "offset": 1.0}},
             "rate(0) * mu >= 1; every factor must stay positive"),
        ],
    )
    def test_every_check_config_message_is_exact(
        self, tmp_path, out_dir, capsys, monkeypatch, checks, overrides, message
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("replications started for a config that cannot be checked")

        monkeypatch.setattr(cli, "run_replications", refuse)
        config = tmp_path / "experiment.json"
        write_config(config, checks=checks, **overrides)
        assert main(["run", str(config)]) == 2
        assert capsys.readouterr() == ("", f"config error: {message}\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("points, samples", [(1, 10**13), (10**13, 10_000)])
    def test_a_descent_check_too_large_to_allocate_exits_two_before_running(
        self, tmp_path, out_dir, capsys, monkeypatch, points, samples
    ):
        # 10**13 two-dimensional points or draws are 146 TiB: numpy refuses
        # them at once, so nothing of that size is ever allocated.
        def refuse(*args, **kwargs):
            raise AssertionError("replications started for a check that cannot run")

        monkeypatch.setattr(cli, "run_replications", refuse)
        config = tmp_path / "experiment.json"
        write_config(config, checks=[
            {"type": "recurrence"}, {"type": "descent", "points": points, "samples": samples},
        ])
        assert main(["run", str(config)]) == 2
        message = f"{points} points at {samples} draws each do not fit in memory"
        assert capsys.readouterr() == ("", f"config error: {message}\n")
        assert not out_dir.exists()

    def test_unusable_output_directory_exits_two_before_running(
        self, tmp_path, capsys, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("replications started without an output directory")

        monkeypatch.setattr(cli, "run_replications", refuse)
        taken = tmp_path / "taken"
        taken.write_text("not a directory", encoding="utf-8")
        monkeypatch.setenv(ENV_OUTPUT_DIR, str(taken))
        config = tmp_path / "experiment.json"
        write_config(config)
        assert main(["run", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot create output directory {taken}:")
        assert taken.read_text(encoding="utf-8") == "not a directory"

    @pytest.mark.parametrize("name", ["series.csv", "report.txt"])
    def test_an_output_file_that_cannot_be_written_exits_two(
        self, name, tmp_path, out_dir, capsys, monkeypatch
    ):
        # Both files are probed before any replication runs, and the probe
        # neither leaves the other file behind nor truncates it.
        def no_run(*args):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(cli, "run_replications", no_run)
        (out_dir / name).mkdir(parents=True)
        other = out_dir / ("report.txt" if name == "series.csv" else "series.csv")
        config = tmp_path / "experiment.json"
        write_config(config)
        for earlier in (None, "earlier output\n"):
            if earlier is not None:
                other.write_text(earlier, encoding="utf-8")
            assert main(["run", str(config)]) == 2
            captured = capsys.readouterr()
            assert captured.err == f"config error: cannot write {out_dir / name}: Is a directory\n"
            assert captured.out == ""
            assert (out_dir / name).is_dir()
            if earlier is None:
                assert not other.exists()
            else:
                assert other.read_text(encoding="utf-8") == earlier

    @pytest.mark.parametrize("horizon", [2**50, 2**62])
    def test_a_horizon_too_long_to_allocate_exits_two(self, tmp_path, out_dir, capsys, horizon):
        # 2**62 steps are more than a numpy array holds; the 2**50 steps of
        # the statistics buffer are more than any overcommit setting maps.
        config = tmp_path / "experiment.json"
        write_config(config, horizon=horizon)
        started = time.monotonic()
        assert main(["run", str(config)]) == 2
        assert time.monotonic() - started < 1.0
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert f"{horizon} steps of 20 replications do not fit in memory" in err

    def test_replications_too_many_to_seed_exit_two(self, tmp_path, out_dir, capsys, monkeypatch):
        # 2**63 seeds are more than a numpy array holds, so the run is refused
        # before one seed is derived, not after a list of them has grown.
        def refuse(*args):
            raise AssertionError("a seed was derived for a run that cannot fit")

        monkeypatch.setattr(engine, "derive_seed", refuse)
        config = tmp_path / "experiment.json"
        write_config(config, replications=2**63)
        assert main(["run", str(config)]) == 2
        assert capsys.readouterr().err == (
            f"config error: 50 steps of {2**63} replications do not fit in memory\n"
        )

    def test_window_of_the_whole_horizon_still_runs(self, tmp_path, out_dir):
        config = tmp_path / "experiment.json"
        write_config(config, checks=[{"type": "neighborhood", "window": 51, "tol_rel": 0.2}])
        assert main(["run", str(config)]) in (0, 1)
        assert (out_dir / "report.txt").exists()


class TestVerifyCommand:
    def test_passing_verify(self, tmp_path, capsys):
        config = tmp_path / "experiment.json"
        write_config(config, verify={"audit_samples": 2000, "gradient_checks": 200})
        assert main(["verify", str(config)]) == 0
        stdout = capsys.readouterr().out
        assert "[PASS] certificate_audit" in stdout
        assert "[PASS] gradient_check" in stdout

    def test_finite_sum_verify(self, tmp_path, capsys):
        config = tmp_path / "experiment.json"
        write_config(
            config,
            problem={
                "family": "finite_sum_least_squares",
                "design_rows": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                "targets": [1.0, 0.0, 1.0],
            },
            x0=[0.0, 0.0],
            region_radius=1.5,
            verify={"audit_samples": 2000, "gradient_checks": 200},
        )
        assert main(["verify", str(config)]) == 0
        assert "[PASS] certificate_audit" in capsys.readouterr().out


LEAST_SQUARES = {
    "family": "finite_sum_least_squares",
    "design_rows": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
    "targets": [1.0, 0.0, 1.0],
}


def g17_text(value) -> str:
    """A witness part as verify prints it: an index, or a vector of %.17g."""
    if np.ndim(value) == 0:
        return str(int(value))
    return "[" + ", ".join(format(float(v), ".17g") for v in value) + "]"


class TestVerifyFailures:
    def test_nan_is_never_a_pass(self, tmp_path, capsys):
        # The losses overflow, so every slack and finite difference is NaN.
        config = tmp_path / "experiment.json"
        write_config(
            config,
            problem={
                "family": "shifted_quadratic",
                "curvature": 1e-160,
                "center": [0.0, 0.0],
                "noise_halfwidth": 0.5,
            },
            x0=[0.0, 0.0],
            region_radius=1e155,
            verify={"audit_samples": 1000, "gradient_checks": 1000},
        )
        assert main(["verify", str(config)]) == 1
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("[FAIL] certificate_audit: samples=1000, ")
        assert lines[0].endswith("min_convexity_slack=nan, violations=1000")
        assert lines[1].startswith("  convexity_witness: x=[")
        assert lines[2] == "[FAIL] gradient_check: samples=1000, max_rel_error=nan, tolerance=1e-06"
        assert captured.err == ""

    @pytest.mark.parametrize("family", ["quadratic", "finite_sum"])
    def test_failed_audit_prints_its_witness(self, family, tmp_path, capsys, monkeypatch):
        config = tmp_path / "experiment.json"
        overrides = {} if family == "quadratic" else {
            "problem": LEAST_SQUARES, "x0": [0.0, 0.0], "region_radius": 1.5,
        }
        write_config(config, verify={"audit_samples": 2000, "gradient_checks": 200}, **overrides)
        kind = ShiftedQuadratic if family == "quadratic" else FiniteSumLeastSquares
        certify = kind.certify

        def halved_bound(self, region_radius, x0):
            cert = certify(self, region_radius, x0)
            return dataclasses.replace(cert, grad_sq_bound=cert.grad_sq_bound * 0.5)

        monkeypatch.setattr(kind, "certify", halved_bound)
        assert main(["verify", str(config)]) == 1
        lines = capsys.readouterr().out.splitlines()

        cfg = load_config(config)
        problem = build_problem(cfg.problem)
        cert = problem.certify(cfg.region_radius, cfg.x0)
        audit = audit_certificate(problem, cert, 2000, aux_generator(cfg.master_seed, 2))
        assert audit.grad_violations > 0 and audit.convexity_witness is None
        noise, x = audit.grad_witness
        assert len(lines) == 3
        assert lines[0].startswith("[FAIL] certificate_audit: samples=2000, ")
        assert lines[1] == f"  grad_witness: noise={g17_text(noise)}, x={g17_text(x)}"
        assert lines[2].startswith("[PASS] gradient_check")
        printed_x = [float(v) for v in lines[1].split("x=[")[1].rstrip("]").split(", ")]
        assert printed_x == x.tolist()


class TestCertifyOverflow:
    @pytest.mark.parametrize("command", ["run", "verify"])
    @pytest.mark.parametrize("problem", [
        {"family": "shifted_quadratic", "curvature": 1e200, "center": [0.0, 0.0],
         "noise_halfwidth": 0.5},
        {"family": "finite_sum_least_squares",
         "design_rows": [[1e100, 0.0], [0.0, 1e100], [1e100, 1e100]], "targets": [1.0, 0.0, 1.0]},
    ])
    def test_exits_two_naming_the_bound(self, command, problem, tmp_path, out_dir, capsys):
        config = tmp_path / "experiment.json"
        write_config(config, problem=problem, x0=[0.0, 0.0], region_radius=1.0)
        assert main([command, str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: grad_sq_bound = ")
        assert "is not a finite double" in err
        assert not out_dir.exists()


class TestNoiseWidthOverflow:
    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_exits_two_naming_the_halfwidth(self, command, tmp_path, out_dir, capsys):
        # uniform(-hw, hw) needs the width 2 * hw as a finite double.
        config = tmp_path / "experiment.json"
        problem = {"family": "shifted_quadratic", "curvature": 1e-300, "center": [0.0, 0.0],
                   "noise_halfwidth": 1e308}
        write_config(config, problem=problem, x0=[0.5, 0.0], region_radius=1.0,
                     replications=4, horizon=10, master_seed=5)
        assert main([command, str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: 'noise_halfwidth' 1e+308 is too large")
        assert not out_dir.exists()


class TestLemmaCommand:
    def test_inverse_time_telescopes(self, capsys):
        code = main(
            [
                "lemma",
                "--kind", "inverse_time",
                "--scale", "1.0",
                "--offset", "1.0",
                "--mu", "1.0",
                "--n", "1",
                "--k", "8",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        values = dict(line.split("=", 1) for line in lines[:3])
        assert float(values["product"]) == pytest.approx(0.1, rel=1e-12)
        assert float(values["oracle"]) == 0.1
        assert float(values["product"]) <= float(values["majorant"])
        assert lines[3].startswith("[PASS] lemma")

    def test_constant_power(self, capsys):
        code = main(["lemma", "--kind", "constant", "--rho", "0.1", "--mu", "1.0",
                     "--n", "0", "--k", "0"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        values = dict(line.split("=", 1) for line in lines[:3])
        assert float(values["product"]) == pytest.approx(0.9, rel=1e-12)
        assert float(values["oracle"]) == pytest.approx(0.9, rel=1e-15)

    def test_out_of_domain_exits_two(self, capsys):
        code = main(["lemma", "--kind", "constant", "--rho", "1.0", "--mu", "1.0",
                     "--n", "0", "--k", "0"])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_missing_kind_argument_exits_two(self, capsys):
        code = main(["lemma", "--kind", "constant", "--mu", "1.0", "--n", "0", "--k", "0"])
        assert code == 2
        assert capsys.readouterr().err == "config error: --rho is required for the constant kind\n"
        assert main(["lemma", "--kind", "inverse_time", "--offset", "1", "--mu", "1.0", "--n", "0",
                     "--k", "0"]) == 2
        assert capsys.readouterr().err == (
            "config error: --scale and --offset are required for inverse_time\n"
        )

    def test_a_first_rate_that_overflows_exits_two(self, capsys):
        with warnings.catch_warnings():
            # A warning would print to stderr instead of raising.
            warnings.simplefilter("always")
            code = main(["lemma", "--kind", "inverse_time", "--scale", "1e308", "--offset",
                         "1e-300", "--mu", "1e-300", "--n", "0", "--k", "10"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("config error: the first rate 'scale' / 'offset' = "
                                "1e+308 / 1e-300 is not a finite double\n")

    def test_a_flag_of_another_kind_exits_two(self, capsys):
        code = main(["lemma", "--kind", "constant", "--rho", "0.1", "--scale", "5", "--offset",
                     "1", "--mu", "1", "--n", "0", "--k", "3"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: --scale is not a parameter of the constant kind\n"


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: a recurrence check that judged only step 0 passes",
)
def test_unstable_run_that_checks_one_step_does_not_pass(tmp_path, out_dir, capsys):
    # rho * max_i ||a_i||^2 is about 6.6: the mean squared distance grows to
    # about 5e154 and some replication is outside the ball at every step
    # after step 0.  The recurrence check judges step 0 alone, prints
    # [PASS], and the run exits 0.
    rng = np.random.default_rng(0)
    design = rng.standard_normal((32, 8))
    targets = rng.standard_normal(32)
    config = tmp_path / "unstable.json"
    write_config(
        config,
        problem={
            "family": "finite_sum_least_squares",
            "design_rows": design.tolist(),
            "targets": targets.tolist(),
        },
        schedule={"kind": "constant", "rho": 0.3},
        x0=[0.0] * 8,
        region_radius=0.5,
        horizon=2000,
        replications=200,
        master_seed=7,
        checks=[{"type": "recurrence"}],
    )
    assert main(["run", str(config)]) != 0
