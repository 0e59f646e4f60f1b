"""End-to-end tests for the command line interface and its file outputs."""
import json
import time

import numpy as np
import pytest

from sgdcheck import (
    bound_sequence,
    build_problem,
    build_schedule,
    estimate_dn,
    run_replications,
)
from sgdcheck import cli
from sgdcheck.cli import CSV_HEADER, ENV_OUTPUT_DIR, main


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
        dn = estimate_dn(run_replications(problem, schedule, [2.0, 0.0], 30, cert, 7, 5))
        bounds = bound_sequence(float(dn.mean[0]), schedule, cert, 30)

        rows = (out_dir / "series.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert len(rows) == 31
        for n, row in enumerate(rows):
            fields = row.split(",")
            assert int(fields[0]) == n
            assert float(fields[1]) == schedule.rate(n)
            assert float(fields[2]) == dn.mean[n]
            assert float(fields[3]) == dn.stderr[n]
            assert float(fields[4]) == bounds.values[n]
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
        assert "--rho" in capsys.readouterr().err
