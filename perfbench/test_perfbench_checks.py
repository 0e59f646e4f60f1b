"""The benchmark's output checks accept the program's outputs and reject corrupted ones.

Run with `python3 -m pytest perfbench` from the repository root.
"""
import contextlib
import io
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

import oracle
import run
import workloads

cli, _ = run.import_program()


def small(config: dict) -> dict:
    return dict(
        config,
        replications=400,
        horizon=300,
        checks=[{"type": "recurrence", "z": 3.0}, {"type": "lemma", "n": 1, "k": 50}],
        verify={"audit_samples": 2000, "gradient_checks": 500},
    )


def sgdcheck(command: str, config: dict, tmp_path: Path, monkeypatch) -> tuple[int, str]:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    monkeypatch.setenv(cli.ENV_OUTPUT_DIR, str(tmp_path))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main([command, str(path)])
    return code, stdout.getvalue()


@pytest.fixture(scope="module", params=["quad-wide", "ls-long"])
def outputs(request, tmp_path_factory):
    workload = workloads.WORKLOADS[request.param](3)
    config = small(workload.main)
    tmp_path = tmp_path_factory.mktemp(request.param)
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert sgdcheck("run", config, tmp_path, monkeypatch)[0] == 0
        code, verify_out = sgdcheck("verify", config, tmp_path, monkeypatch)
    assert code == 0
    series = (tmp_path / "series.csv").read_text(encoding="utf-8")
    report = (tmp_path / "report.txt").read_text(encoding="utf-8")
    return config, oracle.expected_series(config), series, report, verify_out


def edit_field(series: str, row: int, column: int, change) -> str:
    lines = series.split("\n")
    fields = lines[row + 1].split(",")
    fields[column] = format(change(float(fields[column])), ".17g")
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines)


def test_genuine_outputs_pass(outputs):
    config, expected, series, report, verify_out = outputs
    assert oracle.check_series(series, config, expected) == []
    assert oracle.check_report(report, config, expected) == []
    assert oracle.check_verify_output(verify_out, config) == []


def _stderr(series: str, row: int) -> float:
    return float(series.split("\n")[row + 1].split(",")[3])


@pytest.mark.parametrize(
    "corrupt",
    [
        pytest.param(lambda s: s.replace("n,rho_n", "n,rate", 1), id="header"),
        pytest.param(lambda s: s.rstrip("\n"), id="final-newline"),
        pytest.param(lambda s: "\n".join(s.split("\n")[:-2]) + "\n", id="missing-row"),
        pytest.param(lambda s: edit_field(s, 0, 2, lambda v: v * (1 + 1e-6)), id="d0"),
        pytest.param(lambda s: edit_field(s, 0, 3, lambda v: 1e-3), id="stderr0"),
        pytest.param(
            lambda s: edit_field(s, 150, 2, lambda v: v + 12 * _stderr(s, 150)), id="d_hat-high"
        ),
        pytest.param(
            lambda s: edit_field(s, 40, 2, lambda v: v - 12 * _stderr(s, 40)), id="d_hat-low"
        ),
        pytest.param(lambda s: edit_field(s, 7, 1, lambda v: v * (1 + 1e-9)), id="rho_n"),
        pytest.param(lambda s: edit_field(s, 300, 4, lambda v: v * (1 + 1e-6)), id="bound_b_n"),
        pytest.param(lambda s: edit_field(s, 5, 3, lambda v: 0.0), id="zero-stderr"),
        pytest.param(lambda s: edit_field(s, 9, 5, lambda v: 0.5 + 1 / 1024), id="in-region"),
    ],
)
def test_corrupted_series_is_rejected(outputs, corrupt):
    config, expected, series, _, _ = outputs
    assert oracle.check_series(corrupt(series), config, expected) != []


@pytest.mark.parametrize(
    "corrupt",
    [
        pytest.param(lambda r: r.replace("[PASS] recurrence", "[FAIL] recurrence"), id="fail-line"),
        pytest.param(lambda r: r.replace("overall: PASS", "overall: FAIL"), id="overall"),
        pytest.param(lambda r: r.replace("grad_sq_bound=", "grad_sq_bound=1"), id="constant"),
        pytest.param(lambda r: r.replace("replications=400", "replications=40"), id="run-line"),
        pytest.param(
            lambda r: "\n".join(line for line in r.split("\n") if "lemma" not in line),
            id="missing-check",
        ),
    ],
)
def test_corrupted_report_is_rejected(outputs, corrupt):
    config, expected, _, report, _ = outputs
    assert oracle.check_report(corrupt(report), config, expected) != []


@pytest.mark.parametrize(
    "corrupt",
    [
        pytest.param(lambda v: v.replace("samples=2000", "samples=200"), id="audit-count"),
        pytest.param(lambda v: v.replace("[PASS] gradient", "[FAIL] gradient"), id="fail"),
        pytest.param(lambda v: v.split("\n")[0], id="missing-line"),
    ],
)
def test_corrupted_verify_output_is_rejected(outputs, corrupt):
    config, _, _, _, verify_out = outputs
    assert oracle.check_verify_output(corrupt(verify_out), config) != []


def test_least_squares_moments_match_enumeration():
    """E d_n from the moment recursion equals the average over every row sequence."""
    design = np.array([[1.0, 0.5], [-0.25, 1.5], [0.75, -1.0]])
    targets = np.array([0.5, -1.0, 2.0])
    config = {
        "problem": {"family": "finite_sum_least_squares",
                    "design_rows": design.tolist(), "targets": targets.tolist()},
        "schedule": {"kind": "inverse_time", "scale": 0.9, "offset": 2.0},
        "x0": [1.0, -2.0],
        "horizon": 5,
        "region_radius": 10.0,
    }
    expected = oracle.expected_series(config)
    x_star = np.linalg.lstsq(design, targets, rcond=None)[0]
    rates = 0.9 / (2.0 + np.arange(5))
    for steps in range(6):
        total = 0.0
        for rows in itertools.product(range(3), repeat=steps):
            x = np.array(config["x0"])
            for n, i in enumerate(rows):
                x = x - rates[n] * design[i] * (design[i] @ x - targets[i])
            total += float((x - x_star) @ (x - x_star))
        assert expected.mean_dn[steps] == pytest.approx(total / 3**steps, rel=1e-12)


def test_quadratic_closed_form_matches_recursion():
    config = small(workloads.quad_wide(5).main)
    expected = oracle.expected_series(config)
    c, rho = 1.0, 0.01
    s2 = 2 * 0.5**2 / 3.0
    value = expected.d0
    for n in range(1, config["horizon"] + 1):
        value = (1 - rho * c) ** 2 * value + rho**2 * c**2 * s2
        assert expected.mean_dn[n] == pytest.approx(value, rel=1e-12)


def test_workloads_depend_only_on_the_seed():
    for make in workloads.WORKLOADS.values():
        first, again, other = make(11), make(11), make(12)
        assert first.main == again.main and first.alt == again.alt
        assert first.main["master_seed"] != first.alt["master_seed"]
        assert first.main["problem"] != other.main["problem"]


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
