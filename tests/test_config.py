"""Tests for strict config parsing, defaults, and round-tripping."""
import dataclasses
import json

import pytest

from sgdcheck import (
    ConfigurationError,
    ConstantSchedule,
    FiniteSumLeastSquares,
    InverseTimeSchedule,
    ShiftedQuadratic,
    build_problem,
    build_schedule,
    load_config,
    parse_config,
    serialize_config,
)
from sgdcheck.cli import main
from sgdcheck.schedule import KINDS


def base_document(**overrides):
    document = {
        "problem": {
            "family": "shifted_quadratic",
            "curvature": 1.0,
            "center": [0.0, 0.0],
            "noise_halfwidth": 0.5,
        },
        "schedule": {"kind": "constant", "rho": 0.05},
        "x0": [2.0, 0.0],
        "horizon": 100,
        "replications": 10,
        "master_seed": 7,
        "region_radius": 2.0,
    }
    document.update(overrides)
    return document


def parse(document):
    return parse_config(json.dumps(document))


class TestParsing:
    def test_minimal_document(self):
        config = parse(base_document())
        assert config.horizon == 100
        assert config.replications == 10
        assert config.master_seed == 7
        assert config.region_radius == 2.0
        assert config.checks == []
        assert config.output is None
        assert config.verify == {"audit_samples": 10_000, "gradient_checks": 1000}

    def test_rejects_invalid_json(self):
        with pytest.raises(ConfigurationError, match="invalid JSON"):
            parse_config("{not json")

    def test_unknown_top_level_key_is_named(self):
        with pytest.raises(ConfigurationError, match="'stepsize'"):
            parse(base_document(stepsize=0.1))

    def test_missing_key_is_named(self):
        document = base_document()
        del document["region_radius"]
        with pytest.raises(ConfigurationError, match="'region_radius'"):
            parse(document)

    def test_unknown_problem_key_is_named(self):
        document = base_document()
        document["problem"]["sigma"] = 1.0
        with pytest.raises(ConfigurationError, match="'sigma' in problem"):
            parse(document)

    def test_unknown_schedule_key_is_named(self):
        document = base_document()
        document["schedule"]["decay"] = 1.0
        with pytest.raises(ConfigurationError, match="'decay' in schedule"):
            parse(document)

    def test_unknown_check_key_is_named(self):
        document = base_document(checks=[{"type": "recurrence", "zz": 3.0}])
        with pytest.raises(ConfigurationError, match=r"'zz' in checks\[0\]"):
            parse(document)

    def test_single_replication_rejected_by_name(self):
        with pytest.raises(ConfigurationError, match="'replications'"):
            parse(base_document(replications=1))

    def test_bad_types_rejected(self):
        with pytest.raises(ConfigurationError, match="'horizon'"):
            parse(base_document(horizon=10.5))
        with pytest.raises(ConfigurationError, match="'horizon'"):
            parse(base_document(horizon=True))
        with pytest.raises(ConfigurationError, match="'master_seed'"):
            parse(base_document(master_seed=-1))
        with pytest.raises(ConfigurationError, match="'master_seed'"):
            parse(base_document(master_seed=2**64))
        with pytest.raises(ConfigurationError, match="'region_radius'"):
            parse(base_document(region_radius=0.0))
        with pytest.raises(ConfigurationError, match="'x0'"):
            parse(base_document(x0=[]))
        with pytest.raises(ConfigurationError, match="'x0'"):
            parse(base_document(x0=[1.0, None]))

    def test_unknown_family_and_kind(self):
        with pytest.raises(ConfigurationError) as info:
            parse(base_document(problem={"family": "cubic"}))
        assert str(info.value) == "unknown problem family 'cubic' in problem"
        with pytest.raises(ConfigurationError) as info:
            parse(base_document(schedule={"kind": "step_decay"}))
        assert str(info.value) == "unknown schedule kind 'step_decay' in schedule"

    @pytest.mark.parametrize("overrides, message", [
        ({"problem": 5}, "problem must be an object"),
        ({"schedule": [1]}, "schedule must be an object"),
        ({"checks": [3]}, "checks[0] must be an object"),
        ({"verify": 2}, "verify must be an object"),
    ])
    def test_a_section_that_is_not_an_object_says_so(self, overrides, message):
        with pytest.raises(ConfigurationError) as info:
            parse(base_document(**overrides))
        assert str(info.value) == message

    def test_checks_are_read_after_the_other_sections(self):
        # A check's keys depend on the horizon, so the checks are read once
        # the rest of the config is; that the checks are a list is read in
        # its place.
        bad_check = [{"type": "telemetry"}]
        for overrides, message in [
            ({"problem": {"family": "cubic"}}, "unknown problem family 'cubic' in problem"),
            ({"schedule": {"kind": "constant"}}, "missing key 'rho' in schedule"),
            ({"output": 3}, "'output' in config must be a string path"),
            ({"verify": {"x": 1}}, "unknown key 'x' in verify"),
            ({"checks": {}, "output": 3}, "'checks' in config must be a list"),
            ({"horizon": 0}, "'horizon' in config must be an integer >= 1"),
        ]:
            with pytest.raises(ConfigurationError) as info:
                parse(base_document(**({"checks": bad_check} | overrides)))
            assert str(info.value) == message

    @pytest.mark.parametrize("kind", [["constant"], {"constant": 1}, 1, None])
    def test_a_kind_that_is_not_a_string_is_unknown(self, kind):
        with pytest.raises(ConfigurationError, match="unknown schedule kind"):
            parse(base_document(schedule={"kind": kind, "rho": 0.05}))

    def test_finite_sum_document(self):
        document = base_document(
            problem={
                "family": "finite_sum_least_squares",
                "design_rows": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                "targets": [1.0, 0.0, 1.0],
            }
        )
        config = parse(document)
        problem = build_problem(config.problem)
        assert isinstance(problem, FiniteSumLeastSquares)
        assert problem.dimension == 2

    def test_ragged_design_rows_are_named(self):
        document = base_document(
            problem={
                "family": "finite_sum_least_squares",
                "design_rows": [[1.0, 0.0], [0.0, 1.0, 2.0], [1.0, 1.0]],
                "targets": [1.0, 0.0, 1.0],
            }
        )
        with pytest.raises(ConfigurationError, match="'design_rows' in problem .*equal length"):
            parse(document)


class TestChecks:
    def test_defaults_are_filled_in(self):
        document = base_document(
            checks=[
                {"type": "recurrence"},
                {"type": "neighborhood"},
                {"type": "descent"},
            ]
        )
        config = parse(document)
        assert config.checks[0] == {"type": "recurrence", "z": 3.0}
        # horizon 100: the default window min(max(100, 10), 101) is 100.
        assert config.checks[1] == {"type": "neighborhood", "window": 100, "tol_rel": 0.2}
        assert config.checks[2] == {"type": "descent", "points": 10, "samples": 10_000}

    def test_lemma_requires_both_indices(self):
        with pytest.raises(ConfigurationError, match=r"'k' in checks\[0\]"):
            parse(base_document(checks=[{"type": "lemma", "n": 1}]))
        config = parse(base_document(checks=[{"type": "lemma", "n": 1, "k": 8}]))
        assert config.checks[0] == {"type": "lemma", "n": 1, "k": 8}

    def test_checkpoint_validation(self):
        def convergence(points):
            return base_document(checks=[{"type": "convergence", "checkpoints": points}])

        assert parse(convergence([[50, 1.0], [100, 0.5]])).checks[0]["checkpoints"] == [
            [50, 1.0],
            [100, 0.5],
        ]
        with pytest.raises(ConfigurationError, match="strictly increasing"):
            parse(convergence([[50, 1.0], [50, 0.5]]))
        with pytest.raises(ConfigurationError, match=r"\[0, 100\]"):
            parse(convergence([[101, 1.0]]))
        with pytest.raises(ConfigurationError,
                           match="checkpoint threshold must be a finite positive real"):
            parse(convergence([[50, -1.0]]))
        with pytest.raises(ConfigurationError):
            parse(convergence([]))

    def test_unknown_check_type(self):
        with pytest.raises(ConfigurationError, match="unknown check type"):
            parse(base_document(checks=[{"type": "telemetry"}]))

    def test_descent_sample_floor(self):
        with pytest.raises(ConfigurationError, match=r"'samples' in checks\[0\]"):
            parse(base_document(checks=[{"type": "descent", "samples": 50}]))


# A JSON integer too large for a double.
HUGE = 10**400


class TestIntegersTooLargeForAFloat:
    """Such an integer is refused by key name, not with a traceback."""

    @pytest.mark.parametrize("overrides, key", [
        ({"schedule": {"kind": "constant", "rho": HUGE}}, "'rho' in schedule"),
        ({"problem": {"family": "shifted_quadratic", "curvature": 1.0, "center": [0.0, HUGE],
                      "noise_halfwidth": 0.5}}, "'center' in problem"),
        ({"problem": {"family": "finite_sum_least_squares",
                      "design_rows": [[1.0, 0.0], [0.0, HUGE]], "targets": [0.0, 1.0]}},
         "'design_rows' in problem"),
    ], ids=["rho", "center", "design_rows"])
    def test_is_named(self, overrides, key):
        with pytest.raises(ConfigurationError, match=f"{key} must .*finite"):
            parse(base_document(**overrides))

    def test_run_exits_two(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(base_document(schedule={"kind": "constant", "rho": HUGE})),
                        encoding="utf-8")
        assert main(["run", str(path)]) == 2
        assert "'rho' in schedule must be a finite positive real" in capsys.readouterr().err


class TestDuplicateKeys:
    """A key repeated in one JSON object is refused by name, not overwritten."""

    CASES = {
        "top-level": ('"horizon": 100', '"horizon": 500, "horizon": 3', "'horizon'"),
        "problem": ('"curvature": 1.0', '"curvature": 1.0, "curvature": 50.0', "'curvature'"),
        "check": ('"z": 2.0', '"z": 2.0, "z": 9.0', "'z'"),
    }

    @staticmethod
    def repeated(case):
        found, replacement, _ = TestDuplicateKeys.CASES[case]
        text = json.dumps(base_document(checks=[{"type": "recurrence", "z": 2.0}]))
        assert text.count(found) == 1
        return text.replace(found, replacement)

    @pytest.mark.parametrize("case", CASES)
    def test_is_named(self, case):
        with pytest.raises(ConfigurationError, match=f"duplicate key {self.CASES[case][2]}"):
            parse_config(self.repeated(case))

    @pytest.mark.parametrize("case", CASES)
    def test_run_exits_two(self, case, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SGDCHECK_OUTPUT_DIR", str(tmp_path / "out"))
        path = tmp_path / "repeated.json"
        path.write_text(self.repeated(case), encoding="utf-8")
        assert main(["run", str(path)]) == 2
        assert f"duplicate key {self.CASES[case][2]}" in capsys.readouterr().err

    def test_equal_keys_in_different_objects_are_allowed(self):
        document = base_document(checks=[{"type": "recurrence"}, {"type": "neighborhood"}])
        assert [check["type"] for check in parse(document).checks] == ["recurrence", "neighborhood"]


class TestRoundTrip:
    def test_serialize_then_parse_is_identity(self):
        document = base_document(
            checks=[
                {"type": "recurrence", "z": 5.0},
                {"type": "neighborhood", "window": 50, "tol_rel": 0.1},
                {"type": "convergence", "checkpoints": [[50, 1.0]]},
                {"type": "lemma", "n": 1, "k": 8},
            ],
            output="results",
            verify={"audit_samples": 500},
        )
        config = parse(document)
        again = parse_config(serialize_config(config))
        assert again == config
        assert serialize_config(again) == serialize_config(config)

    def test_load_config_reads_files(self, tmp_path):
        path = tmp_path / "experiment.json"
        path.write_text(json.dumps(base_document()), encoding="utf-8")
        config = load_config(path)
        assert config.horizon == 100
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_config(tmp_path / "missing.json")
        # A UTF-16 byte order mark is not UTF-8.
        path.write_bytes(b"\xff\xfe" + json.dumps(base_document()).encode("utf-16-le"))
        with pytest.raises(ConfigurationError, match="cannot read config file: .*utf-8"):
            load_config(path)


class TestBuilders:
    def test_build_problem_quadratic(self):
        config = parse(base_document())
        problem = build_problem(config.problem)
        assert isinstance(problem, ShiftedQuadratic)
        assert problem.curvature == 1.0
        assert problem.noise_halfwidth == 0.5

    def test_build_schedule(self):
        config = parse(base_document())
        sched = build_schedule(config.schedule)
        assert isinstance(sched, ConstantSchedule)
        assert sched.rho == 0.05
        config = parse(base_document(schedule={"kind": "inverse_time", "scale": 1.0, "offset": 9.0}))
        sched = build_schedule(config.schedule)
        assert isinstance(sched, InverseTimeSchedule)
        assert sched.rates(1, 1)[0] == pytest.approx(0.1)


@pytest.mark.parametrize("kind", list(KINDS))
def test_every_schedule_kind_is_read_built_reported_and_flagged(kind, tmp_path, monkeypatch,
                                                                  capsys):
    names = [parameter.name for parameter in dataclasses.fields(KINDS[kind])]
    values = {name: 0.5 + i for i, name in enumerate(names)}
    config = parse(base_document(schedule={"kind": kind} | values))
    assert config.schedule == {"kind": kind} | values
    schedule = build_schedule(config.schedule)
    assert type(schedule) is KINDS[kind]
    assert dataclasses.asdict(schedule) == values

    monkeypatch.setenv("SGDCHECK_OUTPUT_DIR", str(tmp_path / "out"))
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(base_document(schedule={"kind": kind} | values)), encoding="utf-8")
    assert main(["run", str(path)]) == 0
    report = (tmp_path / "out" / "report.txt").read_text(encoding="utf-8").splitlines()
    parameters = ", ".join(f"{name}={value:g}" for name, value in values.items())
    assert report[2].startswith(f"schedule: {kind} ({parameters}), ")

    # lemma takes exactly the kind's parameters as flags.
    lemma = ["lemma", "--kind", kind, "--mu", "1.0", "--n", "0", "--k", "3"]
    flags = [arg for name, value in values.items() for arg in (f"--{name}", str(value))]
    capsys.readouterr()
    assert main(lemma + flags) == 0
    for i in range(0, len(flags), 2):
        assert main(lemma + flags[:i] + flags[i + 2:]) == 2
        assert "required" in capsys.readouterr().err
    others = {parameter.name for cls in KINDS.values() for parameter in dataclasses.fields(cls)}
    for other in sorted(others - set(names)):
        assert main(lemma + flags + [f"--{other}", "1.0"]) == 2
        assert capsys.readouterr().err == (
            f"config error: --{other} is not a parameter of the {kind} kind\n"
        )
