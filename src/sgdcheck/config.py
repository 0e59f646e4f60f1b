"""Experiment configuration: strict parsing, validation, and construction.

Configs are JSON objects.  Unknown keys are rejected at every level and every
error message names the offending key, so a typo never silently changes an
experiment.  Parsing normalizes the document (defaults filled in, numbers
coerced to their declared kinds); a normalized config round-trips through
``serialize_config`` unchanged.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .analyzer import validate_checkpoints
from .errors import (
    UINT64_MAX,
    ConfigurationError,
    UsageError,
    require_int,
    require_real,
    require_vector,
)
from .objective import FiniteSumLeastSquares, ShiftedQuadratic, StochasticProblem, design_rows
from .schedule import ConstantSchedule, InverseTimeSchedule, Schedule

DEFAULT_RECURRENCE_Z = 3.0
DEFAULT_NEIGHBORHOOD_TOL = 0.2
DEFAULT_DESCENT_POINTS = 10
DEFAULT_DESCENT_SAMPLES = 10_000
DEFAULT_AUDIT_SAMPLES = 10_000
DEFAULT_GRADIENT_CHECKS = 1_000


@dataclass
class ExperimentConfig:
    problem: dict
    schedule: dict
    x0: list[float]
    horizon: int
    replications: int
    master_seed: int
    region_radius: float
    checks: list[dict] = field(default_factory=list)
    output: str | None = None
    verify: dict = field(default_factory=dict)


def _check_keys(obj: dict, where: str, required: set[str], optional: set[str]) -> None:
    if not isinstance(obj, dict):
        raise ConfigurationError(f"{where} must be an object")
    for key in obj:
        if key not in required and key not in optional:
            raise ConfigurationError(f"unknown key '{key}' in {where}")
    for key in sorted(required):
        if key not in obj:
            raise ConfigurationError(f"missing key '{key}' in {where}")


def _parse_problem(spec) -> dict:
    where = "problem"
    if not isinstance(spec, dict) or "family" not in spec:
        raise ConfigurationError("missing key 'family' in problem")
    family = spec["family"]
    if family == "shifted_quadratic":
        _check_keys(spec, where, {"family", "curvature", "center", "noise_halfwidth"}, set())
        return {
            "family": family,
            "curvature": require_real(spec["curvature"], "'curvature' in problem",
                                      error=ConfigurationError),
            "center": require_vector(spec["center"], "'center' in problem"),
            "noise_halfwidth": require_real(spec["noise_halfwidth"],
                                            "'noise_halfwidth' in problem", strict=False,
                                            error=ConfigurationError),
        }
    if family == "finite_sum_least_squares":
        _check_keys(spec, where, {"family", "design_rows", "targets"}, set())
        return {
            "family": family,
            "design_rows": design_rows(spec["design_rows"], "'design_rows' in problem"),
            "targets": require_vector(spec["targets"], "'targets' in problem"),
        }
    raise ConfigurationError(f"unknown problem family '{family}'")


def _parse_schedule(spec) -> dict:
    where = "schedule"
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigurationError("missing key 'kind' in schedule")
    kind = spec["kind"]
    kinds = {"constant": ("rho",), "inverse_time": ("scale", "offset")}
    keys = kinds.get(kind) if isinstance(kind, str) else None
    if keys is None:
        raise ConfigurationError(f"unknown schedule kind '{kind}'")
    _check_keys(spec, where, {"kind", *keys}, set())
    return {"kind": kind} | {
        key: require_real(spec[key], f"'{key}' in {where}", error=ConfigurationError)
        for key in keys
    }


def _parse_checkpoints(value, where: str, horizon: int) -> list[list]:
    try:
        points = validate_checkpoints(value, horizon)
    except UsageError as err:
        raise ConfigurationError(f"'checkpoints' in {where}: {err}") from None
    return [[n, threshold] for n, threshold in points]


def _parse_check(spec, index: int, horizon: int) -> dict:
    where = f"checks[{index}]"
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigurationError(f"missing key 'type' in {where}")
    kind = spec["type"]
    if kind == "recurrence":
        _check_keys(spec, where, {"type"}, {"z"})
        z = require_real(spec.get("z", DEFAULT_RECURRENCE_Z), f"'z' in {where}",
                         error=ConfigurationError)
        return {"type": kind, "z": z}
    if kind == "neighborhood":
        _check_keys(spec, where, {"type"}, {"window", "tol_rel"})
        window = require_int(spec.get("window", min(max(100, horizon // 10), horizon + 1)),
                             f"'window' in {where}", 1, error=ConfigurationError)
        tol = require_real(spec.get("tol_rel", DEFAULT_NEIGHBORHOOD_TOL), f"'tol_rel' in {where}",
                           strict=False, error=ConfigurationError)
        return {"type": kind, "window": window, "tol_rel": tol}
    if kind == "convergence":
        _check_keys(spec, where, {"type", "checkpoints"}, set())
        return {"type": kind, "checkpoints": _parse_checkpoints(spec["checkpoints"], where, horizon)}
    if kind == "descent":
        _check_keys(spec, where, {"type"}, {"points", "samples"})
        points = require_int(spec.get("points", DEFAULT_DESCENT_POINTS), f"'points' in {where}", 1,
                             error=ConfigurationError)
        samples = require_int(spec.get("samples", DEFAULT_DESCENT_SAMPLES),
                              f"'samples' in {where}", 100, error=ConfigurationError)
        return {"type": kind, "points": points, "samples": samples}
    if kind == "lemma":
        _check_keys(spec, where, {"type", "n", "k"}, set())
        return {"type": kind} | {
            key: require_int(spec[key], f"'{key}' in {where}", 0, error=ConfigurationError)
            for key in ("n", "k")
        }
    raise ConfigurationError(f"unknown check type '{kind}' in {where}")


def _parse_verify(spec) -> dict:
    where = "verify"
    _check_keys(spec, where, set(), {"audit_samples", "gradient_checks"})
    defaults = {"audit_samples": DEFAULT_AUDIT_SAMPLES, "gradient_checks": DEFAULT_GRADIENT_CHECKS}
    return {
        key: require_int(spec.get(key, default), f"'{key}' in {where}", 1,
                         error=ConfigurationError)
        for key, default in defaults.items()
    }


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; a key it repeats is refused, not overwritten."""
    document = {}
    for key, value in pairs:
        if key in document:
            raise ConfigurationError(f"duplicate key '{key}'")
        document[key] = value
    return document


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON experiment description."""
    try:
        raw = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as err:
        raise ConfigurationError(f"invalid JSON: {err}") from None
    _check_keys(
        raw,
        "config",
        {"problem", "schedule", "x0", "horizon", "replications", "master_seed", "region_radius"},
        {"checks", "output", "verify"},
    )
    horizon = require_int(raw["horizon"], "'horizon' in config", 1, error=ConfigurationError)
    replications = require_int(raw["replications"], "'replications' in config", 2,
                               error=ConfigurationError)
    master_seed = require_int(raw["master_seed"], "'master_seed' in config", 0, UINT64_MAX,
                              error=ConfigurationError)
    region_radius = require_real(raw["region_radius"], "'region_radius' in config",
                                 error=ConfigurationError)
    x0 = require_vector(raw["x0"], "'x0' in config")
    checks_raw = raw.get("checks", [])
    if not isinstance(checks_raw, list):
        raise ConfigurationError("'checks' in config must be a list")
    checks = [_parse_check(item, i, horizon) for i, item in enumerate(checks_raw)]
    output = raw.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigurationError("'output' in config must be a string path")
    verify = _parse_verify(raw.get("verify", {}))
    return ExperimentConfig(
        problem=_parse_problem(raw["problem"]),
        schedule=_parse_schedule(raw["schedule"]),
        x0=x0,
        horizon=horizon,
        replications=replications,
        master_seed=master_seed,
        region_radius=region_radius,
        checks=checks,
        output=output,
        verify=verify,
    )


def load_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigurationError(f"cannot read config file: {err}") from None
    return parse_config(text)


def serialize_config(config: ExperimentConfig) -> str:
    document = {
        "problem": config.problem,
        "schedule": config.schedule,
        "x0": config.x0,
        "horizon": config.horizon,
        "replications": config.replications,
        "master_seed": config.master_seed,
        "region_radius": config.region_radius,
        "checks": config.checks,
        "verify": config.verify,
    }
    if config.output is not None:
        document["output"] = config.output
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def build_problem(spec: dict) -> StochasticProblem:
    if spec["family"] == "shifted_quadratic":
        return ShiftedQuadratic(
            curvature=spec["curvature"],
            center=spec["center"],
            noise_halfwidth=spec["noise_halfwidth"],
        )
    return FiniteSumLeastSquares(design=spec["design_rows"], targets=spec["targets"])


def build_schedule(spec: dict) -> Schedule:
    if spec["kind"] == "constant":
        return ConstantSchedule(rho=spec["rho"])
    return InverseTimeSchedule(scale=spec["scale"], offset=spec["offset"])
