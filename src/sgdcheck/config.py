"""Experiment configuration: strict parsing, validation, and construction.

Configs are JSON objects.  Unknown keys are rejected at every level and every
error message names the offending key, so a typo never silently changes an
experiment.  Parsing normalizes the document (defaults filled in, numbers
coerced to their declared kinds); a normalized config round-trips through
``serialize_config`` unchanged.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .analyzer import validate_checkpoints
from .errors import ConfigurationError, UsageError
from .objective import FiniteSumLeastSquares, ShiftedQuadratic, StochasticProblem
from .schedule import ConstantSchedule, InverseTimeSchedule, Schedule

_MAX_SEED = (1 << 64) - 1

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


def _integer(obj: dict, key: str, where: str, minimum: int, maximum: int | None = None,
             default: int | None = None) -> int:
    """obj[key] checked as an integer in range; ``default`` if the key is absent."""
    if key not in obj:
        return default
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"'{key}' in {where} must be an integer")
    if value < minimum or (maximum is not None and value > maximum):
        bound = f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
        raise ConfigurationError(f"'{key}' in {where} must be {bound}")
    return value


def _to_float(value) -> float:
    """float(value), or inf for an integer too large for a double."""
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _real(obj: dict, key: str, where: str, minimum: float | None = None,
          strict: bool = False, default: float | None = None) -> float:
    """obj[key] checked as a finite real; ``default`` if the key is absent."""
    if key not in obj:
        return default
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"'{key}' in {where} must be a real number")
    value = _to_float(value)
    if not math.isfinite(value):
        raise ConfigurationError(f"'{key}' in {where} must be finite")
    if minimum is not None and (value < minimum or (strict and value <= minimum)):
        relation = ">" if strict else ">="
        raise ConfigurationError(f"'{key}' in {where} must be {relation} {minimum}")
    return value


def _real_list(value, key: str, where: str) -> list[float]:
    if not isinstance(value, list) or not value:
        raise ConfigurationError(f"'{key}' in {where} must be a non-empty list of reals")
    cleaned = []
    for item in value:
        if (isinstance(item, bool) or not isinstance(item, (int, float))
                or not math.isfinite(_to_float(item))):
            raise ConfigurationError(f"'{key}' in {where} must contain only finite reals")
        cleaned.append(float(item))
    return cleaned


def _parse_problem(spec) -> dict:
    where = "problem"
    if not isinstance(spec, dict) or "family" not in spec:
        raise ConfigurationError("missing key 'family' in problem")
    family = spec["family"]
    if family == "shifted_quadratic":
        _check_keys(spec, where, {"family", "curvature", "center", "noise_halfwidth"}, set())
        return {
            "family": family,
            "curvature": _real(spec, "curvature", where, minimum=0.0, strict=True),
            "center": _real_list(spec["center"], "center", where),
            "noise_halfwidth": _real(spec, "noise_halfwidth", where, minimum=0.0),
        }
    if family == "finite_sum_least_squares":
        _check_keys(spec, where, {"family", "design_rows", "targets"}, set())
        rows = spec["design_rows"]
        if not isinstance(rows, list) or not rows:
            raise ConfigurationError("'design_rows' in problem must be a non-empty list of rows")
        design = [_real_list(row, "design_rows", where) for row in rows]
        if any(len(row) != len(design[0]) for row in design):
            raise ConfigurationError("'design_rows' in problem must be rows of equal length")
        return {
            "family": family,
            "design_rows": design,
            "targets": _real_list(spec["targets"], "targets", where),
        }
    raise ConfigurationError(f"unknown problem family '{family}'")


def _parse_schedule(spec) -> dict:
    where = "schedule"
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigurationError("missing key 'kind' in schedule")
    kind = spec["kind"]
    if kind == "constant":
        _check_keys(spec, where, {"kind", "rho"}, set())
        return {"kind": kind, "rho": _real(spec, "rho", where, minimum=0.0, strict=True)}
    if kind == "inverse_time":
        _check_keys(spec, where, {"kind", "scale", "offset"}, set())
        return {
            "kind": kind,
            "scale": _real(spec, "scale", where, minimum=0.0, strict=True),
            "offset": _real(spec, "offset", where, minimum=0.0, strict=True),
        }
    raise ConfigurationError(f"unknown schedule kind '{kind}'")


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
        z = _real(spec, "z", where, minimum=0.0, strict=True, default=DEFAULT_RECURRENCE_Z)
        return {"type": kind, "z": z}
    if kind == "neighborhood":
        _check_keys(spec, where, {"type"}, {"window", "tol_rel"})
        window = _integer(spec, "window", where, minimum=1,
                          default=min(max(100, horizon // 10), horizon + 1))
        tol = _real(spec, "tol_rel", where, minimum=0.0, default=DEFAULT_NEIGHBORHOOD_TOL)
        return {"type": kind, "window": window, "tol_rel": tol}
    if kind == "convergence":
        _check_keys(spec, where, {"type", "checkpoints"}, set())
        return {"type": kind, "checkpoints": _parse_checkpoints(spec["checkpoints"], where, horizon)}
    if kind == "descent":
        _check_keys(spec, where, {"type"}, {"points", "samples"})
        points = _integer(spec, "points", where, minimum=1, default=DEFAULT_DESCENT_POINTS)
        samples = _integer(spec, "samples", where, minimum=100, default=DEFAULT_DESCENT_SAMPLES)
        return {"type": kind, "points": points, "samples": samples}
    if kind == "lemma":
        _check_keys(spec, where, {"type", "n", "k"}, set())
        return {
            "type": kind,
            "n": _integer(spec, "n", where, minimum=0),
            "k": _integer(spec, "k", where, minimum=0),
        }
    raise ConfigurationError(f"unknown check type '{kind}' in {where}")


def _parse_verify(spec) -> dict:
    where = "verify"
    _check_keys(spec, where, set(), {"audit_samples", "gradient_checks"})
    return {
        "audit_samples": _integer(spec, "audit_samples", where, minimum=1,
                                  default=DEFAULT_AUDIT_SAMPLES),
        "gradient_checks": _integer(spec, "gradient_checks", where, minimum=1,
                                    default=DEFAULT_GRADIENT_CHECKS),
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
    horizon = _integer(raw, "horizon", "config", minimum=1)
    replications = _integer(raw, "replications", "config", minimum=2)
    master_seed = _integer(raw, "master_seed", "config", minimum=0, maximum=_MAX_SEED)
    region_radius = _real(raw, "region_radius", "config", minimum=0.0, strict=True)
    x0 = _real_list(raw["x0"], "x0", "config")
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
