"""Experiment configuration: strict parsing, validation, and construction.

Configs are JSON objects.  Unknown keys are rejected at every level and every
error message names the offending key, so a typo never silently changes an
experiment.  Parsing normalizes the document (defaults filled in, numbers
coerced to their declared kinds); a normalized config round-trips through
``serialize_config`` unchanged.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .checks import CHECKS
from .errors import (UINT64_MAX, ConfigurationError, config_guard, require_int, require_real,
                     require_vector)
from .objective import FAMILIES, StochasticProblem
from .schedule import KINDS, Schedule


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


_POSITIVE = config_guard(require_real, True)


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ConfigurationError(f"{where} must be a list")
    return value


def _path(value, where: str) -> str | None:
    if value is not None and not isinstance(value, str):
        raise ConfigurationError(f"{where} must be a string path")
    return value


def _object(spec, where: str) -> dict:
    if not isinstance(spec, dict):
        raise ConfigurationError(f"{where} must be an object")
    return spec


def _parse_keys(spec, where: str, keys: dict, tag: str | None = None) -> dict:
    """``spec`` read against ``keys``, its table of ``(guard, default)`` per key,
    ``...`` marking a required key.  The result holds ``tag``, then each key as
    ``guard(value, "'key' in where")`` returns it, an absent value read as the default."""
    for key in _object(spec, where):
        if key not in keys and key != tag:
            raise ConfigurationError(f"unknown key '{key}' in {where}")
    for key in sorted(keys):
        if keys[key][1] is ... and key not in spec:
            raise ConfigurationError(f"missing key '{key}' in {where}")
    parsed = {} if tag is None else {tag: spec[tag]}
    for key, (guard, default) in keys.items():
        parsed[key] = guard(spec.get(key, default), f"'{key}' in {where}")
    return parsed


def _parse_variant(spec, where: str, what: str, tables: dict) -> dict:
    """A tagged section: the tag named last in ``what`` ("problem family")
    picks the key table of ``tables`` that reads the rest."""
    tag = what.split()[-1]
    if tag not in _object(spec, where):
        raise ConfigurationError(f"missing key '{tag}' in {where}")
    value = spec[tag]
    keys = tables.get(value) if isinstance(value, str) else None
    if keys is None:
        raise ConfigurationError(f"unknown {what} '{value}' in {where}")
    return _parse_keys(spec, where, keys, tag)


# The key tables: key -> (guard, default), in the order the guards run.
_PROBLEM_KEYS = {
    family: {key: (guard, ...) for key, guard in cls.config_keys.items()}
    for family, cls in FAMILIES.items()
}

_SCHEDULE_KEYS = {
    kind: {parameter.name: (_POSITIVE, ...) for parameter in fields(cls)}
    for kind, cls in KINDS.items()
}

_VERIFY_KEYS = {
    "audit_samples": (config_guard(require_int, 1), 10_000),
    "gradient_checks": (config_guard(require_int, 1), 1_000),
}

_CONFIG_KEYS = {
    "horizon": (config_guard(require_int, 1), ...),
    "replications": (config_guard(require_int, 2), ...),
    "master_seed": (config_guard(require_int, 0, UINT64_MAX), ...),
    "region_radius": (_POSITIVE, ...),
    "x0": (require_vector, ...),
    "checks": (_list, []),
    "output": (_path, None),
    "verify": (lambda value, where: _parse_keys(value, "verify", _VERIFY_KEYS), {}),
    "problem": (lambda value, where: _parse_variant(value, "problem", "problem family",
                                                    _PROBLEM_KEYS), ...),
    "schedule": (lambda value, where: _parse_variant(value, "schedule", "schedule kind",
                                                     _SCHEDULE_KEYS), ...),
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
    config = _parse_keys(raw, "config", _CONFIG_KEYS)
    checks = {kind: check.keys(config["horizon"]) for kind, check in CHECKS.items()}
    config["checks"] = [
        _parse_variant(spec, f"checks[{i}]", "check type", checks)
        for i, spec in enumerate(config["checks"])
    ]
    return ExperimentConfig(**config)


def load_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigurationError(f"cannot read config file: {err}") from None
    return parse_config(text)


def serialize_config(config: ExperimentConfig) -> str:
    document = asdict(config)
    if document["output"] is None:
        del document["output"]
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def build_problem(spec: dict) -> StochasticProblem:
    family = FAMILIES[spec["family"]]
    return family(*(spec[key] for key in family.config_keys))


def build_schedule(spec: dict) -> Schedule:
    parameters = dict(spec)
    return KINDS[parameters.pop("kind")](**parameters)
