"""Step size schedules and their analytic properties.

A schedule maps the step index n >= 0 to a positive rate.  The Robbins-Monro
conditions (rates tend to zero while their series diverges) are what the
convergence guarantee for decaying steps requires; both kinds below are
non-increasing, and the report states the conditions for each analytically.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, UsageError, require_int


@dataclass(frozen=True)
class ConstantSchedule:
    """rate(n) = rho for every n."""

    rho: float

    kind = "constant"

    def __post_init__(self):
        rho = float(self.rho)
        if not math.isfinite(rho) or rho <= 0.0:
            raise ConfigurationError("'rho' must be a finite positive real")
        object.__setattr__(self, "rho", rho)

    def rate(self, n: int) -> float:
        require_int(n, "step index", 0)
        return self.rho

    def rates(self, start: int, count: int) -> np.ndarray:
        require_int(start, "step index", 0)
        return np.full(require_int(count, "count", 0), self.rho)


@dataclass(frozen=True)
class InverseTimeSchedule:
    """rate(n) = scale / (offset + n), the classical decaying choice.

    Rates decrease to zero while their partial sums grow like a harmonic
    series, so both Robbins-Monro conditions hold for any positive scale
    and offset.
    """

    scale: float
    offset: float

    kind = "inverse_time"

    def __post_init__(self):
        for name in ("scale", "offset"):
            value = float(getattr(self, name))
            if not math.isfinite(value) or value <= 0.0:
                raise ConfigurationError(f"'{name}' must be a finite positive real")
            object.__setattr__(self, name, value)

    def rate(self, n: int) -> float:
        return self.scale / (self.offset + require_int(n, "step index", 0))

    def rates(self, start: int, count: int) -> np.ndarray:
        start = require_int(start, "step index", 0)
        count = require_int(count, "count", 0)
        return self.scale / (self.offset + np.arange(start, start + count, dtype=float))


Schedule = ConstantSchedule | InverseTimeSchedule


@dataclass(frozen=True)
class ScheduleReport:
    """Analytic summary of a schedule against a convexity modulus.

    ``robbins_monro`` is True when the rates tend to zero and their series
    diverges.  ``max_rate_mu`` is the largest rate times mu, rate(0) * mu
    since both kinds are non-increasing, and ``stability_ok`` says that
    product stays below one, which keeps every factor of the one-step
    envelope positive.
    """

    robbins_monro: bool
    max_rate_mu: float
    stability_ok: bool


def validate_schedule(schedule: Schedule, mu: float) -> ScheduleReport:
    """Report the decay, divergence, and stability properties of a schedule."""
    mu = float(mu)
    if not math.isfinite(mu) or mu <= 0.0:
        raise UsageError("mu must be a finite positive real")
    # Constant rates do not decay; inverse-time rates do.  Both sum to infinity.
    max_rate_mu = schedule.rate(0) * mu
    return ScheduleReport(
        robbins_monro=isinstance(schedule, InverseTimeSchedule),
        max_rate_mu=max_rate_mu,
        stability_ok=max_rate_mu < 1.0,
    )
