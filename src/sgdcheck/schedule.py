"""Step size schedules and their analytic properties.

A schedule maps the step index n >= 0 to a positive rate.  The Robbins-Monro
conditions (rates tend to zero while their series diverges) are what the
convergence guarantee for decaying steps requires; both kinds below are
non-increasing, and the report states the conditions for each analytically.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, require_int, require_real


@dataclass(frozen=True)
class ConstantSchedule:
    """rate_n = rho for every n."""

    rho: float

    kind = "constant"
    # The rates sum to infinity but do not decay.
    robbins_monro = False

    def __post_init__(self):
        object.__setattr__(self, "rho", require_real(self.rho, "'rho'", error=ConfigurationError))

    def rates(self, start: int, count: int) -> np.ndarray:
        require_int(start, "step index", 0)
        return np.full(require_int(count, "count", 0), self.rho)

    def closed_form_product(self, mu: float, n: int, k: int) -> float:
        """The product of (1 - rho * mu) over l = n..n+k: a plain power."""
        return (1.0 - self.rho * mu) ** (k + 1)


@dataclass(frozen=True)
class InverseTimeSchedule:
    """rate_n = scale / (offset + n), the classical decaying choice.

    Rates decrease to zero while their partial sums grow like a harmonic
    series, so both Robbins-Monro conditions hold for any positive scale
    and offset.
    """

    scale: float
    offset: float

    kind = "inverse_time"
    robbins_monro = True

    def __post_init__(self):
        for name in ("scale", "offset"):
            value = require_real(getattr(self, name), f"'{name}'", error=ConfigurationError)
            object.__setattr__(self, name, value)

    def rates(self, start: int, count: int) -> np.ndarray:
        start = require_int(start, "step index", 0)
        count = require_int(count, "count", 0)
        return self.scale / (self.offset + np.arange(start, start + count, dtype=float))

    def closed_form_product(self, mu: float, n: int, k: int) -> float | None:
        """The product of (1 - rate_l * mu) over l = n..n+k where it telescopes.

        With scale * mu = 1 every factor is (offset + l - 1) / (offset + l),
        so the product collapses to a single ratio; otherwise None.
        """
        if self.scale * mu == 1.0:
            return (self.offset + n - 1.0) / (self.offset + n + k)
        return None


Schedule = ConstantSchedule | InverseTimeSchedule

# Every schedule kind by name; a kind's parameters are its dataclass fields.
KINDS = {cls.kind: cls for cls in (ConstantSchedule, InverseTimeSchedule)}


@dataclass(frozen=True)
class ScheduleReport:
    """Analytic summary of a schedule against a convexity modulus.

    ``robbins_monro`` is True when the rates tend to zero and their series
    diverges.  ``max_rate_mu`` is the largest rate times mu, rate_0 * mu
    since both kinds are non-increasing, and ``stability_ok`` says that
    product stays below one, which keeps every factor of the one-step
    envelope positive.
    """

    robbins_monro: bool
    max_rate_mu: float
    stability_ok: bool


def validate_schedule(schedule: Schedule, mu: float) -> ScheduleReport:
    """Report the decay, divergence, and stability properties of a schedule."""
    mu = require_real(mu, "mu")
    max_rate_mu = float(schedule.rates(0, 1)[0]) * mu
    return ScheduleReport(
        robbins_monro=schedule.robbins_monro,
        max_rate_mu=max_rate_mu,
        stability_ok=max_rate_mu < 1.0,
    )
