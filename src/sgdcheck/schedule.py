"""Step size schedules and their analytic properties.

A schedule maps the step index n >= 0 to a positive rate.  The Robbins-Monro
conditions (rates tend to zero while their series diverges) are what the
convergence guarantee for decaying steps requires; the report below states
them per family where they are known analytically and leaves them undecided
for user-supplied sequences.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, UsageError


def _check_index(n) -> int:
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise UsageError("step index must be an integer")
    n = int(n)
    if n < 0:
        raise UsageError("step index must be >= 0")
    return n


def _check_span(start, count) -> tuple[int, int]:
    start = _check_index(start)
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < 0:
        raise UsageError("count must be an integer >= 0")
    return start, int(count)


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
        _check_index(n)
        return self.rho

    def rates(self, start: int, count: int) -> np.ndarray:
        start, count = _check_span(start, count)
        return np.full(count, self.rho)


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
        n = _check_index(n)
        return self.scale / (self.offset + n)

    def rates(self, start: int, count: int) -> np.ndarray:
        start, count = _check_span(start, count)
        return self.scale / (self.offset + np.arange(start, start + count, dtype=float))


@dataclass(frozen=True, eq=False)
class SequenceSchedule:
    """Extension point wrapping an arbitrary positive rate sequence.

    The analytic flags of the report are left undecided for this kind; the
    caller is responsible for knowing whether the sequence decays and
    diverges in sum.
    """

    fn: Callable[[int], float]
    label: str = "sequence"

    kind = "sequence"

    def rate(self, n: int) -> float:
        n = _check_index(n)
        value = float(self.fn(n))
        if not math.isfinite(value) or value <= 0.0:
            raise ConfigurationError(f"sequence schedule produced a non-positive rate at n={n}")
        return value

    def rates(self, start: int, count: int) -> np.ndarray:
        start, count = _check_span(start, count)
        return np.array([self.rate(n) for n in range(start, start + count)])


Schedule = ConstantSchedule | InverseTimeSchedule | SequenceSchedule


@dataclass(frozen=True)
class ScheduleReport:
    """Analytic summary of a schedule against a convexity modulus.

    ``robbins_monro`` is True when the rates tend to zero and their series
    diverges, False when either provably fails, and None when undecidable
    for the schedule kind.  ``max_rate_mu`` is the largest rate times mu over
    all steps, or over the steps of a run when a horizon is given, and
    ``stability_ok`` says that product stays below one, which keeps every
    factor of the one-step envelope positive.
    """

    tends_to_zero: bool | None
    sum_diverges: bool | None
    robbins_monro: bool | None
    max_rate_mu: float
    stability_ok: bool


# Sampling grid used to bound the largest rate of user-supplied sequences.
_SAMPLE_MAX = 1 << 20


def validate_schedule(schedule: Schedule, mu: float, horizon: int | None = None) -> ScheduleReport:
    """Report the decay, divergence, and stability properties of a schedule.

    With a ``horizon`` the largest rate is taken over the rates of steps
    0..horizon-1, the ones a run of that many updates uses.
    """
    mu = float(mu)
    if not math.isfinite(mu) or mu <= 0.0:
        raise UsageError("mu must be a finite positive real")
    if isinstance(schedule, ConstantSchedule):
        tends_to_zero: bool | None = False
        sum_diverges: bool | None = True
    elif isinstance(schedule, InverseTimeSchedule):
        tends_to_zero = True
        sum_diverges = True
    else:
        tends_to_zero = None
        sum_diverges = None
    if horizon is not None:
        if isinstance(horizon, bool) or not isinstance(horizon, (int, np.integer)) or horizon < 1:
            raise UsageError("horizon must be an integer >= 1")
        max_rate = float(np.max(schedule.rates(0, int(horizon))))
    elif isinstance(schedule, ConstantSchedule):
        max_rate = schedule.rho
    elif isinstance(schedule, InverseTimeSchedule):
        max_rate = schedule.rate(0)
    else:
        # Best effort for arbitrary sequences: probe a geometric index grid.
        grid = [0] + [1 << p for p in range(0, _SAMPLE_MAX.bit_length())]
        max_rate = max(schedule.rate(n) for n in grid if n <= _SAMPLE_MAX)
    robbins_monro = (
        None if tends_to_zero is None or sum_diverges is None
        else tends_to_zero and sum_diverges
    )
    max_rate_mu = max_rate * mu
    return ScheduleReport(
        tends_to_zero=tends_to_zero,
        sum_diverges=sum_diverges,
        robbins_monro=robbins_monro,
        max_rate_mu=max_rate_mu,
        stability_ok=max_rate_mu < 1.0,
    )
