"""Exception types shared across the package."""
from __future__ import annotations

import numpy as np


class SgdCheckError(Exception):
    """Base class for every error raised by this package."""


class ConfigurationError(SgdCheckError):
    """A problem, schedule, or experiment description is malformed."""


class CertificationError(SgdCheckError):
    """Constants required by the convergence guarantees cannot be certified."""


class UsageError(SgdCheckError):
    """An operation was called outside its documented domain."""


class DomainError(SgdCheckError):
    """A numeric argument leaves the range where a formula is valid."""


class DivergenceError(SgdCheckError):
    """An iterate left the representable floating-point range during a run."""

    def __init__(self, step_index: int, message: str | None = None):
        self.step_index = step_index
        super().__init__(message or f"non-finite iterate at step {step_index}")


def require_int(value, name: str, minimum: int) -> int:
    """``value`` as a Python int; UsageError unless an integer >= ``minimum``.

    numpy integers are accepted; bools and floats, even integral ones, are not.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise UsageError(f"{name} must be an integer >= {minimum}")
    return int(value)


def require_real(value, name: str, strict: bool = True, error: type = UsageError) -> float:
    """``value`` as a Python float; ``error`` unless a finite real, > 0 when
    ``strict`` and >= 0 otherwise.  Python and numpy ints and floats pass;
    bools, strings and integers too large for a double do not.
    """
    if not isinstance(value, bool) and isinstance(value, (int, float, np.integer, np.floating)):
        try:
            real = float(value)
        except OverflowError:
            real = np.inf
        if np.isfinite(real) and (real > 0.0 if strict else real >= 0.0):
            return real
    raise error(f"{name} must be a finite {'positive real' if strict else 'real >= 0'}")
