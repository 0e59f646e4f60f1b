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
