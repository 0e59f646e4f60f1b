"""Exception types and the argument guards shared across the package."""
from __future__ import annotations

import math

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


# require_int refuses integers that no 64-bit word holds; seeds range up to it.
UINT64_MAX = (1 << 64) - 1


def _is_real_kind(kind: type) -> bool:
    return not issubclass(kind, bool) and issubclass(kind, (int, float, np.integer, np.floating))


def require_int(value, name: str, minimum: int, maximum: int | None = None,
                error: type = UsageError) -> int:
    """``value`` as a Python int; ``error`` unless an integer >= ``minimum``
    and, when given, <= ``maximum``.

    numpy integers are accepted; bools, floats, even integral ones, and
    integers above UINT64_MAX are not.
    """
    if (not isinstance(value, bool) and isinstance(value, (int, np.integer))
            and minimum <= value <= (UINT64_MAX if maximum is None else maximum)):
        return int(value)
    bound = f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
    raise error(f"{name} must be an integer {bound}")


def require_real(value, name: str, strict: bool = True, error: type = UsageError) -> float:
    """``value`` as a Python float; ``error`` unless a finite real, > 0 when
    ``strict`` and >= 0 otherwise.  Python and numpy ints and floats pass;
    bools, strings and integers too large for a double do not.
    """
    if _is_real_kind(type(value)):
        try:
            real = float(value)
        except OverflowError:
            real = np.inf
        if np.isfinite(real) and (real > 0.0 if strict else real >= 0.0):
            return real
    raise error(f"{name} must be a finite {'positive real' if strict else 'real >= 0'}")


def config_guard(require, *bounds):
    """``require`` (require_int or require_real) as a config guard ``(value, where)``."""
    return lambda value, where: require(value, where, *bounds, error=ConfigurationError)


def require_vector(value, name: str, dim: int | None = None,
                   error: type = ConfigurationError) -> list[float]:
    """``value`` as a list of Python floats; ``error`` unless a non-empty
    list, tuple or 1-d array of finite reals, ``dim`` of them when given.

    Each element follows require_real's type rule: bools, strings and
    integers too large for a double are refused.
    """
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if (isinstance(value, (list, tuple)) and value and dim in (None, len(value))
            and all(map(_is_real_kind, set(map(type, value))))):
        try:
            reals = list(map(float, value))
        except OverflowError:
            reals = [math.inf]
        if all(map(math.isfinite, reals)):
            return reals
    size = "non-empty" if dim is None else f"{dim}-element"
    raise error(f"{name} must be a {size} vector of finite reals")
