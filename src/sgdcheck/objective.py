"""Stochastic objectives with certified curvature and gradient bounds.

Each problem family models a loss l(noise, x) whose average over the noise
law is a strongly convex function of x.  A run of plain SGD needs two
constants from the family before its behaviour can be checked against the
one-step envelope:

- ``strong_convexity``: a modulus mu > 0 such that for all x, y in the
  operating region, mean_loss(y) >= mean_loss(x) + <mean_gradient(x), y - x>
  + (mu / 2) * ||y - x||^2.
- ``grad_sq_bound``: a constant B with ||pointwise_gradient(noise, x)||^2 <= B
  for every noise value and every x in the operating region.

The single-sample gradient of either family is unbounded over all of R^N, so
certification is always relative to an explicit ball around the minimizer,
described by ``region_center`` and ``region_radius`` on the certificate.
"""
from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificationError, ConfigurationError, UsageError

# Certificates are audited and checked against sampled data at this
# relative tolerance; it absorbs float roundoff without hiding real slack.
AUDIT_RTOL = 1e-9

# Designs whose normalized Gram matrix has a smallest eigenvalue at or below
# this floor (relative to max(1, largest eigenvalue)) are treated as rank
# deficient.
RANK_TOL = 1e-10

MAX_DIMENSION = 64

# Samples that audit_certificate evaluates at once after drawing them all;
# bounds its temporaries without changing any draw or any per-sample value.
_AUDIT_CHUNK = 1 << 15


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray | float:
    """Inner product over the last axis, batch friendly and order stable."""
    return np.einsum("...i,...i->...", a, b)


def sq_norm(d: np.ndarray, out: np.ndarray | None = None) -> np.ndarray | float:
    """Squared Euclidean norm over the last axis, written into ``out`` if given."""
    return np.einsum("...i,...i->...", d, d, out=out)


def as_float_vector(value, dim: int | None, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ConfigurationError(f"'{name}' must be a non-empty 1-d vector of reals")
    if not np.all(np.isfinite(arr)):
        raise ConfigurationError(f"'{name}' must contain only finite values")
    if dim is not None and arr.shape[0] != dim:
        raise ConfigurationError(
            f"'{name}' has dimension {arr.shape[0]}, expected {dim}"
        )
    return arr


def _positive_real(value, name: str) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ConfigurationError(f"'{name}' must be a finite positive real")
    return value


@dataclass(frozen=True, eq=False)
class HypothesisCertificate:
    """Constants under which the one-step envelope applies on a ball.

    ``guaranteed_containment`` is True when iterates provably never leave the
    ball, provided every step satisfies rate * strong_convexity <= 1.  When it
    is False the run records per-step region flags instead and downstream
    checks exclude steps where any replication left the ball.
    """

    strong_convexity: float
    grad_sq_bound: float
    region_center: np.ndarray
    region_radius: float
    guaranteed_containment: bool
    notes: tuple[str, ...] = ()


@dataclass(frozen=True, eq=False)
class AuditReport:
    """Outcome of a randomized audit of a certificate.

    ``max_grad_ratio`` is the largest observed ||grad||^2 / grad_sq_bound.
    ``min_convexity_slack`` is the smallest observed relative slack of the
    strong convexity inequality.  The audit passes when no sample violates
    either bound beyond AUDIT_RTOL relative.
    """

    samples: int
    max_grad_ratio: float
    min_convexity_slack: float
    grad_violations: int
    convexity_violations: int
    passed: bool
    grad_witness: tuple[np.ndarray | int, np.ndarray] | None
    convexity_witness: tuple[np.ndarray, np.ndarray] | None


@dataclass(frozen=True)
class GradientCheckReport:
    """Worst relative error of analytic gradients vs central differences."""

    samples: int
    max_rel_error: float
    tolerance: float
    passed: bool


class StochasticProblem(abc.ABC):
    """Common surface of the shipped problem families.

    Loss and gradient methods broadcast over a leading batch axis: ``noise``
    may be a single draw or a stacked block of draws, and ``x`` a single
    point (N,) or a matching batch (S, N).
    """

    family: str

    @property
    @abc.abstractmethod
    def dimension(self) -> int: ...

    @property
    @abc.abstractmethod
    def noise_shape(self) -> tuple[int, ...]:
        """Shape of one noise value, the draw of a single step."""

    @abc.abstractmethod
    def sample_noise(self, rng):
        """Draw one noise value from the family's law."""

    @abc.abstractmethod
    def noise_block(self, rng, count: int):
        """Draw ``count`` noise values at once.

        The block consumes the generator exactly like ``count`` successive
        calls to :meth:`sample_noise`, so recorded runs can be replayed.
        """

    @abc.abstractmethod
    def pointwise_loss(self, noise, x): ...

    @abc.abstractmethod
    def pointwise_gradient(self, noise, x, out=None):
        """Gradient of the loss at ``x`` for ``noise``.

        With ``out`` given, the gradient is written into that array, whose
        shape must be the broadcast shape of the batch, and ``out`` is
        returned; the values are the same bits either way.
        """

    @abc.abstractmethod
    def mean_loss(self, x): ...

    @abc.abstractmethod
    def mean_gradient(self, x): ...

    @abc.abstractmethod
    def minimizer(self) -> np.ndarray:
        """The unique minimizer of the mean loss."""

    @abc.abstractmethod
    def certify(self, region_radius: float, x0) -> HypothesisCertificate:
        """Certify constants on the ball of ``region_radius`` around the minimizer.

        ``x0`` is the intended start point; it must lie inside the ball.
        """

    def _check_x(self, x) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        if arr.shape[-1:] != (self.dimension,):
            raise ConfigurationError(
                f"point has trailing dimension {arr.shape[-1:]}, "
                f"expected ({self.dimension},)"
            )
        return arr


@dataclass(frozen=True, eq=False)
class ShiftedQuadratic(StochasticProblem):
    """Quadratic loss around a noisy center.

    l(noise, x) = (curvature / 2) * ||x - center - noise||^2 with noise drawn
    coordinatewise uniform on [-noise_halfwidth, noise_halfwidth].  The mean
    loss is (curvature / 2) * ||x - center||^2 plus a constant noise floor,
    so the minimizer is ``center`` and the curvature is exact.
    """

    curvature: float
    center: np.ndarray
    noise_halfwidth: float

    family = "shifted_quadratic"

    def __post_init__(self):
        object.__setattr__(self, "curvature", _positive_real(self.curvature, "curvature"))
        center = as_float_vector(self.center, None, "center").copy()
        if center.shape[0] > MAX_DIMENSION:
            raise ConfigurationError(f"dimension exceeds the cap of {MAX_DIMENSION}")
        center.flags.writeable = False
        object.__setattr__(self, "center", center)
        hw = float(self.noise_halfwidth)
        if not math.isfinite(hw) or hw < 0.0:
            raise ConfigurationError("'noise_halfwidth' must be a finite real >= 0")
        object.__setattr__(self, "noise_halfwidth", hw)

    @property
    def dimension(self) -> int:
        return self.center.shape[0]

    @property
    def noise_shape(self) -> tuple[int, ...]:
        return (self.dimension,)

    def sample_noise(self, rng) -> np.ndarray:
        return rng.uniform(-self.noise_halfwidth, self.noise_halfwidth, size=self.dimension)

    def noise_block(self, rng, count: int) -> np.ndarray:
        return rng.uniform(
            -self.noise_halfwidth, self.noise_halfwidth, size=(count, self.dimension)
        )

    def pointwise_loss(self, noise, x):
        x = self._check_x(x)
        diff = x - self.center - noise
        return 0.5 * self.curvature * sq_norm(diff)

    def pointwise_gradient(self, noise, x, out=None):
        x = self._check_x(x)
        # Without out each operation allocates its result, as the plain
        # expression does; with out every operation writes into it.
        diff = np.subtract(x, self.center, out=out)
        diff = np.subtract(diff, noise, out=out)
        return np.multiply(diff, self.curvature, out=out)

    def mean_loss(self, x):
        x = self._check_x(x)
        # E||noise||^2 = dimension * halfwidth^2 / 3 for coordinatewise uniform noise.
        floor = self.curvature * self.dimension * self.noise_halfwidth**2 / 6.0
        return 0.5 * self.curvature * sq_norm(x - self.center) + floor

    def mean_gradient(self, x):
        x = self._check_x(x)
        return self.curvature * (x - self.center)

    def minimizer(self) -> np.ndarray:
        return self.center.copy()

    def certify(self, region_radius: float, x0) -> HypothesisCertificate:
        region_radius = _certify_radius(self, region_radius, x0)
        reach = self.noise_halfwidth * math.sqrt(self.dimension)
        bound = (self.curvature * (region_radius + reach)) ** 2
        contained = reach <= region_radius
        notes = (
            "strong_convexity equals the curvature; the mean loss is an exact quadratic",
            "grad_sq_bound = (curvature * (region_radius + halfwidth * sqrt(dim)))^2",
            "containment holds for any schedule with rate * curvature <= 1"
            if contained
            else "containment not guaranteed: noise reach exceeds the region radius",
        )
        return HypothesisCertificate(
            strong_convexity=self.curvature,
            grad_sq_bound=bound,
            region_center=self.minimizer(),
            region_radius=region_radius,
            guaranteed_containment=contained,
            notes=notes,
        )


@dataclass(frozen=True, eq=False)
class FiniteSumLeastSquares(StochasticProblem):
    """Least squares over a finite design, one row sampled per step.

    l(i, x) = (1 / 2) * (<design[i], x> - targets[i])^2 with the row index i
    uniform over the rows.  The mean loss is the classical least squares
    objective scaled by 1 / K; its curvature is the smallest eigenvalue of
    the normalized Gram matrix design^T design / K.
    """

    design: np.ndarray
    targets: np.ndarray

    family = "finite_sum_least_squares"

    def __post_init__(self):
        design = np.asarray(self.design, dtype=float)
        if design.ndim != 2 or design.size == 0:
            raise ConfigurationError("'design_rows' must be a non-empty 2-d matrix")
        if not np.all(np.isfinite(design)):
            raise ConfigurationError("'design_rows' must contain only finite values")
        rows, dim = design.shape
        if dim > MAX_DIMENSION:
            raise ConfigurationError(f"dimension exceeds the cap of {MAX_DIMENSION}")
        if rows < dim:
            raise ConfigurationError(
                f"'design_rows' needs at least as many rows ({rows}) as columns ({dim})"
            )
        targets = as_float_vector(self.targets, rows, "targets")
        design = design.copy()
        design.flags.writeable = False
        targets = targets.copy()
        targets.flags.writeable = False
        object.__setattr__(self, "design", design)
        object.__setattr__(self, "targets", targets)

    @property
    def dimension(self) -> int:
        return self.design.shape[1]

    @property
    def rows(self) -> int:
        return self.design.shape[0]

    @property
    def noise_shape(self) -> tuple[int, ...]:
        return ()

    def sample_noise(self, rng) -> int:
        return int(rng.integers(self.rows))

    def noise_block(self, rng, count: int) -> np.ndarray:
        return rng.integers(self.rows, size=count)

    def pointwise_loss(self, noise, x):
        x = self._check_x(x)
        rows = self.design[noise]
        residual = row_dot(rows, x) - self.targets[noise]
        return 0.5 * residual * residual

    def pointwise_gradient(self, noise, x, out=None):
        x = self._check_x(x)
        # The default bounds-checked mode: a bad row index raises.
        rows = self.design.take(noise, axis=0, out=out)
        residual = row_dot(rows, x) - self.targets[noise]
        return np.multiply(rows, np.asarray(residual)[..., None], out=out)

    def mean_loss(self, x):
        x = self._check_x(x)
        residual = np.inner(x, self.design) - self.targets
        return 0.5 * sq_norm(residual) / self.rows

    def mean_gradient(self, x):
        x = self._check_x(x)
        residual = np.inner(x, self.design) - self.targets
        return np.asarray(residual) @ self.design / self.rows

    def minimizer(self) -> np.ndarray:
        gram = self.design.T @ self.design
        rhs = self.design.T @ self.targets
        try:
            x = np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError as err:
            raise CertificationError(f"normal equations are singular: {err}") from None
        scale = 1.0 + float(np.linalg.norm(rhs))
        residual = gram @ x - rhs
        if np.linalg.norm(residual) > 1e-12 * scale:
            # One step of iterative refinement before giving up.
            x = x - np.linalg.solve(gram, residual)
            residual = gram @ x - rhs
            if np.linalg.norm(residual) > 1e-12 * scale:
                raise CertificationError(
                    "normal equations could not be solved to relative residual 1e-12; "
                    "the design is too ill-conditioned"
                )
        grad_norm = float(np.linalg.norm(self.mean_gradient(x)))
        if grad_norm > 1e-9 * (1.0 + float(np.linalg.norm(x))):
            raise CertificationError(
                "minimizer fails the first-order optimality check; "
                "the design is too ill-conditioned"
            )
        return x

    def certify(self, region_radius: float, x0) -> HypothesisCertificate:
        x_star = self.minimizer()
        region_radius = _certify_radius(self, region_radius, x0, x_star=x_star)
        gram_mean = self.design.T @ self.design / self.rows
        eigenvalues = np.linalg.eigvalsh(gram_mean)
        smallest = float(eigenvalues[0])
        if smallest <= RANK_TOL * max(1.0, float(eigenvalues[-1])):
            raise CertificationError(
                "design matrix is rank deficient; the mean loss is not strongly convex"
            )
        row_norms = np.sqrt(sq_norm(self.design))
        residual_star = np.abs(np.inner(x_star, self.design) - self.targets)
        per_row = row_norms * (row_norms * region_radius + residual_star)
        bound = float(np.max(per_row)) ** 2
        notes = (
            "strong_convexity is the smallest eigenvalue of design^T design / rows",
            "grad_sq_bound = max over rows of (||row|| * (||row|| * region_radius "
            "+ |row residual at the minimizer|))^2",
            "containment is not guaranteed for this family; region flags are recorded per step",
        )
        return HypothesisCertificate(
            strong_convexity=smallest,
            grad_sq_bound=bound,
            region_center=x_star,
            region_radius=region_radius,
            guaranteed_containment=False,
            notes=notes,
        )


def _certify_radius(problem, region_radius, x0, x_star=None) -> float:
    region_radius = float(region_radius)
    if not math.isfinite(region_radius) or region_radius <= 0.0:
        raise CertificationError("region_radius must be a finite positive real")
    x0 = as_float_vector(x0, problem.dimension, "x0")
    if x_star is None:
        x_star = problem.minimizer()
    start_dist = math.sqrt(float(sq_norm(x0 - x_star)))
    if start_dist > region_radius:
        raise CertificationError(
            f"x0 lies at distance {start_dist:.6g} from the minimizer, "
            f"outside the region of radius {region_radius:.6g}"
        )
    return region_radius


def sample_in_ball(center: np.ndarray, radius: float, count: int, rng) -> np.ndarray:
    """Draw ``count`` points uniformly from the closed ball around ``center``."""
    center = np.asarray(center, dtype=float)
    dim = center.shape[0]
    directions = rng.normal(size=(count, dim))
    norms = np.sqrt(sq_norm(directions))
    norms = np.where(norms == 0.0, 1.0, norms)
    radii = radius * rng.uniform(0.0, 1.0, size=count) ** (1.0 / dim)
    return center + directions * (radii / norms)[:, None]


def audit_certificate(
    problem: StochasticProblem,
    cert: HypothesisCertificate,
    samples: int,
    rng,
) -> AuditReport:
    """Randomized audit of a certificate over its own region.

    Draws ``samples`` triples (noise, x, y) with x and y uniform in the
    certified ball, then checks the squared gradient bound at (noise, x) and
    the strong convexity inequality between x and y.  Reports the worst
    observed ratios and passes only when nothing violates the certificate
    beyond AUDIT_RTOL relative.
    """
    samples = int(samples)
    if samples < 1:
        raise UsageError("audit needs at least one sample")
    xs = sample_in_ball(cert.region_center, cert.region_radius, samples, rng)
    ys = sample_in_ball(cert.region_center, cert.region_radius, samples, rng)
    noise = problem.noise_block(rng, samples)

    mu = cert.strong_convexity
    ratios = np.empty(samples)
    rel_slack = np.empty(samples)
    for lo in range(0, samples, _AUDIT_CHUNK):
        part = slice(lo, lo + _AUDIT_CHUNK)
        x, y = xs[part], ys[part]
        grads = problem.pointwise_gradient(noise[part], x)
        ratios[part] = np.asarray(sq_norm(grads)) / cert.grad_sq_bound
        loss_x = np.asarray(problem.mean_loss(x))
        loss_y = np.asarray(problem.mean_loss(y))
        gap = y - x
        quad = 0.5 * mu * np.asarray(sq_norm(gap))
        slack = loss_y - loss_x - np.asarray(row_dot(problem.mean_gradient(x), gap)) - quad
        scale = np.maximum.reduce([np.ones(quad.shape[0]), np.abs(loss_x), np.abs(loss_y), quad])
        rel_slack[part] = slack / scale
    grad_bad = ratios > 1.0 + AUDIT_RTOL
    worst_grad = int(np.argmax(ratios))
    convexity_bad = rel_slack < -AUDIT_RTOL
    worst_convexity = int(np.argmin(rel_slack))

    grad_violations = int(np.count_nonzero(grad_bad))
    convexity_violations = int(np.count_nonzero(convexity_bad))
    return AuditReport(
        samples=samples,
        max_grad_ratio=float(ratios[worst_grad]),
        min_convexity_slack=float(rel_slack[worst_convexity]),
        grad_violations=grad_violations,
        convexity_violations=convexity_violations,
        passed=grad_violations == 0 and convexity_violations == 0,
        grad_witness=(noise[worst_grad], xs[worst_grad]) if grad_violations else None,
        convexity_witness=(
            (xs[worst_convexity], ys[worst_convexity]) if convexity_violations else None
        ),
    )


def check_gradients(
    problem: StochasticProblem,
    cert: HypothesisCertificate,
    samples: int,
    rng,
    tolerance: float = 1e-6,
) -> GradientCheckReport:
    """Compare analytic gradients against central finite differences.

    Uses step h = 1e-6 * (1 + ||x||) per sample and measures the error of
    each coordinate relative to max(1, |gradient coordinate|).
    """
    samples = int(samples)
    if samples < 1:
        raise UsageError("gradient check needs at least one sample")
    xs = sample_in_ball(cert.region_center, cert.region_radius, samples, rng)
    noise = problem.noise_block(rng, samples)
    grads = np.asarray(problem.pointwise_gradient(noise, xs))
    h = 1e-6 * (1.0 + np.sqrt(np.asarray(sq_norm(xs))))
    max_rel = 0.0
    for j in range(problem.dimension):
        shifted = xs.copy()
        shifted[:, j] = xs[:, j] + h
        plus = np.asarray(problem.pointwise_loss(noise, shifted))
        shifted[:, j] = xs[:, j] - h
        minus = np.asarray(problem.pointwise_loss(noise, shifted))
        approx = (plus - minus) / (2.0 * h)
        rel = np.abs(approx - grads[:, j]) / np.maximum(1.0, np.abs(grads[:, j]))
        max_rel = max(max_rel, float(np.max(rel)))
    return GradientCheckReport(
        samples=samples,
        max_rel_error=max_rel,
        tolerance=tolerance,
        passed=max_rel <= tolerance,
    )
