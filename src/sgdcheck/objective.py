"""Stochastic objectives with certified curvature and gradient bounds.

Each problem family models a loss l(noise, x) whose average over the noise
law is a strongly convex function of x.  A run of plain SGD needs two
constants from the family before its behaviour can be checked against the
one-step envelope:

- ``strong_convexity``: a modulus mu > 0 such that for all x, y in the
  operating region, F(y) >= F(x) + <grad F(x), y - x> + (mu / 2) * ||y - x||^2,
  where F is the mean loss.
- ``grad_sq_bound``: a constant B with ||pointwise_gradient(noise, x)||^2 <= B
  for every noise value and every x in the operating region.

The single-sample gradient of either family is unbounded over all of R^N, so
certification is always relative to an explicit ball around the minimizer,
described by ``region_center`` and ``region_radius`` on the certificate.
"""
from __future__ import annotations

import abc
import functools
import itertools
import math
import os
import threading
import time
from dataclasses import dataclass

import numpy as np

try:
    from numpy._core.multiarray import c_einsum
except ImportError:  # numpy 1.x
    from numpy.core.multiarray import c_einsum

from .errors import (
    CertificationError,
    ConfigurationError,
    UsageError,
    config_guard,
    require_int,
    require_real,
    require_vector,
)

# Certificates are audited and checked against sampled data at this
# relative tolerance; it absorbs float roundoff without hiding real slack.
AUDIT_RTOL = 1e-9

# The largest relative error of an analytic gradient that check_gradients passes.
GRADIENT_RTOL = 1e-6

# Designs whose normalized Gram matrix has a smallest eigenvalue at or below
# this floor times its largest eigenvalue are treated as rank deficient; the
# floor does not move when the design is scaled.
RANK_TOL = 1e-10

MAX_DIMENSION = 64

# Bytes that size the blocks of a verify stage (_StageBlocks) and the chunks
# in which a block is evaluated (_verify_chunks).  The chunks do not change a
# sample's values; the blocks do, through the jump each block draws from.
_VERIFY_BYTES = 1 << 19

# Bytes of the replication-major tile into which
# ShiftedQuadratic.fill_noise_block draws the unit values of a block.
_TILE_BYTES = 1 << 18


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray | float:
    """Inner product over the last axis, batch friendly and order stable."""
    return np.einsum("...i,...i->...", a, b)


def sq_norm(d: np.ndarray, out: np.ndarray | None = None) -> np.ndarray | float:
    """Squared Euclidean norm over the last axis, written into ``out`` if given."""
    return np.einsum("...i,...i->...", d, d, out=out)


def _rows_like(vector: np.ndarray, batch: np.ndarray) -> np.ndarray:
    """``vector`` repeated over the leading axes of ``batch``, contiguous.

    numpy applies a ufunc to a batch and a broadcast (d,) operand in an
    inner loop of length d per point, several times slower than one flat
    loop over same-shape operands; the bits are the same either way.
    ``np.repeat`` builds the rows with one copy of d values per point.
    """
    if batch.ndim < 2:
        return vector
    points = math.prod(batch.shape[:-1])
    return np.repeat(vector[None, :], points, axis=0).reshape(batch.shape)


def design_rows(value, name: str) -> list[list[float]]:
    """``value`` as a list of rows of floats; ConfigurationError unless a
    non-empty list, tuple or 2-d array whose rows pass require_vector and
    share one length."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigurationError(f"{name} must be a non-empty list of rows")
    rows = [require_vector(row, f"a row of {name}") for row in value]
    if any(len(row) != len(rows[0]) for row in rows):
        raise ConfigurationError(f"{name} must be rows of equal length")
    return rows


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
    grad_witness: tuple[np.ndarray | np.integer, np.ndarray] | None
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

    family: str  # the family's name in a config
    config_keys: dict  # config key -> guard ``(value, where)``, one per field, in field order

    @property
    @abc.abstractmethod
    def dimension(self) -> int: ...

    @property
    @abc.abstractmethod
    def noise_shape(self) -> tuple[int, ...]:
        """Shape of one noise value, the draw of a single step."""

    @property
    def noise_dtype(self) -> np.dtype:
        """dtype of the values :meth:`noise_block` returns."""
        return np.dtype(float)

    @abc.abstractmethod
    def noise_block(self, rng, count: int):
        """Draw ``count`` noise values at once.

        The block holds the draws of ``count`` successive
        ``noise_block(rng, 1)`` calls and leaves the generator where they
        leave it, so recorded runs can be replayed.
        """

    def fill_noise_block(self, generators, out: np.ndarray) -> None:
        """Draw the next ``count = out.shape[0] >= 1`` noise values of every
        generator.

        ``out`` is a C-contiguous step-major block of shape
        ``(count, len(generators)) + noise_shape`` and ``noise_dtype``.
        Column i receives the bits of ``noise_block(generators[i], count)``,
        and every generator advances exactly as that call advances it.
        """
        count = out.shape[0]
        for i, gen in enumerate(generators):
            out[:, i] = self.noise_block(gen, count)

    @abc.abstractmethod
    def pointwise_loss(self, noise, x): ...

    def loss_at(self, noise):
        """``x -> pointwise_loss(noise, x)``, for many points at fixed noise.

        A family that gathers per-noise data gathers it once, here; the
        losses have the bits of pointwise_loss.
        """
        return functools.partial(self.pointwise_loss, noise)

    @abc.abstractmethod
    def pointwise_gradient(self, noise, x, out=None):
        """Gradient of the loss at ``x`` for ``noise``.

        With ``out`` given, the gradient is written into that array, whose
        shape must be the broadcast shape of the batch, and ``out`` is
        returned; the values are the same bits either way.
        """

    def alignment(self, noise, x, direction):
        """<direction, pointwise_gradient(noise_j, x)> over the draws j, in draw order.

        ``x`` is one point (N,) and ``direction`` one vector (N,), shared by
        every draw of ``noise``.
        """
        return row_dot(direction, self.pointwise_gradient(noise, x))

    def descend(self, noise, x, rates, out) -> None:
        """SGD steps from the batch ``x`` (R, N), one per rate of ``rates``.

        Step k uses the draws ``noise[k]``, one per row of ``x``, and writes
        its iterates, the previous ones minus rates[k] times their
        pointwise_gradient, into ``out[k]``; ``out`` has shape
        ``(len(rates), R, N)``.  Overrides must give the bits of this loop,
        non-finite values included.
        """
        point = x
        for k in range(rates.shape[0]):
            g = self.pointwise_gradient(noise[k], point, out=out[k])
            np.multiply(g, rates[k], out=g)
            point = np.subtract(point, g, out=g)

    @abc.abstractmethod
    def mean_loss_and_gradient(self, x):
        """``(loss, gradient)`` of the mean loss at ``x``."""

    @abc.abstractmethod
    def minimizer(self) -> np.ndarray:
        """The unique minimizer of the mean loss."""

    @abc.abstractmethod
    def certify(self, region_radius: float, x0) -> HypothesisCertificate:
        """Certify constants on the ball of ``region_radius`` around the minimizer.

        ``x0`` is the intended start point; it must lie inside the ball.
        """

    def _check_x(self, x) -> np.ndarray:
        arr = np.asarray(x)
        if arr.dtype != np.float64:
            if arr.dtype.kind not in "fiu":
                raise ConfigurationError(f"point must hold real numbers, not {arr.dtype}")
            arr = arr.astype(float)
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
    config_keys = {"curvature": config_guard(require_real, True), "center": require_vector,
                   "noise_halfwidth": config_guard(require_real, False)}

    def __post_init__(self):
        curvature = require_real(self.curvature, "'curvature'", error=ConfigurationError)
        object.__setattr__(self, "curvature", curvature)
        center = np.array(require_vector(self.center, "'center'"))
        if center.shape[0] > MAX_DIMENSION:
            raise ConfigurationError(f"dimension exceeds the cap of {MAX_DIMENSION}")
        center.flags.writeable = False
        object.__setattr__(self, "center", center)
        hw = require_real(self.noise_halfwidth, "'noise_halfwidth'", strict=False,
                          error=ConfigurationError)
        if not math.isfinite(2.0 * hw):
            # The noise law is uniform on [-hw, hw]; its width must be a double.
            raise ConfigurationError(
                f"'noise_halfwidth' {hw:.6g} is too large: the width 2 * halfwidth "
                "of the noise law is not a finite double"
            )
        object.__setattr__(self, "noise_halfwidth", hw)

    @property
    def dimension(self) -> int:
        return self.center.shape[0]

    @property
    def noise_shape(self) -> tuple[int, ...]:
        return (self.dimension,)

    def noise_block(self, rng, count: int) -> np.ndarray:
        return rng.uniform(
            -self.noise_halfwidth, self.noise_halfwidth, size=(count, self.dimension)
        )

    def fill_noise_block(self, generators, out: np.ndarray) -> None:
        """Draw the block in replication tiles of unit values.

        numpy's ``uniform(low, high)`` is ``low + (high - low) * random()``,
        one stream value per draw.  So each generator fills its rows of a
        contiguous replication-major tile of about _TILE_BYTES with
        ``random``, two ufuncs over the tile apply the same product and sum
        in an order that gives the same bits, and the tile goes into the
        step-major block with each (step, replication) noise value copied as
        one ``8 * d``-byte item.
        """
        count, dim = out.shape[0], self.dimension
        item = np.dtype((np.void, 8 * dim))
        block = out.view(item)[..., 0]
        per_tile = max(1, min(len(generators), _TILE_BYTES // (8 * dim * count)))
        tile = np.empty((per_tile, count, dim))
        low, high = -self.noise_halfwidth, self.noise_halfwidth
        for lo in range(0, len(generators), per_tile):
            part = generators[lo:lo + per_tile]
            values = tile[:len(part)]
            for j, gen in enumerate(part):
                gen.random(out=values[j])
            np.multiply(values, high - low, out=values)
            np.add(values, low, out=values)
            block[:, lo:lo + len(part)] = values.view(item)[..., 0].T

    def pointwise_loss(self, noise, x):
        x = self._check_x(x)
        diff = x - self.center - noise
        return 0.5 * self.curvature * sq_norm(diff)

    def pointwise_gradient(self, noise, x, out=None):
        x = self._check_x(x)
        # Without out each operation allocates its result, as the plain
        # expression does; with out every operation writes into it.
        diff = np.subtract(x, _rows_like(self.center, x), out=out)
        diff = np.subtract(diff, noise, out=out)
        return np.multiply(diff, self.curvature, out=out)

    def mean_loss_and_gradient(self, x):
        diff = self._check_x(x) - self.center
        # E||noise||^2 = dimension * halfwidth^2 / 3 for coordinatewise uniform noise.
        try:
            floor = self.curvature * self.dimension * self.noise_halfwidth**2 / 6.0
        except OverflowError:  # halfwidth^2 is not a double; the floor may be one
            floor = (self.curvature * self.noise_halfwidth * self.noise_halfwidth
                     * self.dimension / 6.0)
        loss = 0.5 * self.curvature * sq_norm(diff) + floor
        return loss, np.multiply(diff, self.curvature, out=diff)

    def minimizer(self) -> np.ndarray:
        return self.center.copy()

    def certify(self, region_radius: float, x0) -> HypothesisCertificate:
        region_radius = _certify_radius(self, region_radius, x0)
        reach = self.noise_halfwidth * math.sqrt(self.dimension)
        bound = _squared_bound(self.curvature * (region_radius + reach))
        contained = reach <= region_radius
        return HypothesisCertificate(
            strong_convexity=self.curvature,
            grad_sq_bound=bound,
            region_center=self.minimizer(),
            region_radius=region_radius,
            guaranteed_containment=contained,
        )


@dataclass(frozen=True, eq=False)
class FiniteSumLeastSquares(StochasticProblem):
    """Least squares over a finite design, one row sampled per step.

    l(i, x) = (1 / 2) * (<design[i], x> - targets[i])^2 with the row index i
    uniform over the rows.  The mean loss is the classical least squares
    objective scaled by 1 / K; its curvature is the smallest eigenvalue of
    the normalized Gram matrix design^T design / K.

    The mean quantities are a quadratic form centred at a point c, built
    once with ``einsum``: with G = design^T design, r the residuals at c,
    g = design^T r and e = x - c, the mean loss is
    (|r|^2 + 2 <g, e> + e^T G e) / (2K) and the mean gradient (g + G e) / K.
    c solves G c = design^T targets, or is 0 where G is singular or the
    solution is not finite.  The form is the only normal-equations state:
    ``minimizer`` returns c and ``certify`` reads G and r, so the audit
    evaluates the form near its centre, where |r|^2 does not cancel against
    the size of the targets.  A point
    costs d^2 multiply-adds of its own and no BLAS call, so its values do
    not depend on the batch it is in or on the BLAS threads.
    """

    design: np.ndarray
    targets: np.ndarray

    family = "finite_sum_least_squares"
    config_keys = {"design_rows": design_rows, "targets": require_vector}

    def __post_init__(self):
        design = np.array(design_rows(self.design, "'design_rows'"))
        rows, dim = design.shape
        if dim > MAX_DIMENSION:
            raise ConfigurationError(f"dimension exceeds the cap of {MAX_DIMENSION}")
        if rows < dim:
            raise ConfigurationError(
                f"'design_rows' needs at least as many rows ({rows}) as columns ({dim})"
            )
        targets = np.array(require_vector(self.targets, "'targets'", rows))
        design.flags.writeable = False
        targets.flags.writeable = False
        object.__setattr__(self, "design", design)
        object.__setattr__(self, "targets", targets)
        with np.errstate(all="ignore"):
            gram = np.einsum("ki,kj->ij", design, design)
            try:
                centre = np.linalg.solve(gram, np.einsum("ki,k->i", design, targets))
            except np.linalg.LinAlgError:
                centre = np.zeros(dim)
            if not np.all(np.isfinite(centre)):
                centre = np.zeros(dim)
            residual = np.einsum("kj,j->k", design, centre) - targets
            grad_c = np.einsum("ki,k->i", design, residual)
            form = (gram, centre, residual, grad_c, sq_norm(residual))
        object.__setattr__(self, "_form", form)

    @property
    def dimension(self) -> int:
        return self.design.shape[1]

    @property
    def rows(self) -> int:
        return self.design.shape[0]

    @property
    def noise_shape(self) -> tuple[int, ...]:
        return ()

    @property
    def noise_dtype(self) -> np.dtype:
        """The smallest unsigned type that holds every row index."""
        return np.min_scalar_type(self.rows - 1)

    def noise_block(self, rng, count: int) -> np.ndarray:
        # The int64 draws, stored in noise_dtype.
        return rng.integers(self.rows, size=count).astype(self.noise_dtype)

    def pointwise_loss(self, noise, x):
        return self.loss_at(noise)(self._check_x(x))

    def loss_at(self, noise):
        """The loss at fixed rows, gathered once for every point it is called on."""
        rows, targets = self.design[noise], self.targets[noise]

        def loss(x):
            residual = row_dot(rows, self._check_x(x)) - targets
            return 0.5 * residual * residual

        return loss

    def pointwise_gradient(self, noise, x, out=None):
        x = self._check_x(x)
        # The default bounds-checked mode: a bad row index raises.
        rows = self.design.take(noise, axis=0, out=out)
        residual = row_dot(rows, x) - self.targets[noise]
        return np.multiply(rows, np.asarray(residual)[..., None], out=out)

    def descend(self, noise, x, rates, out) -> None:
        """The steps of the base loop, with the rows and targets of all the
        steps gathered at once.

        ``out`` first receives the design rows of every step, and step k
        turns its rows into its iterates in place: the residual
        <row, x> - target, the row times the residual, the rate product and
        the subtraction from the previous iterate are the operations of
        pointwise_gradient and the base loop, in the same order, so the
        bits are the same.  ``c_einsum`` is ``row_dot`` without the Python
        wrapper of ``np.einsum``.
        """
        # The bounds-checked take of the targets raises on a bad row first,
        # so the rows can go straight into out: a bounds-checked take with
        # out copies through a buffer of its size.
        targets = self.targets.take(noise)
        rows = self.design.take(noise, axis=0, out=out, mode="wrap")
        residual = np.empty(x.shape[0])
        column = residual[:, None]
        point = x
        for row, target, rate in zip(rows, targets, rates.tolist()):
            c_einsum("ij,ij->i", row, point, out=residual)
            np.subtract(residual, target, out=residual)
            np.multiply(row, column, out=row)
            np.multiply(row, rate, out=row)
            point = np.subtract(point, row, out=row)

    def alignment(self, noise, x, direction):
        """<direction, pointwise_gradient(noise_j, x)> over the draws j, in draw order.

        With at least as many draws as rows, the value of every row is
        computed once and each draw takes the value of its row.  A value
        depends only on its row and goes through the same operations either
        way, so the result is the direct path bit for bit.  A table with a
        non-finite value falls back to the direct path, which warns only
        about rows actually drawn; a row index out of range raises
        IndexError on either path.
        """
        noise = np.asarray(noise)
        if noise.size >= self.rows:
            with np.errstate(over="ignore", invalid="ignore"):
                table = row_dot(direction, self.pointwise_gradient(np.arange(self.rows), x))
            if np.isfinite(table).all():
                return table.take(noise)
        return super().alignment(noise, x, direction)

    def mean_loss_and_gradient(self, x):
        """Both mean quantities from one evaluation of the form at ``x``."""
        gram, centre, _, grad_c, sq_c = self._form
        e = self._check_x(x) - centre
        grad = np.einsum("ij,...j->...i", gram, e)
        np.add(grad, grad_c, out=grad)
        # e^T G e + 2 <g, e> as <e, G e + g> + <e, g>.
        loss = (row_dot(e, grad) + row_dot(e, grad_c) + sq_c) / (2 * self.rows)
        return loss, np.divide(grad, self.rows, out=grad)

    def minimizer(self) -> np.ndarray:
        """The form's centre c, once it passes a first-order test.

        The test bounds the form's gradient g = design^T r at c relative to
        the backward-error scale of the normal equations,
        ||design|| * (||design|| * ||c|| + ||targets||) in Frobenius norms,
        which also bounds the rounding of r and of g; so the test does not
        move when the design and targets are scaled together.
        """
        _, centre, _, grad_c, _ = self._form
        width = math.sqrt(float(sq_norm(self.design.ravel())))
        fit = width * math.sqrt(float(sq_norm(centre))) + math.sqrt(float(sq_norm(self.targets)))
        # False on a NaN, and on a scale that overflows.
        if not math.sqrt(float(sq_norm(grad_c))) <= 1e-9 * width * fit < math.inf:
            raise CertificationError(
                "minimizer fails the first-order optimality check; "
                "the design is singular or too ill-conditioned"
            )
        return centre.copy()

    def certify(self, region_radius: float, x0) -> HypothesisCertificate:
        # _certify_radius checks the minimizer, the form's centre.
        region_radius = _certify_radius(self, region_radius, x0)
        gram, centre, residual, _, _ = self._form
        eigenvalues = np.linalg.eigvalsh(gram / self.rows)
        smallest = float(eigenvalues[0])
        if smallest <= RANK_TOL * float(eigenvalues[-1]):
            raise CertificationError(
                "design matrix is rank deficient; the mean loss is not strongly convex"
            )
        row_norms = np.sqrt(sq_norm(self.design))
        per_row = row_norms * (row_norms * region_radius + np.abs(residual))
        bound = _squared_bound(float(np.max(per_row)))
        return HypothesisCertificate(
            strong_convexity=smallest,
            grad_sq_bound=bound,
            region_center=centre.copy(),
            region_radius=region_radius,
            guaranteed_containment=False,
        )


# Every problem family by name; its config_keys give its constructor's arguments in order.
FAMILIES = {cls.family: cls for cls in (ShiftedQuadratic, FiniteSumLeastSquares)}


def _squared_bound(root: float) -> float:
    """``root ** 2`` as a grad_sq_bound; CertificationError unless finite."""
    try:
        bound = root**2
    except OverflowError:
        bound = math.inf
    if not math.isfinite(bound):
        raise CertificationError(
            f"grad_sq_bound = {root:.6g}^2 is not a finite double; "
            "shrink region_radius or rescale the problem"
        )
    return bound


def _certify_radius(problem, region_radius, x0) -> float:
    region_radius = require_real(region_radius, "region_radius", error=CertificationError)
    x0 = np.array(require_vector(x0, "'x0'", problem.dimension))
    # Squared distances, as the engine and the descent check compare them.
    start_sq = float(sq_norm(x0 - problem.minimizer()))
    if start_sq > region_radius * region_radius:
        raise CertificationError(
            f"x0 lies at squared distance {start_sq:.17g} from the minimizer, "
            f"outside the region of squared radius {region_radius * region_radius:.17g}"
        )
    return region_radius


def sample_in_ball(center: np.ndarray, radius: float, count: int, rng) -> np.ndarray:
    """Draw ``count`` points uniformly from the closed ball around ``center``."""
    center = np.asarray(center, dtype=float)
    dim = center.shape[0]
    directions = rng.normal(size=(count, dim))
    norms = sq_norm(directions)
    np.sqrt(norms, out=norms)
    norms[norms == 0.0] = 1.0
    # scale = radius * u ** (1 / dim) / norm, computed in the buffer of the
    # uniform draws u; ``**=`` takes the path of ``**``, sqrt at dim = 2.
    scale = rng.uniform(0.0, 1.0, size=count)
    scale **= 1.0 / dim
    np.multiply(scale, radius, out=scale)
    np.divide(scale, norms, out=scale)
    # center + directions * scale, computed in the buffer of the directions.
    np.multiply(directions, scale[:, None], out=directions)
    return np.add(center, directions, out=directions)


def _verify_chunks(samples: int, dimension: int) -> list[slice]:
    """Slices of _VERIFY_BYTES // (8 * max(dimension, 16)) samples, at least
    one, that cover the ``samples`` samples of one block in order.

    A sample's scalar temporaries (its ratio, two losses, alignment, quad,
    slack and scale in the audit) cost about as much as one 16-wide vector,
    so below 16 dimensions the chunk stops growing: 4096 samples at d <= 16.
    """
    size = max(1, _VERIFY_BYTES // (8 * max(dimension, 16)))
    return [slice(lo, min(lo + size, samples)) for lo in range(0, samples, size)]


def usable_cores() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _StageBlocks:
    """``(generator, count)`` of each block of a verify stage of ``samples``
    at ``dimension``, a sequence whose item b builds its generator when it
    is taken: a generator on ``rng.bit_generator.jumped(b)``, whose Philox
    counter is b * 2^128 ahead (block 0 draws what ``rng`` would draw).

    A block holds the largest power of two of samples whose (samples,
    dimension) float64 array fits in _VERIFY_BYTES, and the last block the
    remainder: 65536 samples at d = 1, 4096 at d = 9..16 and 1024 at d = 64.
    ``rng`` itself never draws, so a block's draws do not depend on when the
    others run, and a stage holds generators for the blocks being drawn, not
    one per block.  A stage whose per-block results cannot be allocated is
    refused before any block draws; np.empty touches no page.
    """

    def __init__(self, rng, samples: int, dimension: int):
        self._bits, self._samples = rng.bit_generator, samples
        self._size = 1 << max(0, (_VERIFY_BYTES // (8 * dimension)).bit_length() - 1)
        self._blocks = -(-samples // self._size)
        try:
            np.empty(self._blocks)
        except (ValueError, MemoryError, OverflowError):
            raise UsageError(f"{samples} samples do not fit in memory") from None

    def __len__(self) -> int:
        return self._blocks

    def __getitem__(self, b: int) -> tuple:
        if not 0 <= b < self._blocks:
            raise IndexError(b)
        # A block's draws and temporaries take about four block arrays, and
        # glibc returns the free top of a heap to the system once it exceeds
        # twice the largest mapped array freed so far, so each block faulted
        # its pages in again (43 000 minor faults per ls-audit verify).
        # Freeing one untouched mapped array of four block arrays lifts that
        # bound; it stays under the 4 MiB at which numpy asks for huge pages.
        np.empty(4 * _VERIFY_BYTES, dtype=np.uint8)
        count = min(self._size, self._samples - b * self._size)
        return np.random.Generator(self._bits.jumped(b)), count


def _map_blocks(*stages) -> list:
    """``[reduce([fn(block) for block in blocks]) for fn, blocks, reduce in
    stages]``, with the blocks on one thread per usable core when there is
    more than one block in all and more than one core.

    numpy releases the GIL in the draws, ufuncs, ``einsum`` and BLAS, so the
    blocks run in parallel.  The threads share one pool: they take the
    blocks in stage order, then block order, as they free up, so a thread
    that finds no block left in a stage takes the next stage's first block
    while the others finish theirs.  If a block raises, or the caller is
    interrupted, no block starts once the caller's ``finally`` runs, every
    thread that started is joined, and the exception propagates (of the
    blocks that raised, the first in stage and block order).
    """
    count = min(usable_cores(), sum(len(blocks) for _, blocks, _ in stages))
    if count <= 1:
        return [reduce([fn(block) for block in blocks]) for fn, blocks, reduce in stages]
    results, failures = [[None] * len(blocks) for _, blocks, _ in stages], {}
    # One iterator of (stage, block) for all threads, built of C iterators
    # only, so next() on it is atomic under the GIL.
    order = itertools.chain(*(
        zip(itertools.repeat(s), range(len(blocks))) for s, (_, blocks, _) in enumerate(stages)
    ))
    stop, finished = threading.Event(), threading.Semaphore(0)

    def work():
        try:
            for s, b in order:
                if stop.is_set():
                    return
                fn, blocks, _ = stages[s]
                try:
                    results[s][b] = fn(blocks[b])
                except BaseException as exc:
                    failures[s, b] = exc
                    stop.set()
        finally:
            finished.release()

    threads = []
    try:
        for _ in range(count):
            threads.append(threading.Thread(target=work))
            threads[-1].start()
        # Not Thread.join: on Python 3.11 an interrupted join marks a running
        # thread as stopped, and a later join returns at once.
        for _ in threads:
            finished.acquire()
    finally:
        stop.set()
        for thread in threads:
            # start() may raise after the thread set its ident but before it
            # counts as started, when join() refuses it for a moment; a thread
            # with no ident yet runs no block, as stop is set.
            while thread.ident is not None:
                try:
                    thread.join()
                    break
                except RuntimeError:
                    time.sleep(1e-4)
    if failures:
        raise failures[min(failures)]
    return [reduce(blocks) for (_, _, reduce), blocks in zip(stages, results)]


def _audit_values(problem, cert, noise, x, y) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample squared-gradient ratios and relative convexity slacks."""
    # At most two (samples, d) temporaries live at once: each gradient is
    # dropped as soon as it is used, and the loss at y comes first, before
    # the gradient at x and the gap are held.  The per-sample values are
    # built in place, each in the buffer of its first operand.
    grads = problem.pointwise_gradient(noise, x)
    ratios = sq_norm(grads)
    del grads
    np.divide(ratios, cert.grad_sq_bound, out=ratios)
    loss_y = np.asarray(problem.mean_loss_and_gradient(y)[0])
    loss_x, grad_x = map(np.asarray, problem.mean_loss_and_gradient(x))
    gap = y - x
    alignment = np.asarray(row_dot(grad_x, gap))
    del grad_x
    quad = sq_norm(gap)
    del gap
    np.multiply(0.5 * cert.strong_convexity, quad, out=quad)
    slack = loss_y - loss_x
    np.subtract(slack, alignment, out=slack)
    np.subtract(slack, quad, out=slack)
    # max(1, |loss_x|, |loss_y|, quad), one operand at a time; max is exact,
    # so the order does not change the value.
    scale = np.abs(loss_x, out=loss_x)
    np.maximum(scale, 1.0, out=scale)
    np.maximum(scale, np.abs(loss_y, out=loss_y), out=scale)
    np.maximum(scale, quad, out=scale)
    return ratios, np.divide(slack, scale, out=slack)


def _audit_arrays(problem, cert, noise, xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """_audit_values of every sample of one block, evaluated chunk by chunk."""
    samples = xs.shape[0]
    ratios = np.empty(samples)
    rel_slack = np.empty(samples)
    with np.errstate(over="ignore", invalid="ignore"):
        for part in _verify_chunks(samples, problem.dimension):
            ratios[part], rel_slack[part] = _audit_values(
                problem, cert, noise[part], xs[part], ys[part]
            )
    return ratios, rel_slack


def _audit_block(problem, cert, block) -> tuple:
    """Draw one block, x, then y, then noise, and audit it: its worst ratio
    and slack (the first, a NaN before any number, as np.argmax and
    np.argmin pick them), its violation counts and copies of the draws of
    both worst samples."""
    rng, count = block
    xs = sample_in_ball(cert.region_center, cert.region_radius, count, rng)
    ys = sample_in_ball(cert.region_center, cert.region_radius, count, rng)
    noise = problem.noise_block(rng, count)
    ratios, rel_slack = _audit_arrays(problem, cert, noise, xs, ys)
    worst_grad = int(np.argmax(ratios))
    worst_convexity = int(np.argmin(rel_slack))
    return (
        float(ratios[worst_grad]),
        int(np.count_nonzero(~np.isfinite(ratios) | (ratios > 1.0 + AUDIT_RTOL))),
        (noise[worst_grad].copy(), xs[worst_grad].copy()),
        float(rel_slack[worst_convexity]),
        int(np.count_nonzero(~np.isfinite(rel_slack) | (rel_slack < -AUDIT_RTOL))),
        (xs[worst_convexity].copy(), ys[worst_convexity].copy()),
    )


def _merge_audits(parts) -> tuple:
    """The _audit_block result of consecutive blocks from theirs, in order:
    the first worst ratio and slack, as one np.argmax and np.argmin over
    all their samples pick them, with their witnesses, and the summed
    violation counts."""
    ratios, grad_bad, grad_witnesses, slacks, convexity_bad, convexity_witnesses = zip(*parts)
    worst_grad = int(np.argmax(ratios))
    worst_convexity = int(np.argmin(slacks))
    return (
        ratios[worst_grad], sum(grad_bad), grad_witnesses[worst_grad],
        slacks[worst_convexity], sum(convexity_bad), convexity_witnesses[worst_convexity],
    )


def _audit_stage(problem, cert, samples, rng) -> tuple:
    """audit_certificate as a stage of _map_blocks: its block function, its
    blocks and the report of its block results, merged in block order."""
    samples = require_int(samples, "samples", 1)

    def report(blocks) -> AuditReport:
        ratio, grad_violations, grad_witness, slack, convexity_violations, convexity_witness = (
            _merge_audits(blocks)
        )
        return AuditReport(
            samples=samples,
            max_grad_ratio=ratio,
            min_convexity_slack=slack,
            grad_violations=grad_violations,
            convexity_violations=convexity_violations,
            passed=grad_violations == 0 and convexity_violations == 0,
            grad_witness=grad_witness if grad_violations else None,
            convexity_witness=convexity_witness if convexity_violations else None,
        )

    blocks = _StageBlocks(rng, samples, problem.dimension)
    return functools.partial(_audit_block, problem, cert), blocks, report


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
    beyond AUDIT_RTOL relative.  A ratio or slack that is not finite is a
    violation, and a NaN is the worst value.

    The samples come in the blocks of _StageBlocks, each drawn from ``rng``
    jumped by its block number, x, then y, then noise; ``rng`` does not
    move.  A block is audited in chunks (_verify_chunks), so a thread holds
    O(block * d) memory: at most 512 KiB per draw of x or y.  The blocks run
    on the thread pool of _map_blocks and are merged in order, so the report
    is that of one argmax and one argmin over all samples and does not
    depend on how many threads ran the blocks, nor on whether
    verify_certificate ran them beside the gradient check.
    """
    return _map_blocks(_audit_stage(problem, cert, samples, rng))[0]


def _max_gradient_error(problem, noise, x) -> float:
    """Largest relative error of the analytic gradients at the points ``x``.

    Shifts one coordinate of a working copy of ``x`` at a time and restores
    it before the next; a NaN error is carried to the result.  The 2 * d
    losses come from one ``loss_at(noise)``, so per-noise data is gathered
    once per chunk.
    """
    grads = np.asarray(problem.pointwise_gradient(noise, x))
    loss = problem.loss_at(noise)
    h = 1e-6 * (1.0 + np.sqrt(np.asarray(sq_norm(x))))
    shifted = x.copy()
    worst = 0.0
    for j in range(problem.dimension):
        shifted[:, j] = x[:, j] + h
        plus = np.asarray(loss(shifted))
        shifted[:, j] = x[:, j] - h
        minus = np.asarray(loss(shifted))
        shifted[:, j] = x[:, j]
        approx = (plus - minus) / (2.0 * h)
        rel = np.abs(approx - grads[:, j]) / np.maximum(1.0, np.abs(grads[:, j]))
        worst = np.maximum(worst, np.max(rel))
    return float(worst)


def _gradient_block(problem, cert, block) -> float:
    """Draw one block, x then noise, and return its largest gradient error."""
    rng, count = block
    xs = sample_in_ball(cert.region_center, cert.region_radius, count, rng)
    noise = problem.noise_block(rng, count)
    worst = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for part in _verify_chunks(count, problem.dimension):
            error = _max_gradient_error(problem, noise[part], xs[part])
            worst = float(np.maximum(worst, error))
    return worst


def _gradient_stage(problem, cert, samples, rng) -> tuple:
    """check_gradients as a stage of _map_blocks (see _audit_stage)."""
    samples = require_int(samples, "samples", 1)

    def report(errors) -> GradientCheckReport:
        max_rel = float(np.max(errors))
        return GradientCheckReport(
            samples=samples,
            max_rel_error=max_rel,
            tolerance=GRADIENT_RTOL,
            passed=max_rel <= GRADIENT_RTOL,
        )

    blocks = _StageBlocks(rng, samples, problem.dimension)
    return functools.partial(_gradient_block, problem, cert), blocks, report


def check_gradients(
    problem: StochasticProblem,
    cert: HypothesisCertificate,
    samples: int,
    rng,
) -> GradientCheckReport:
    """Compare analytic gradients against central finite differences.

    Uses step h = 1e-6 * (1 + ||x||) per sample and measures the error of
    each coordinate relative to max(1, |gradient coordinate|); the check
    passes up to GRADIENT_RTOL.  A NaN error is the worst error and fails it.
    The samples are drawn and checked in the blocks and chunks of
    audit_certificate, each block x, then noise, on the same thread pool,
    and ``rng`` does not move.
    """
    return _map_blocks(_gradient_stage(problem, cert, samples, rng))[0]


def verify_certificate(
    problem: StochasticProblem, cert: HypothesisCertificate, audit_samples: int, audit_rng,
    gradient_samples: int, gradient_rng,
) -> tuple[AuditReport, GradientCheckReport]:
    """``(audit_certificate(...), check_gradients(...))`` of the certificate,
    with the bits of the two calls.

    Both stages are planned first, so a sample count of either that cannot
    be allocated is refused before any block draws, and their blocks run on
    one thread pool: no thread waits for the audit's last block before it
    starts the gradient check.
    """
    return tuple(_map_blocks(
        _audit_stage(problem, cert, audit_samples, audit_rng),
        _gradient_stage(problem, cert, gradient_samples, gradient_rng),
    ))
