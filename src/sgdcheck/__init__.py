"""Seeded Monte Carlo verification of SGD convergence guarantees.

The package runs plain stochastic gradient descent on strongly convex
families with certified constants, estimates the mean squared distance to
the optimum over replications, and checks it against the per-step envelope,
the constant-rate neighborhood bound, and decaying-rate convergence claims.
"""
from .analyzer import DnSeries, ProductDecay, bound_sequence, product_decay
from .checks import (
    Verdict,
    check_convergence,
    check_descent_inequality,
    check_neighborhood,
    check_recurrence,
)
from .config import (
    ExperimentConfig,
    build_problem,
    build_schedule,
    load_config,
    parse_config,
    serialize_config,
)
from .engine import (
    derive_seed,
    philox_generator,
    run_replications,
    run_seeds,
)
from .errors import (
    CertificationError,
    ConfigurationError,
    DivergenceError,
    DomainError,
    SgdCheckError,
    UsageError,
)
from .objective import (
    AuditReport,
    FiniteSumLeastSquares,
    GradientCheckReport,
    HypothesisCertificate,
    ShiftedQuadratic,
    StochasticProblem,
    audit_certificate,
    check_gradients,
    sample_in_ball,
    verify_certificate,
)
from .schedule import (
    ConstantSchedule,
    InverseTimeSchedule,
    ScheduleReport,
    validate_schedule,
)

__all__ = [
    "AuditReport",
    "CertificationError",
    "ConfigurationError",
    "ConstantSchedule",
    "DivergenceError",
    "DnSeries",
    "DomainError",
    "ExperimentConfig",
    "FiniteSumLeastSquares",
    "GradientCheckReport",
    "HypothesisCertificate",
    "InverseTimeSchedule",
    "ProductDecay",
    "ScheduleReport",
    "SgdCheckError",
    "ShiftedQuadratic",
    "StochasticProblem",
    "UsageError",
    "Verdict",
    "audit_certificate",
    "bound_sequence",
    "build_problem",
    "build_schedule",
    "check_convergence",
    "check_descent_inequality",
    "check_gradients",
    "check_neighborhood",
    "check_recurrence",
    "derive_seed",
    "load_config",
    "parse_config",
    "philox_generator",
    "product_decay",
    "run_replications",
    "run_seeds",
    "sample_in_ball",
    "serialize_config",
    "validate_schedule",
    "verify_certificate",
]
