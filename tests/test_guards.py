"""The shared argument guards: one integer guard, one checkpoint validator."""
import json

import numpy as np
import pytest

from sgdcheck import (
    ConfigurationError,
    ConstantSchedule,
    DnSeries,
    InverseTimeSchedule,
    SeededGenerator,
    ShiftedQuadratic,
    UsageError,
    audit_certificate,
    bound_sequence,
    check_convergence,
    check_descent_inequality,
    check_gradients,
    derive_seed,
    parse_config,
    product_decay,
    run_replications,
    run_seeds,
)
from sgdcheck.analyzer import validate_neighborhood

PROBLEM = ShiftedQuadratic(curvature=1.0, center=np.zeros(2), noise_halfwidth=0.5)
CERT = PROBLEM.certify(2.0, [1.0, 0.0])
CONSTANT = ConstantSchedule(rho=0.1)
INVERSE = InverseTimeSchedule(scale=1.0, offset=3.0)

# Every call site of errors.require_int: (label, minimum, call with the
# guarded argument set to the value and every other argument valid).
CALL_SITES = [
    ("derive_seed master_seed", 0, lambda v: derive_seed(v, 0)),
    ("derive_seed index", 0, lambda v: derive_seed(7, v)),
    ("run_seeds steps", 1, lambda v: run_seeds(PROBLEM, CONSTANT, [1.0, 0.0], v, CERT, [3])),
    ("run_replications count", 2,
     lambda v: run_replications(PROBLEM, CONSTANT, [1.0, 0.0], 2, CERT, 7, v)),
    ("bound_sequence steps", 1, lambda v: bound_sequence(1.0, CONSTANT, CERT, v)),
    ("validate_neighborhood window", 1, lambda v: validate_neighborhood(CERT, CONSTANT, v, 10)),
    ("product_decay n", 0, lambda v: product_decay(INVERSE, 1.0, v, 3)),
    ("product_decay k", 0, lambda v: product_decay(INVERSE, 1.0, 0, v)),
    ("check_descent_inequality samples", 100,
     lambda v: check_descent_inequality(PROBLEM, CERT, [1.0, 0.0], v, SeededGenerator(1))),
    ("audit_certificate samples", 1,
     lambda v: audit_certificate(PROBLEM, CERT, v, SeededGenerator(2))),
    ("check_gradients samples", 1, lambda v: check_gradients(PROBLEM, CERT, v, SeededGenerator(3))),
    ("constant rate", 0, CONSTANT.rate),
    ("constant rates start", 0, lambda v: CONSTANT.rates(v, 3)),
    ("constant rates count", 0, lambda v: CONSTANT.rates(0, v)),
    ("inverse_time rate", 0, INVERSE.rate),
    ("inverse_time rates start", 0, lambda v: INVERSE.rates(v, 3)),
    ("inverse_time rates count", 0, lambda v: INVERSE.rates(0, v)),
]


@pytest.mark.parametrize("label, minimum, call", CALL_SITES, ids=[c[0] for c in CALL_SITES])
def test_integer_guard_at_every_call_site(label, minimum, call):
    for bad in (True, 1.0, float(minimum), minimum - 1):
        with pytest.raises(UsageError, match=r"must be an integer >= "):
            call(bad)
    call(np.int64(minimum))


@pytest.mark.parametrize("check", [audit_certificate, check_gradients])
def test_sample_counts_are_not_truncated(check):
    for bad in (2.9, True, 0):
        with pytest.raises(UsageError):
            check(PROBLEM, CERT, bad, SeededGenerator(4))


HORIZON = 10

BAD_CHECKPOINTS = [
    [],
    [[1]],
    [[1, 0.5, 2]],
    [5],
    [[1.5, 1.0]],
    [[-1, 1.0]],
    [[HORIZON + 1, 1.0]],
    [[5, 1.0], [5, 0.5]],
    [[5, 1.0], [3, 0.5]],
    [[5, True]],
    [[5, 0.0]],
    [[5, -1.0]],
    pytest.param([[5, 10**400]], id="[[5, 10**400]]"),
]


@pytest.mark.parametrize("points", BAD_CHECKPOINTS, ids=json.dumps)
def test_config_and_analyzer_refuse_checkpoints_alike(points):
    series = DnSeries(
        seeds=(1, 2),
        mean=np.ones(HORIZON + 1),
        stderr=np.zeros(HORIZON + 1),
        in_region_fraction=np.ones(HORIZON + 1),
        final_x=np.zeros((2, 1)),
    )
    with pytest.raises(UsageError) as usage:
        check_convergence(series, points)
    document = {
        "problem": {"family": "shifted_quadratic", "curvature": 1.0, "center": [0.0],
                    "noise_halfwidth": 0.5},
        "schedule": {"kind": "constant", "rho": 0.05},
        "x0": [1.0],
        "horizon": HORIZON,
        "replications": 2,
        "master_seed": 7,
        "region_radius": 2.0,
        "checks": [{"type": "recurrence"}, {"type": "convergence", "checkpoints": points}],
    }
    with pytest.raises(ConfigurationError) as config:
        parse_config(json.dumps(document))
    assert str(config.value) == f"'checkpoints' in checks[1]: {usage.value}"
