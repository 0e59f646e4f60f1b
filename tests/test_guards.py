"""The shared argument guards: one integer guard, one real guard, one
vector guard, the config keys that call them and one checkpoint validator."""
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

import sgdcheck
from sgdcheck import (
    CertificationError,
    ConfigurationError,
    ConstantSchedule,
    DnSeries,
    FiniteSumLeastSquares,
    InverseTimeSchedule,
    SeededGenerator,
    ShiftedQuadratic,
    UsageError,
    audit_certificate,
    bound_sequence,
    check_convergence,
    check_descent_inequality,
    check_gradients,
    check_neighborhood,
    check_recurrence,
    derive_seed,
    parse_config,
    product_decay,
    run_replications,
    run_seeds,
    validate_schedule,
)
from sgdcheck import config
from sgdcheck.analyzer import validate_lemma
from sgdcheck.checks import CHECKS, descent_verdict, validate_neighborhood
from sgdcheck.objective import FAMILIES

PROBLEM = ShiftedQuadratic(curvature=1.0, center=np.zeros(2), noise_halfwidth=0.5)
CERT = PROBLEM.certify(2.0, [1.0, 0.0])
CONSTANT = ConstantSchedule(rho=0.1)
INVERSE = InverseTimeSchedule(scale=1.0, offset=3.0)

UINT64_MAX = 2**64 - 1

# Every call site of errors.require_int: (label, minimum, maximum or None,
# call with the guarded argument set to the value and every other argument
# valid).
CALL_SITES = [
    ("derive_seed master_seed", 0, UINT64_MAX, lambda v: derive_seed(v, 0)),
    ("derive_seed index", 0, UINT64_MAX, lambda v: derive_seed(7, v)),
    ("SeededGenerator seed", 0, UINT64_MAX, lambda v: SeededGenerator(v)),
    ("run_seeds seed", 0, UINT64_MAX,
     lambda v: run_seeds(PROBLEM, CONSTANT, [1.0, 0.0], 2, CERT, [v])),
    ("run_seeds steps", 1, None, lambda v: run_seeds(PROBLEM, CONSTANT, [1.0, 0.0], v, CERT, [3])),
    ("run_replications count", 2, None,
     lambda v: run_replications(PROBLEM, CONSTANT, [1.0, 0.0], 2, CERT, 7, v)),
    ("bound_sequence steps", 1, None, lambda v: bound_sequence(1.0, CONSTANT, CERT, v)),
    ("validate_neighborhood window", 1, None,
     lambda v: validate_neighborhood(CERT, CONSTANT, v, 10)),
    ("product_decay n", 0, None, lambda v: product_decay(INVERSE, 1.0, v, 3)),
    ("product_decay k", 0, None, lambda v: product_decay(INVERSE, 1.0, 0, v)),
    ("check_descent_inequality samples", 100, None,
     lambda v: check_descent_inequality(PROBLEM, CERT, [1.0, 0.0], v, SeededGenerator(1))),
    ("descent_verdict points", 1, None, lambda v: descent_verdict(PROBLEM, CERT, 7, v, 100)),
    ("audit_certificate samples", 1, None,
     lambda v: audit_certificate(PROBLEM, CERT, v, SeededGenerator(2))),
    ("check_gradients samples", 1, None,
     lambda v: check_gradients(PROBLEM, CERT, v, SeededGenerator(3))),
    ("constant validate_lemma n", 0, None, lambda v: validate_lemma(CONSTANT, 1.0, v)),
    ("constant rates start", 0, None, lambda v: CONSTANT.rates(v, 3)),
    ("constant rates count", 0, None, lambda v: CONSTANT.rates(0, v)),
    ("inverse_time validate_lemma n", 0, None, lambda v: validate_lemma(INVERSE, 1.0, v)),
    ("inverse_time rates start", 0, None, lambda v: INVERSE.rates(v, 3)),
    ("inverse_time rates count", 0, None, lambda v: INVERSE.rates(0, v)),
]


@pytest.mark.parametrize(
    "label, minimum, maximum, call", CALL_SITES, ids=[c[0] for c in CALL_SITES]
)
def test_integer_guard_at_every_call_site(label, minimum, maximum, call):
    bound = f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
    # No 64-bit word holds 2**64: it is refused with or without a maximum.
    for bad in (True, 1.0, float(minimum), minimum - 1, 2**64):
        with pytest.raises(UsageError, match=rf"must be an integer {re.escape(bound)}$"):
            call(bad)
    call(np.int64(minimum))


def flat_series(horizon: int) -> DnSeries:
    """Two replications with d_n = 1 and no spread at every step."""
    return DnSeries(
        seeds=(1, 2),
        mean=np.ones(horizon + 1),
        stderr=np.zeros(horizon + 1),
        in_region_fraction=np.ones(horizon + 1),
        final_x=np.zeros((2, 1)),
    )


# Every call site of errors.require_real: (label, strict, error class, the
# message, call with the guarded argument set to the value and every other
# argument valid).  1.5 and 1 are valid at every site.
REAL_SITES = [
    ("ShiftedQuadratic curvature", True, ConfigurationError,
     "'curvature' must be a finite positive real",
     lambda v: ShiftedQuadratic(curvature=v, center=np.zeros(2), noise_halfwidth=0.5)),
    ("ShiftedQuadratic noise_halfwidth", False, ConfigurationError,
     "'noise_halfwidth' must be a finite real >= 0",
     lambda v: ShiftedQuadratic(curvature=1.0, center=np.zeros(2), noise_halfwidth=v)),
    ("certify region_radius", True, CertificationError,
     "region_radius must be a finite positive real", lambda v: PROBLEM.certify(v, [1.0, 0.0])),
    ("ConstantSchedule rho", True, ConfigurationError, "'rho' must be a finite positive real",
     lambda v: ConstantSchedule(rho=v)),
    ("InverseTimeSchedule scale", True, ConfigurationError,
     "'scale' must be a finite positive real", lambda v: InverseTimeSchedule(scale=v, offset=3.0)),
    ("InverseTimeSchedule offset", True, ConfigurationError,
     "'offset' must be a finite positive real", lambda v: InverseTimeSchedule(scale=1.0, offset=v)),
    ("validate_schedule mu", True, UsageError, "mu must be a finite positive real",
     lambda v: validate_schedule(CONSTANT, v)),
    ("product_decay mu", True, UsageError, "mu must be a finite positive real",
     lambda v: product_decay(INVERSE, v, 0, 3)),
    ("bound_sequence d0", False, UsageError, "d0 must be a finite real >= 0",
     lambda v: bound_sequence(v, CONSTANT, CERT, 3)),
    ("check_recurrence z", True, UsageError, "z must be a finite positive real",
     lambda v: check_recurrence(flat_series(3), np.ones(4), v)),
    ("check_neighborhood tol_rel", False, UsageError, "tol_rel must be a finite real >= 0",
     lambda v: check_neighborhood(flat_series(3), CERT, CONSTANT, 2, v)),
]


@pytest.mark.parametrize(
    "label, strict, error, message, call", REAL_SITES, ids=[c[0] for c in REAL_SITES]
)
def test_real_guard_at_every_call_site(label, strict, error, message, call):
    bad = [True, False, "0.1", float("nan"), float("inf"), -float("inf"), 10**400, -1,
           np.float64("nan"), np.int64(-1)]
    for value in bad + ([0, 0.0] if strict else []):
        with pytest.raises(error) as info:
            call(value)
        assert type(info.value) is error
        assert str(info.value) == message
    for value in [np.float64(1.5), np.int64(1), 1.5, 1] + ([] if strict else [0, 0.0]):
        call(value)


# Every call site of errors.require_vector: (label, error class, the message,
# whether the length is fixed at 2, call with the guarded vector set to the
# value and every other argument valid).  [1.5, 1] is valid at every site.
VECTOR_SITES = [
    ("ShiftedQuadratic center", ConfigurationError,
     "'center' must be a non-empty vector of finite reals", False,
     lambda v: ShiftedQuadratic(curvature=1.0, center=v, noise_halfwidth=0.5)),
    ("FiniteSumLeastSquares design row", ConfigurationError,
     "a row of 'design_rows' must be a non-empty vector of finite reals", False,
     lambda v: FiniteSumLeastSquares(design=[v, [0.0, 1.0], [1.0, 1.0]], targets=[1.0, 0.0, 1.0])),
    ("FiniteSumLeastSquares targets", ConfigurationError,
     "'targets' must be a 2-element vector of finite reals", True,
     lambda v: FiniteSumLeastSquares(design=[[1.0, 0.0], [0.0, 1.0]], targets=v)),
    ("certify x0", ConfigurationError, "'x0' must be a 2-element vector of finite reals", True,
     lambda v: PROBLEM.certify(2.0, v)),
    ("run_seeds x0", ConfigurationError, "'x0' must be a 2-element vector of finite reals", True,
     lambda v: run_seeds(PROBLEM, CONSTANT, v, 2, CERT, [3])),
    ("check_descent_inequality x", UsageError, "x must be a 2-element vector of finite reals",
     True, lambda v: check_descent_inequality(PROBLEM, CERT, v, 100, SeededGenerator(1))),
]


@pytest.mark.parametrize(
    "label, error, message, sized, call", VECTOR_SITES, ids=[c[0] for c in VECTOR_SITES]
)
def test_vector_guard_at_every_call_site(label, error, message, sized, call):
    bad = [[True, 1.0], ["0.1", 1.0], [float("nan"), 1.0], [float("inf"), 1.0],
           [10**400, 1.0], [], [[1.5, 1.0], [1.0, 1.5]], np.array([True, False]),
           np.array(["0.1", "1"]), 1.5, "15", None]
    for value in bad + ([[0.5, 0.5, 0.5]] if sized else []):
        with pytest.raises(error) as info:
            call(value)
        assert type(info.value) is error
        assert str(info.value) == message
    for value in [[1.5, 1], (1.5, 1), np.array([1.5, 1.0]), np.array([1, 1]),
                  [np.float64(1.5), np.int64(1)]]:
        call(value)


LEAST_SQUARES = FiniteSumLeastSquares(design=[[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]],
                                      targets=[1.0, 0.0, 1.0])

# Every point method of both families: (label, call with the point set to the
# value and every other argument valid).
POINT_SITES = [
    (f"{family} {method}", call)
    for family, problem, noise in (
        ("quadratic", PROBLEM, np.array([[0.1, -0.2], [0.3, 0.0], [0.0, 0.4]])),
        ("least squares", LEAST_SQUARES, np.array([0, 2, 1], dtype=np.uint8)),
    )
    for method, call in (
        ("pointwise_loss", lambda x, p=problem, n=noise: p.pointwise_loss(n, x)),
        ("pointwise_gradient", lambda x, p=problem, n=noise: p.pointwise_gradient(n, x)),
        ("mean_loss_and_gradient", lambda x, p=problem: p.mean_loss_and_gradient(x)),
        ("alignment", lambda x, p=problem, n=noise: p.alignment(n, x, np.array([1.0, -2.0]))),
    )
]


@pytest.mark.parametrize("label, call", POINT_SITES, ids=[c[0] for c in POINT_SITES])
def test_points_that_are_not_real_numbers_are_refused(label, call):
    for value in (["1", True], [True, False], [None, 1.0], [1j, 0.0]):
        with pytest.raises(ConfigurationError) as info:
            call(value)
        assert str(info.value) == f"point must hold real numbers, not {np.asarray(value).dtype}"
    # An int array gives the bits of the float array.
    for ints in (np.array([1, -2]), np.array([3, 0], dtype=np.uint8), [2, 1]):
        got = call(ints)
        expected = call(np.array(ints, dtype=float))
        for a, b in zip(got if isinstance(got, tuple) else (got,),
                        expected if isinstance(expected, tuple) else (expected,)):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_design_rows_share_one_length():
    with pytest.raises(ConfigurationError) as info:
        FiniteSumLeastSquares(design=[[1.0, 0.0], [0.0, 1.0, 0.0]], targets=[1.0, 0.0])
    assert str(info.value) == "'design_rows' must be rows of equal length"


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
    with pytest.raises(UsageError) as usage:
        check_convergence(flat_series(HORIZON), points)
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


# The problem families and schedule kinds a config may name: a key is set in
# the one that has it.
SPECS = {
    "problem": [
        {"family": "shifted_quadratic", "curvature": 1.0, "center": [0.0, 0.0],
         "noise_halfwidth": 0.5},
        {"family": "finite_sum_least_squares", "design_rows": [[1.0, 0.0], [0.0, 1.0]],
         "targets": [1.0, 0.0]},
    ],
    "schedule": [
        {"kind": "constant", "rho": 0.05},
        {"kind": "inverse_time", "scale": 1.0, "offset": 3.0},
    ],
}


def config_text(path: tuple, *value) -> str:
    """A valid config with every numeric key present, the key at ``path``
    among them, and the entry at ``path`` set to ``value`` when one is given."""
    document = {
        "x0": [1.0, 0.0],
        "horizon": 100,
        "replications": 2,
        "master_seed": 7,
        "region_radius": 2.0,
        "checks": [
            {"type": "recurrence", "z": 3.0},
            {"type": "neighborhood", "window": 10, "tol_rel": 0.2},
            {"type": "descent", "points": 1, "samples": 100},
            {"type": "lemma", "n": 0, "k": 3},
        ],
        "verify": {"audit_samples": 1, "gradient_checks": 1},
    }
    for section, specs in SPECS.items():
        document[section] = next(spec for spec in specs if path[0] != section or path[1] in spec)
    document = json.loads(json.dumps(document))
    target = document
    for step in path[:-1]:
        target = target[step]
    if value:
        target[path[-1]] = value[0]
    return json.dumps(document)


POSITIVE = "must be a finite positive real"
VECTOR = "must be a non-empty vector of finite reals"

# Every numeric config key: (key, path to the value or, for a vector, to
# one element of it, a value out of range, the message).  An out-of-range
# vector is the empty one, set at the path of the vector itself.
CONFIG_SITES = [
    ("horizon", ("horizon",), 0, "'horizon' in config must be an integer >= 1"),
    ("replications", ("replications",), 1, "'replications' in config must be an integer >= 2"),
    ("master_seed", ("master_seed",), 2**64,
     f"'master_seed' in config must be an integer in [0, {UINT64_MAX}]"),
    ("region_radius", ("region_radius",), 0.0, f"'region_radius' in config {POSITIVE}"),
    ("x0", ("x0", 1), [], f"'x0' in config {VECTOR}"),
    ("curvature", ("problem", "curvature"), 0.0, f"'curvature' in problem {POSITIVE}"),
    ("center", ("problem", "center", 1), [], f"'center' in problem {VECTOR}"),
    ("noise_halfwidth", ("problem", "noise_halfwidth"), -1.0,
     "'noise_halfwidth' in problem must be a finite real >= 0"),
    ("design_rows", ("problem", "design_rows", 0, 1), [],
     f"a row of 'design_rows' in problem {VECTOR}"),
    ("targets", ("problem", "targets", 1), [], f"'targets' in problem {VECTOR}"),
    ("rho", ("schedule", "rho"), 0.0, f"'rho' in schedule {POSITIVE}"),
    ("scale", ("schedule", "scale"), 0.0, f"'scale' in schedule {POSITIVE}"),
    ("offset", ("schedule", "offset"), 0.0, f"'offset' in schedule {POSITIVE}"),
    ("z", ("checks", 0, "z"), 0.0, f"'z' in checks[0] {POSITIVE}"),
    ("window", ("checks", 1, "window"), 0, "'window' in checks[1] must be an integer >= 1"),
    ("tol_rel", ("checks", 1, "tol_rel"), -0.5,
     "'tol_rel' in checks[1] must be a finite real >= 0"),
    ("points", ("checks", 2, "points"), 0, "'points' in checks[2] must be an integer >= 1"),
    ("samples", ("checks", 2, "samples"), 99, "'samples' in checks[2] must be an integer >= 100"),
    ("n", ("checks", 3, "n"), -1, "'n' in checks[3] must be an integer >= 0"),
    ("k", ("checks", 3, "k"), -1, "'k' in checks[3] must be an integer >= 0"),
    ("audit_samples", ("verify", "audit_samples"), 0,
     "'audit_samples' in verify must be an integer >= 1"),
    ("gradient_checks", ("verify", "gradient_checks"), 0,
     "'gradient_checks' in verify must be an integer >= 1"),
]


@pytest.mark.parametrize("key, path, out_of_range, message", CONFIG_SITES,
                         ids=[c[0] for c in CONFIG_SITES])
def test_every_numeric_config_key_is_guarded(key, path, out_of_range, message):
    # The unchanged document parses, so every refusal below is the value's.
    parse_config(config_text(path))
    vector = isinstance(path[-1], int)
    cases = [(path, bad) for bad in (True, "1", float("nan"), float("inf"), 10**400)]
    cases.append((path[:-1] if vector else path, out_of_range))
    for where, value in cases:
        with pytest.raises(ConfigurationError) as info:
            parse_config(config_text(where, value))
        assert str(info.value) == message


def test_config_sites_name_every_numeric_key_of_the_tables():
    """A key added to a config table without a row in CONFIG_SITES fails here."""
    tables = [config._CONFIG_KEYS, config._VERIFY_KEYS,
              *(family.config_keys for family in FAMILIES.values()),
              *config._SCHEDULE_KEYS.values(), *(check.keys(HORIZON) for check in CHECKS.values())]
    # The sections, the output path and the checkpoints (guarded above) hold no number.
    other = {"problem", "schedule", "checks", "verify", "output", "checkpoints"}
    numeric = {key for table in tables for key in table} - other
    assert numeric == {site[0] for site in CONFIG_SITES}


def test_the_problem_families_are_named_once():
    """A family's name outside its class is a second list of families
    growing back; each family's config keys set its fields, one each."""
    package = Path(sgdcheck.__file__).parent
    offenders = [
        f"{path.name}:{number}"
        for path in sorted(package.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if re.search(r"[\"'](shifted_quadratic|finite_sum_least_squares)[\"']", line)
        and not (path.name == "objective.py" and re.match(r"\s*family = ", line))
    ]
    assert offenders == []
    assert list(FAMILIES) == ["shifted_quadratic", "finite_sum_least_squares"]
    for family in FAMILIES.values():
        assert len(family.config_keys) == len(dataclasses.fields(family))


def test_the_schedule_kinds_are_named_once():
    """A kind's name outside its class, or a hasattr probe of a schedule in
    the command line, is a second list of kinds growing back."""
    package = Path(sgdcheck.__file__).parent
    offenders = [
        f"{path.name}:{number}"
        for path in sorted(package.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if re.search(r"[\"'](constant|inverse_time)[\"']", line)
        and not (path.name == "schedule.py" and re.match(r"\s*kind = ", line))
    ]
    assert offenders == []
    assert "hasattr(" not in (package / "cli.py").read_text(encoding="utf-8")


def test_the_check_types_are_named_once():
    """A check type's name outside its row of CHECKS is a second list of
    check types growing back; the lemma subcommand's name is not a check."""
    package = Path(sgdcheck.__file__).parent
    offenders = [
        f"{path.name}:{number}"
        for path in sorted(package.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if re.search(r"[\"'](recurrence|neighborhood|convergence|descent|lemma)[\"']", line)
        and not (path.name == "checks.py" and re.match(r"    \"[a-z]+\": Check\($", line))
        and not (path.name == "cli.py" and re.match(r'\s*lemma = sub\.add_parser\("lemma", ', line))
    ]
    assert offenders == []
    assert list(CHECKS) == ["recurrence", "neighborhood", "convergence", "descent", "lemma"]


def test_only_errors_tests_for_bools():
    """A bool test outside errors.py is a second guard growing back."""
    package = Path(sgdcheck.__file__).parent
    offenders = [
        f"{path.name}:{number}"
        for path in sorted(package.glob("*.py")) if path.name != "errors.py"
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if re.search(r"isinstance\(.*bool", line)
    ]
    assert offenders == []
