"""Verdicts against the truth: generated configs run through ``sgdcheck run``,
and their ``series.csv`` compared with the exact E d_n.

The exact means come from this file's own recursions, so the package is
checked, not its arithmetic repeated: for the quadratic, rate by rate,

    E d_{n+1} = (1 - rho_n c)^2 E d_n + rho_n^2 c^2 d h^2 / 3,

and for least squares the recursion of m = E e and S = E e e^T, e = x - x*,
with P_i = a_i a_i^T, G = mean_i P_i, r_i = <a_i, x*> - t_i and
g = mean_i r_i a_i:

    m' = m - rho (G m + g)
    S' = S - rho (G S + S G + m g^T + g m^T)
           + rho^2 mean_i (a_i^T S a_i + 2 <a_i, m> r_i + r_i^2) P_i,

with E d_n = tr S.  The configs follow the random small configs of the
ROADMAP's fact (h), smaller: least squares at d 1-4, the quadratic at
d 1-3, H = 100 and R = 32, constant and inverse-time rates, some of them
with rate(0) L >= 2, where L is max_i |a_i|^2 for least squares and c for
the quadratic, and the recurrence check alone.
"""
import contextlib
import io
import itertools
import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, Phase, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sgdcheck.cli import ENV_OUTPUT_DIR, main  # noqa: E402

HORIZON = 100
REPLICATIONS = 32

# Fixed examples and no shrinking, so the file reads the same examples on
# every run; the first failing example is the report.  Each example writes
# into a directory of its own under the test's tmp_path.
SETTINGS = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=30,
    phases=[Phase.explicit, Phase.generate],
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

# Hypothesis writes a failing example's patch with libcst, whose import
# warns about mypy_extensions; that warning is not this package's.
pytestmark = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
)

ITEM_1 = "ROADMAP item 1: a run that is unstable or judges no informative step still passes"


@st.composite
def documents(draw, stable_only=False):
    """A config, with rate(0) L <= 1 for every ``stable_only`` one and
    rate(0) mu < 1 for all."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        dim = draw(st.integers(1, 4))
        rows = draw(st.integers(dim + 2, 12))
        design = rng.standard_normal((rows, dim)) * np.exp(rng.normal(0.0, 0.5, dim))
        sigma = draw(st.sampled_from([0.01, 0.3, 1.0]))
        targets = design @ rng.standard_normal(dim) + sigma * rng.standard_normal(rows)
        problem = {"family": "finite_sum_least_squares", "design_rows": design.tolist(),
                   "targets": targets.tolist()}
        x_star = np.linalg.lstsq(design, targets, rcond=None)[0]
        smoothness = float(np.max(np.einsum("ij,ij->i", design, design)))
        mu = float(np.linalg.eigvalsh(design.T @ design / rows)[0])
    else:
        dim = draw(st.integers(1, 3))
        x_star = rng.standard_normal(dim)
        smoothness = mu = float(np.exp(rng.uniform(np.log(0.2), np.log(5.0))))
        problem = {"family": "shifted_quadratic", "curvature": mu, "center": x_star.tolist(),
                   "noise_halfwidth": float(np.exp(rng.uniform(np.log(0.01), 0.0)))}
    direction = rng.standard_normal(dim)
    distance = rng.uniform(0.1, 3.0)
    x0 = x_star + distance * direction / np.linalg.norm(direction)
    stable = st.floats(0.02, 1.0)
    reach = draw(stable if stable_only else stable | st.floats(2.0, 8.0))
    rate = min(reach / smoothness, 0.999 / mu)
    if draw(st.booleans()):
        schedule = {"kind": "constant", "rho": rate}
    else:
        offset = float(draw(st.integers(1, 50)))
        schedule = {"kind": "inverse_time", "scale": rate * offset, "offset": offset}
    return {
        "problem": problem,
        "schedule": schedule,
        "x0": x0.tolist(),
        "horizon": HORIZON,
        "replications": REPLICATIONS,
        "master_seed": draw(st.integers(0, 2**32 - 1)),
        "region_radius": distance * rng.uniform(1.05, 4.0),
        "checks": [{"type": "recurrence"}],
    }


def rates(schedule: dict) -> np.ndarray:
    """rho_0 .. rho_{H-1}, the rates of the H steps."""
    if schedule["kind"] == "constant":
        return np.full(HORIZON, schedule["rho"])
    return schedule["scale"] / (schedule["offset"] + np.arange(HORIZON, dtype=float))


def exact_mean(document: dict) -> np.ndarray:
    """The exact E d_0 .. E d_H of a generated config."""
    problem, x0 = document["problem"], np.array(document["x0"])
    mean = np.empty(HORIZON + 1)
    if problem["family"] == "shifted_quadratic":
        c, e = problem["curvature"], x0 - np.array(problem["center"])
        noise = c * c * len(e) * problem["noise_halfwidth"] ** 2 / 3.0
        mean[0] = e @ e
        for n, rho in enumerate(rates(document["schedule"])):
            mean[n + 1] = (1.0 - rho * c) ** 2 * mean[n] + rho * rho * noise
        return mean
    design, targets = np.array(problem["design_rows"]), np.array(problem["targets"])
    rows = design.shape[0]
    x_star = np.linalg.lstsq(design, targets, rcond=None)[0]
    residual = design @ x_star - targets
    gram, g = design.T @ design / rows, design.T @ residual / rows
    m = x0 - x_star
    second = np.outer(m, m)
    mean[0] = np.trace(second)
    for n, rho in enumerate(rates(document["schedule"])):
        weights = (np.einsum("ij,jk,ik->i", design, second, design)
                   + 2.0 * (design @ m) * residual + residual * residual)
        first = gram @ second + np.outer(m, g)
        second = (second - rho * (first + first.T)
                  + rho * rho * (design * weights[:, None]).T @ design / rows)
        m = m - rho * (gram @ m + g)
        mean[n + 1] = np.trace(second)
    return mean


class Runner:
    """``sgdcheck run`` on a document, in a fresh output directory each time."""

    def __init__(self, tmp_path, monkeypatch):
        self.tmp_path, self.monkeypatch, self.runs = tmp_path, monkeypatch, itertools.count()

    def __call__(self, document: dict) -> tuple[int, np.ndarray | None]:
        """The exit code and the rows of ``series.csv`` (None after a divergence)."""
        out = self.tmp_path / f"run{next(self.runs)}"
        out.mkdir()
        config = out / "experiment.json"
        config.write_text(json.dumps(document), encoding="utf-8")
        self.monkeypatch.setenv(ENV_OUTPUT_DIR, str(out))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["run", str(config)])
        if code not in (0, 1, 3):
            # Not an AssertionError, so that no xfail below takes it for the property failing.
            raise RuntimeError(f"a generated config was refused (exit {code}): {document}")
        if code == 3:
            return code, None
        return code, np.loadtxt(out / "series.csv", delimiter=",", skiprows=1, ndmin=2)


@pytest.fixture
def run(tmp_path, monkeypatch):
    return Runner(tmp_path, monkeypatch)


@SETTINGS
@given(document=documents(stable_only=True))
def test_p0_the_estimate_never_sits_far_above_the_exact_mean(run, document):
    """Where rate(0) L <= 1, d_hat_0 = E d_0 and d_hat <= E d_n + 8 stderr at
    every step.

    Only this side holds step by step.  d_n is skewed, so 32 replications
    can miss the rare paths that carry its mean, and their stderr misses
    them too: d_hat can sit hundreds of stderr below E d_n (least squares
    at d = 1, where the contraction of each step is random), never far
    above it.  The side checked is the one P1 rests on: an exact mean that
    came out too low would let a false envelope pass.
    """
    code, table = run(document)
    assert code in (0, 1)
    exact, d_hat, stderr = exact_mean(document), table[:, 2], table[:, 3]
    assert abs(d_hat[0] - exact[0]) <= 1e-9 * exact[0]
    assert np.all(d_hat[1:] <= exact[1:] + 8.0 * stderr[1:])


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_1)
@SETTINGS
@given(document=documents())
def test_p1_a_pass_holds_the_exact_envelope(run, document):
    """A run that exits 0 has E d_n <= b_n (1 + 1e-9) at every n >= 1."""
    code, table = run(document)
    if code == 0:
        assert np.all(exact_mean(document)[1:] <= table[1:, 4] * (1.0 + 1e-9))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_1)
@SETTINGS
@given(document=documents())
def test_p2_a_pass_judges_an_informative_step(run, document):
    """A run that exits 0 has some n >= 1 with every replication in region
    and b_n < r^2, a step whose verdict could have gone either way."""
    code, table = run(document)
    if code == 0:
        informative = (table[1:, 5] == 1.0) & (table[1:, 4] < document["region_radius"] ** 2)
        assert informative.any()
