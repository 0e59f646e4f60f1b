"""Values that must not depend on how many threads BLAS runs.

Two child processes compute the same values, one with
``OPENBLAS_NUM_THREADS=1`` and one with ``=2``; the variable is set in the
child's environment only.  Each child prints a JSON object of:

- the ``verify`` stdout of every least-squares golden config;
- a digest of the bits of ``mean_loss_and_gradient`` at 4097 points on
  designs whose whole-batch BLAS products round differently under 1 and 2
  threads (385x16, 201x16, 2048x1);
- ``float.hex`` of the margins of ``check_descent_inequality`` at two
  points, 100 000 samples each, whose standard errors sum the squared
  deviations of 100 000 values.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_golden import DIGESTS, GOLDEN_DIR

SRC = Path(__file__).resolve().parents[1] / "src"

LEAST_SQUARES_GOLDENS = sorted(name for name in DIGESTS if name.startswith("ls_"))

CHILD = r"""
import contextlib, hashlib, io, json, sys
import numpy as np
from sgdcheck import FiniteSumLeastSquares, SeededGenerator, ShiftedQuadratic
from sgdcheck.analyzer import check_descent_inequality
from sgdcheck.cli import main

golden_dir, names = sys.argv[1], sys.argv[2:]
verify = {}
for name in names:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(["verify", f"{golden_dir}/{name}.json"])
    verify[name] = (code, out.getvalue())

means = {}
for rows, dim in [(385, 16), (201, 16), (2048, 1)]:
    rng = np.random.default_rng(rows + dim)
    problem = FiniteSumLeastSquares(
        design=rng.normal(size=(rows, dim)), targets=rng.normal(size=rows)
    )
    loss, grad = problem.mean_loss_and_gradient(rng.normal(size=(4097, dim)))
    means[f"{rows}x{dim}"] = hashlib.sha256(loss.tobytes() + grad.tobytes()).hexdigest()

problem = ShiftedQuadratic(curvature=1.3, center=[0.2, -0.4], noise_halfwidth=0.7)
cert = problem.certify(2.0, [1.0, 0.0])
descent = []
for x in ([0.2, -0.39], [1.5, -0.4]):
    verdict = check_descent_inequality(problem, cert, x, 100_000, SeededGenerator(12))
    descent.append(float(verdict.worst_margin).hex())
print(json.dumps({"verify": verify, "means": means, "descent": descent}))
"""


def child_values(threads: int) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(GOLDEN_DIR), *LEAST_SQUARES_GOLDENS],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def by_threads():
    return {threads: child_values(threads) for threads in (1, 2)}


def test_least_squares_verify_stdout(by_threads):
    assert set(by_threads[1]["verify"]) == set(LEAST_SQUARES_GOLDENS)
    for name in LEAST_SQUARES_GOLDENS:
        assert by_threads[1]["verify"][name][0] == 0
        assert by_threads[1]["verify"][name] == by_threads[2]["verify"][name], name


def test_least_squares_mean_values(by_threads):
    assert by_threads[1]["means"] == by_threads[2]["means"]


def test_descent_margins_at_100_000_samples(by_threads):
    assert by_threads[1]["descent"] == by_threads[2]["descent"]
