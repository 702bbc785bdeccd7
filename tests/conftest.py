import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sparsesvm.data import DesignMatrix
from sparsesvm.objective import PenaltyWeights
from sparsesvm.solvers import _exact_step
from sparsesvm.sparsity import SparsityConstraint, project

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True)
def child_pythonpath(monkeypatch):
    """pytest puts src/ on sys.path (pyproject.toml); interpreters a test
    starts import the package from the same checkout."""
    monkeypatch.setenv("PYTHONPATH",
                       os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def traced_peak():
    """``peak(fn, *args)``: ``fn(*args)`` and the bytes that tracemalloc saw
    allocated at its peak beyond what was allocated when it was called."""
    def peak(fn, *args, **kwargs):
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = fn(*args, **kwargs)
            return out, tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
    return peak


def no_convergence(*args, **kwargs):
    """Stands in for a ``np.linalg`` factorization that fails to converge."""
    raise np.linalg.LinAlgError("forced")


def with_intercept(features, y) -> DesignMatrix:
    """The design ``[features | 1]`` with labels ``y``."""
    features = np.asarray(features, dtype=float)
    return DesignMatrix(np.hstack([features, np.ones((features.shape[0], 1))]), y)


def random_problem(rng, n, p, k, rho=1.0):
    """Random design with +/-1 labels and matching penalty weights."""
    X = rng.standard_normal((n, p))
    y = np.where(rng.standard_normal(n) > 0, 1.0, -1.0)
    design = with_intercept(X, y)
    constraint = SparsityConstraint(k=k, p=p)
    weights = PenaltyWeights.for_problem(n, constraint, rho)
    return design, constraint, weights


def random_beta(rng, p):
    return rng.standard_normal(p + 1)


# Closed-form oracles that the acceptance tests compare package code against:
# the anchored majorizer, which the solvers minimize without evaluating it, its
# exact step along a gradient, and the squared distance to the k-sparse set.


def working_response(beta, design: DesignMatrix) -> np.ndarray:
    """Surrogate targets: the fitted score where the margin is met, else the label."""
    scores = design.X.dot(beta)
    return np.where(design.y * scores >= 1.0, scores, design.y)


def anchored_majorizer(anchor, design, constraint, weights):
    """``beta -> surrogate_value(beta, anchor, ...)``, with the anchor's working
    response and projection formed once, for the many points of one anchor."""
    anchor = np.asarray(anchor, dtype=float)
    z = working_response(anchor, design)
    pm = project(anchor, constraint)

    def value(beta) -> float:
        beta = np.asarray(beta, dtype=float)
        r_loss = z - design.X.dot(beta)
        r_pen = pm - beta
        return (0.5 * weights.a2 * float(r_loss.dot(r_loss))
                + 0.5 * weights.b2 * float(r_pen.dot(r_pen)))

    return value


def surrogate_value(beta, anchor, design, constraint, weights) -> float:
    """Anchored majorizer: 0.5 a2 ||z - X beta||^2 + 0.5 b2 ||p_m - beta||^2.

    z and p_m are the working response and projection at ``anchor``. Touches
    the true objective at the anchor and dominates it everywhere else.
    """
    return anchored_majorizer(anchor, design, constraint, weights)(beta)


def step_size(grad, design: DesignMatrix, weights: PenaltyWeights, guard: float) -> float:
    """The descent solver's exact step along -grad (``solvers._exact_step``)."""
    grad = np.asarray(grad, dtype=float)
    return _exact_step(float(grad.dot(grad)), design.X.dot(grad), weights, guard)


def sq_distance(beta, constraint: SparsityConstraint) -> float:
    """Squared Euclidean distance from ``beta`` to its projection (``sparsity.project``)."""
    beta = np.asarray(beta, dtype=float)
    diff = beta - project(beta, constraint)
    return float(diff @ diff)
