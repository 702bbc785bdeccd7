import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sparsesvm.data import DesignMatrix
from sparsesvm.objective import PenaltyWeights
from sparsesvm.sparsity import SparsityConstraint

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
