import math

import numpy as np
import pytest

from sparsesvm.config import AnnealSchedule, SolverConfig
from sparsesvm.kernel import KernelModel, gram_matrix
from sparsesvm.multiclass import GaussianKernelSpec
from sparsesvm.objective import PenaltyWeights
from sparsesvm.sparsity import SparsityConstraint


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("make", [
    lambda v: AnnealSchedule(rho0=v),
    lambda v: AnnealSchedule(multiplier=v),
    lambda v: AnnealSchedule(dist_tol=v),
    lambda v: SolverConfig(grad_tol=v),
    lambda v: GaussianKernelSpec(gamma=v),
    lambda v: PenaltyWeights.for_problem(10, SparsityConstraint(k=1, p=4), v),
    lambda v: gram_matrix(np.eye(3), v),
    lambda v: KernelModel(np.zeros(4), v, np.eye(3), np.ones(3)),
], ids=["rho0", "multiplier", "dist_tol", "grad_tol", "gamma", "rho", "gram_matrix",
        "kernel_model"])
def test_non_finite_value_rejected(make, value):
    with pytest.raises(ValueError, match="finite"):
        make(value)


@pytest.mark.parametrize("value", [2.5, 3.0, True, "3", 0, -1])
@pytest.mark.parametrize("make", [
    lambda v: AnnealSchedule(max_outer=v),
    lambda v: SolverConfig(max_inner=v),
], ids=["max_outer", "max_inner"])
def test_budget_must_be_a_positive_integer(make, value):
    with pytest.raises(ValueError, match="must be an integer >= 1"):
        make(value)


@pytest.mark.parametrize("value", [1, 7, np.int64(7)])
def test_integer_budgets_accepted(value):
    assert AnnealSchedule(max_outer=value).max_outer == value
    assert SolverConfig(max_inner=value).max_inner == value
