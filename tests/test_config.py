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
