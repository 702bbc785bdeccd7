"""Metamorphic relations of the whole fit: a change of the input that the
problem cannot see must change the output in a known way, or not at all (Xie
et al., *Testing and validating machine learning classifiers by metamorphic
testing*, J. Syst. Softw. 2011).

The linear relations run on ``test_oracle``'s noisy problems, both solvers.
"""

from dataclasses import replace

import numpy as np
import pytest

from sparsesvm.anneal import prox_dist_fit
from sparsesvm.data import Dataset, DesignMatrix
from sparsesvm.multiclass import GaussianKernelSpec, init_heuristic, train_ovo
from sparsesvm.simdata import gen_spiral
from sparsesvm.sparsity import SparsityConstraint

from test_oracle import K, P, PROBLEMS, noisy_problem

# the largest relative change of the coefficients (in norm) under a row
# permutation, over the 20 problems and both solvers, measured 2.9e-15 with
# these permutations and 5.0e-15 with another set; the bound allows ten times
# the larger
ROW_ORDER_REL = 5e-14


def fit(design, solver):
    return prox_dist_fit(design, SparsityConstraint(k=K, p=P), init_heuristic(design),
                         solver=solver)


@pytest.fixture(scope="module")
def designs():
    return [noisy_problem(seed) for seed in range(PROBLEMS)]


@pytest.mark.parametrize("solver", ["mm", "sd"])
def test_swapping_the_labels_negates_the_fit(designs, solver):
    for design in designs:
        beta, report = fit(design, solver)
        swapped, swapped_report = fit(DesignMatrix(design.X, -design.y), solver)
        # + 0.0 gives a dropped coefficient the same zero on both sides
        assert (swapped + 0.0).tobytes() == (-beta + 0.0).tobytes()
        assert replace(swapped_report, wall_time=0.0) == replace(report, wall_time=0.0)


@pytest.mark.parametrize("solver", ["mm", "sd"])
def test_permuting_the_rows_keeps_the_fit(designs, solver):
    for seed, design in enumerate(designs):
        perm = np.random.default_rng(seed).permutation(design.n)
        beta, _ = fit(design, solver)
        permuted, _ = fit(DesignMatrix(design.X[perm], design.y[perm]), solver)
        np.testing.assert_array_equal(np.flatnonzero(permuted), np.flatnonzero(beta))
        assert np.linalg.norm(permuted - beta) <= ROW_ORDER_REL * np.linalg.norm(beta)


@pytest.mark.parametrize("gamma", [1.0, None], ids=["gamma-1", "median"])
@pytest.mark.parametrize("solver", ["mm", "sd"])
def test_swapping_the_labels_negates_the_kernel_scores(solver, gamma):
    spiral = gen_spiral(120, 80, 1, seed=3)
    two = spiral.labels < 2
    ds = Dataset(spiral.features[two], spiral.labels[two], spiral.class_names[:2])
    test = gen_spiral(60, 40, 1, seed=4).features
    kernel = GaussianKernelSpec(gamma)
    (pair,) = train_ovo(ds, 0.5, solver, kernel=kernel).pairs
    (swapped,) = train_ovo(replace(ds, labels=1 - ds.labels), 0.5, solver, kernel=kernel).pairs
    assert swapped.scores(test).tobytes() == (-pair.scores(test)).tobytes()
