"""Per-layer microbenchmarks on a workload's own design.

They start from the largest fit of the traced run, at its last penalty level:
the design, the constraint, the last two iterates and the last rho. Every
function is timed unwrapped, as a median over batches.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from sparsesvm import data, kernel, objective, solvers, sparsity

BATCHES = 5
MIN_BATCH_S = 0.02


def per_call_s(fn, batches: int = BATCHES) -> float:
    """Median seconds per call over ``batches`` batches of at least MIN_BATCH_S."""
    reps = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        dt = time.perf_counter() - t0
        if dt >= MIN_BATCH_S:
            break
        reps *= 2
    samples = [dt / reps]
    for _ in range(batches - 1):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append((time.perf_counter() - t0) / reps)
    return statistics.median(samples)


def run(design, constraint, records, kernel_case) -> dict:
    """Metric name -> (value, unit) for one workload.

    ``records`` are the fit's last two ``OuterRecord``s (the subproblem at the
    last rho starts from the earlier one). ``kernel_case`` is
    (features, gamma, model, query) for the kernel microbenchmarks.
    """
    last = records[-1]
    start = records[0].beta if len(records) > 1 else last.beta
    beta = last.beta
    weights = objective.PenaltyWeights.for_problem(design.n, constraint, last.rho)
    ws_mm = solvers.MMWorkspace.from_design(design)
    ws_sd = solvers.SDWorkspace.from_design(design)
    features, gamma, kmodel, query = kernel_case
    per_call_us = {
        "sparsity.project.us": lambda: sparsity.project(beta, constraint),
        "objective.eval.us": lambda: objective.penalized_objective(beta, design, constraint,
                                                                   weights),
        "objective.gradient.us": lambda: objective.gradient(beta, design, constraint, weights),
        "solvers.mm_update.us": lambda: solvers.mm_update(beta, ws_mm, design, constraint,
                                                          weights),
        "solvers.sd_update.us": lambda: solvers.sd_update(beta, ws_sd, design, constraint,
                                                          weights),
        "data.thin_svd.us": lambda: data.thin_svd(design.X),
        "kernel.gram_matrix.us": lambda: kernel.gram_matrix(features, gamma),
        "kernel.kernel_predict.us": lambda: kernel.kernel_predict(kmodel, query),
    }
    out = {name: (1e6 * per_call_s(fn), "us") for name, fn in per_call_us.items()}
    # one penalty level solved to stationarity from the previous level's iterate
    out["solvers.subproblem_s.mm"] = (per_call_s(
        lambda: solvers.mm_solve(start, ws_mm, design, constraint, weights), batches=3), "s")
    out["solvers.subproblem_s.sd"] = (per_call_s(
        lambda: solvers.sd_solve(start, ws_sd, design, constraint, weights), batches=3), "s")
    return out


def linear_kernel_case(design, seed: int):
    """Kernel inputs for a linear workload: its own features, gamma = 1/p, and
    a model keeping half of its rows with seeded weights."""
    features = design.X[:, :-1]
    n, p = features.shape
    gamma = 1.0 / p
    alpha = np.random.default_rng(seed).standard_normal(n + 1)
    alpha[:n][np.argsort(np.abs(alpha[:n]))[: n - n // 2]] = 0.0
    model = kernel.KernelModel(alpha=alpha, gamma=gamma, train_features=features,
                               train_labels=design.y)
    return features, gamma, model, features
