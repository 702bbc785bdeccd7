"""Acceptance suite: one test per shipping criterion, run with -v for the
per-criterion pass/fail lines. Tolerances and instance counts are fixed; the
heavier end-to-end checks also enforce their wall-clock budgets.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from sparsesvm.cli import _stratified_split, main
from sparsesvm.config import AnnealSchedule, SolverConfig
from sparsesvm.crossval import accuracy_pct, cross_validate, selection_metrics
from sparsesvm.data import apply_transform, binarize, make_folds
from sparsesvm.anneal import prox_dist_fit
from sparsesvm.multiclass import (GaussianKernelSpec, init_heuristic,
                                  train_ovo)
from sparsesvm.objective import PenaltyWeights, gradient, penalized_objective
from sparsesvm.simdata import (gen_gaussian_causal, gen_spiral,
                               gen_synthetic_corr)
from sparsesvm.solvers import SDWorkspace, mm_solve, mm_update, sd_solve, sd_update
from sparsesvm.sparsity import SparsityConstraint, project

from conftest import (anchored_majorizer, random_problem, sq_distance, step_size,
                      surrogate_value)
from test_multiclass import blob_dataset
from test_objective import magnitudes_clear_of_ties, margins_clear_of_kink
from test_solvers import (mm_workspace, normal_equation_oracle, plain_updates,
                          record_objectives)
from test_sparsity import brute_force_sq_distance


def test_criterion_01_projection_matches_exhaustive_search(rng):
    t0 = time.perf_counter()
    for _ in range(500):
        p = int(rng.integers(1, 11))
        k = int(rng.integers(0, p + 1))
        beta = rng.standard_normal(p + 1) * rng.choice([0.1, 1.0, 100.0])
        constraint = SparsityConstraint(k=k, p=p)
        got = sq_distance(beta, constraint)
        want = brute_force_sq_distance(beta, k, p)
        # 1e-12 slack scaled by magnitude; an absolute reading would demand
        # sub-epsilon relative accuracy on O(1e4) distances
        tol = 1e-12 * (1.0 + abs(want))
        assert got == pytest.approx(want, abs=tol)
        proj = project(beta, constraint)
        assert int(np.count_nonzero(proj[:p])) <= k
        achieved = float(np.sum((beta - proj) ** 2))
        assert achieved == pytest.approx(want, abs=tol)
    assert time.perf_counter() - t0 < 5.0


def test_criterion_02_gradient_matches_central_differences(rng):
    checked = 0
    while checked < 100:
        n = int(rng.integers(5, 31))
        p = int(rng.integers(2, 11))
        k = int(rng.integers(1, p + 1))
        rho = float(rng.choice([0.0, 1.0, 100.0]))
        design, constraint, weights = random_problem(rng, n, p, k, rho=rho)
        beta = rng.standard_normal(p + 1)
        if not (margins_clear_of_kink(beta, design)
                and magnitudes_clear_of_ties(beta, constraint)):
            continue
        grad = gradient(beta, design, constraint, weights)
        h = 1e-6
        fd = np.empty(p + 1)
        for j in range(p + 1):
            hi, lo = beta.copy(), beta.copy()
            hi[j] += h
            lo[j] -= h
            fd[j] = (penalized_objective(hi, design, constraint, weights).objective
                     - penalized_objective(lo, design, constraint, weights).objective) / (2 * h)
        scale = max(1.0, float(np.linalg.norm(fd)))
        assert float(np.linalg.norm(grad - fd)) / scale <= 1e-5
        checked += 1


def test_criterion_03_mm_update_matches_normal_equations(rng):
    def check(n, p):
        k = int(rng.integers(1, p + 1))
        rho = float(rng.choice([0.5, 1.0, 10.0, 100.0]))
        design, constraint, weights = random_problem(rng, n, p, k, rho=rho)
        beta = rng.standard_normal(p + 1)
        got = mm_update(beta, mm_workspace(design), design, constraint, weights)
        want = normal_equation_oracle(beta, design, constraint, weights)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-8)

    for _ in range(60):
        check(int(rng.integers(6, 30)), int(rng.integers(2, 12)))
    for _ in range(40):
        p = int(rng.integers(6, 14))
        check(int(rng.integers(3, p)), p)


def test_criterion_04_exact_step_beats_dense_grid(rng):
    done = 0
    while done < 100:
        n = int(rng.integers(4, 25))
        p = int(rng.integers(2, 10))
        rho = float(rng.choice([0.0, 0.5, 5.0]))
        design, constraint, weights = random_problem(rng, n, p, max(1, p // 2), rho=rho)
        ws = SDWorkspace.from_design(design)
        beta = rng.standard_normal(p + 1)
        g = gradient(beta, design, constraint, weights)
        if float(np.linalg.norm(g)) < 1e-12:
            continue
        t_star = step_size(g, design, weights, ws.guard)
        majorizer = anchored_majorizer(beta, design, constraint, weights)
        phi = lambda t: majorizer(beta - t * g)
        grid = np.linspace(0.0, 4.0 * t_star if t_star > 0 else 1.0, 10_000)
        best_grid = min(phi(t) for t in grid)
        assert phi(t_star) <= best_grid + 1e-12 * (1 + abs(best_grid))
        done += 1


def test_criterion_05_descent_every_inner_iteration(monkeypatch, rng):
    plain_updates(monkeypatch)
    cfg = SolverConfig()
    for _ in range(10):
        n = int(rng.integers(10, 40))
        p = int(rng.integers(3, 12))
        design, constraint, _ = random_problem(rng, n, p, max(1, p // 3))
        beta0 = rng.standard_normal(p + 1)
        for rho in (1.0, 5.0, 25.0):
            weights = PenaltyWeights.for_problem(n, constraint, rho)
            for solver_fn, ws in ((mm_solve, mm_workspace(design)),
                                  (sd_solve, SDWorkspace.from_design(design))):
                with monkeypatch.context() as patch:
                    history = record_objectives(patch)
                    solver_fn(beta0, ws, design, constraint, weights, cfg)
                assert np.all(np.diff(history) <= 1e-12)


def test_criterion_06_surrogate_dominates_objective(rng):
    for _ in range(1000):
        n = int(rng.integers(4, 25))
        p = int(rng.integers(2, 10))
        design, constraint, weights = random_problem(
            rng, n, p, int(rng.integers(1, p + 1)), rho=float(rng.uniform(0, 10)))
        anchor = rng.standard_normal(p + 1)
        beta = anchor + rng.standard_normal(p + 1) * rng.choice([0.01, 1.0, 10.0])
        f_beta = penalized_objective(beta, design, constraint, weights).objective
        f_anchor = penalized_objective(anchor, design, constraint, weights).objective
        assert surrogate_value(beta, anchor, design, constraint, weights) >= f_beta - 1e-12
        at_anchor = surrogate_value(anchor, anchor, design, constraint, weights)
        assert at_anchor == pytest.approx(f_anchor, abs=1e-12 * (1 + abs(f_anchor)))


def test_criterion_07_planted_support_recovery():
    t0 = time.perf_counter()
    hits = {"mm": 0, "sd": 0}
    for seed in range(20):
        ds, truth = gen_gaussian_causal(200, 100, k0=5, seed=seed)
        design = binarize(ds, 1, 0)
        constraint = SparsityConstraint(k=5, p=100)
        for solver in ("mm", "sd"):
            beta, _ = prox_dist_fit(design, constraint, init_heuristic(design),
                                    solver=solver)
            m = selection_metrics(beta, truth.beta_true, q=0.05)
            if m.fdr == 0.0 and m.fomr == 0.0:
                hits[solver] += 1
    assert hits["mm"] >= 18
    assert hits["sd"] >= 18
    assert time.perf_counter() - t0 < 60.0


def test_criterion_08_synthetic_end_to_end():
    t0 = time.perf_counter()
    raw, _ = gen_synthetic_corr(1000, 500, seed=1)
    test_idx, cv_idx = _stratified_split(raw.labels, 0.2, seed=1)
    ds_cv = apply_transform(raw.take(cv_idx), "standardized")
    holdout = raw.take(test_idx)
    holdout = replace(holdout, features=ds_cv.transform_params.apply(holdout.features),
                      transform="standardized", transform_params=ds_cv.transform_params)
    folds = make_folds(ds_cv.n, 10, seed=1, labels=ds_cv.labels)
    table = cross_validate(ds_cv, folds, [0.0, 0.9, 0.99, 0.994, 0.996, 0.998],
                           solver="mm", holdout=holdout)
    sel = table.selected_summary()
    assert sel["k"] == 2.0
    assert sel["test_pct"] >= 98.0
    assert time.perf_counter() - t0 < 300.0


def test_criterion_09_spiral_kernel_accuracy():
    t0 = time.perf_counter()
    ds = gen_spiral()
    perm = np.random.default_rng(11).permutation(ds.n)
    cut = int(round(0.7 * ds.n))
    train, test = ds.take(perm[:cut]), ds.take(perm[cut:])
    model = train_ovo(train, 0.5, kernel=GaussianKernelSpec(gamma=1.0))
    assert accuracy_pct(model, test.features, test.labels) >= 98.0
    assert time.perf_counter() - t0 < 300.0


def test_criterion_10_stationary_points_are_fixed_points(rng):
    cfg = SolverConfig(grad_tol=1e-20, max_inner=200_000)
    qualified = 0
    for _ in range(5):
        n = int(rng.integers(10, 30))
        p = int(rng.integers(3, 8))
        design, constraint, weights = random_problem(rng, n, p, max(1, p // 2))
        ws_mm = mm_workspace(design)
        ws_sd = SDWorkspace.from_design(design)
        beta, report = mm_solve(rng.standard_normal(p + 1), ws_mm, design,
                                constraint, weights, cfg)
        if report.grad_sq > 1e-20:
            continue
        qualified += 1
        moved_mm = mm_update(beta, ws_mm, design, constraint, weights) - beta
        moved_sd = sd_update(beta, ws_sd, design, constraint, weights) - beta
        assert float(np.linalg.norm(moved_mm)) <= 1e-8
        assert float(np.linalg.norm(moved_sd)) <= 1e-8
    assert qualified >= 1


def test_criterion_11_converged_fits_are_sparse_and_close(rng):
    runs = []

    ds = blob_dataset(np.random.default_rng(7))
    for solver in ("mm", "sd"):
        model = train_ovo(ds, SparsityConstraint(k=3, p=4), solver=solver)
        runs.extend((3, pc.coef, pc.report) for pc in model.pairs)

    for seed in range(10):
        design, constraint, _ = random_problem(rng, 40, 12, 3)
        for solver in ("mm", "sd"):
            beta, report = prox_dist_fit(design, constraint, init_heuristic(design),
                                         solver=solver)
            runs.append((3, beta, report))

    sched = AnnealSchedule()
    converged_seen = 0
    for k, beta, report in runs:
        if not report.converged:
            continue
        converged_seen += 1
        assert int(np.count_nonzero(beta[:-1])) <= k
        assert report.distance <= sched.dist_tol
    assert converged_seen >= 6


def test_criterion_12_outputs_byte_identical_across_runs_and_threads(tmp_path):
    data = tmp_path / "data.csv"
    rc = main(["gen", "--family", "gaussian-causal", "--n", "80", "--p", "8",
               "--k0", "2", "--seed", "3", "--output", str(data)])
    assert rc == 0

    cv_outputs = []
    for name, extra in (("cv1.csv", []), ("cv2.csv", []),
                        ("cv3.csv", ["--threads", "4"])):
        out = tmp_path / name
        rc = main(["cv", "--data", str(data), "--grid", "0,0.5", "--folds", "3",
                   "--seed", "1", "--format", "csv", "--output", str(out), *extra])
        assert rc == 0
        cv_outputs.append(out.read_bytes())
    assert cv_outputs[0] == cv_outputs[1] == cv_outputs[2]

    trace_outputs = []
    for name in ("tr1.csv", "tr2.csv"):
        out = tmp_path / name
        rc = main(["trace", "--data", str(data), "--keep", "2",
                   "--output", str(out)])
        assert rc == 0
        trace_outputs.append(out.read_bytes())
    assert trace_outputs[0] == trace_outputs[1]
