import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sparsesvm import anneal
from sparsesvm.anneal import prox_dist_fit
from sparsesvm.config import AnnealSchedule, SolverConfig
from sparsesvm.data import RANK_TOL, DesignMatrix
from sparsesvm.kernel import gram_matrix
from sparsesvm.objective import (ObjectiveState, PenaltyWeights, gradient, penalized_objective,
                                 surrogate_value, working_response)
from sparsesvm.solvers import (WARMUP, KernelMMWorkspace, MMWorkspace, SDWorkspace,
                               make_workspace, mm_solve, mm_update, sd_solve, sd_update,
                               step_size)
from sparsesvm.sparsity import SparsityConstraint, project, sq_distance

from conftest import random_problem


def mm_workspace(design):
    return MMWorkspace.from_design(design)


def column_loop_update(beta, ws, design, constraint, weights):
    """The factorization update accumulated one singular vector at a time."""
    z = working_response(beta, design)
    svd = ws.svd
    if weights.b2 == 0.0:
        out = np.zeros(design.X.shape[1])
        for j in range(svd.s.size):
            out += ((svd.U[:, j] @ z) / svd.s[j]) * svd.V[:, j]
        return out
    pm = project(beta, constraint)
    out = pm.copy()
    for j in range(svd.s.size):
        s_j = svd.s[j]
        denom = weights.a2 * s_j * s_j + weights.b2
        c1 = weights.a2 * s_j / denom
        c2 = weights.a2 * s_j * s_j / denom
        out += (c1 * (svd.U[:, j] @ z) - c2 * (svd.V[:, j] @ pm)) * svd.V[:, j]
    return out


def normal_equation_oracle(beta, design, constraint, weights):
    """Dense solve of (a2 X'X + b2 I) b = a2 X'z + b2 pm."""
    z = working_response(beta, design)
    pm = project(beta, constraint)
    p1 = design.X.shape[1]
    A = weights.a2 * design.X.T @ design.X + weights.b2 * np.eye(p1)
    rhs = weights.a2 * design.X.T @ z + weights.b2 * pm
    return np.linalg.solve(A, rhs)


class TestMMUpdate:
    def test_matches_normal_equations(self, rng):
        for _ in range(100):
            n = int(rng.integers(4, 30))
            p = int(rng.integers(2, 12))
            k = int(rng.integers(1, p + 1))
            rho = float(rng.choice([0.5, 1.0, 10.0, 100.0]))
            design, constraint, weights = random_problem(rng, n, p, k, rho=rho)
            ws = mm_workspace(design)
            beta = rng.standard_normal(p + 1)
            got = mm_update(beta, ws, design, constraint, weights)
            want = normal_equation_oracle(beta, design, constraint, weights)
            assert float(np.linalg.norm(got - want)) <= 1e-8

    def test_underdetermined_instances(self, rng):
        """n < p keeps the ridge system solvable whenever b2 > 0."""
        for _ in range(30):
            n = int(rng.integers(3, 8))
            p = int(rng.integers(n + 1, 20))
            design, constraint, weights = random_problem(rng, n, p, 2, rho=1.0)
            ws = mm_workspace(design)
            beta = rng.standard_normal(p + 1)
            got = mm_update(beta, ws, design, constraint, weights)
            want = normal_equation_oracle(beta, design, constraint, weights)
            assert float(np.linalg.norm(got - want)) <= 1e-8

    def test_huge_penalty_returns_projection(self, rng):
        design, constraint, _ = random_problem(rng, 10, 5, 2)
        weights = PenaltyWeights.for_problem(10, constraint, rho=1e12)
        ws = mm_workspace(design)
        beta = rng.standard_normal(6)
        out = mm_update(beta, ws, design, constraint, weights)
        np.testing.assert_allclose(out, project(beta, constraint), atol=1e-8)

    def test_orthonormal_design_diagonal_solve(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((12, 4)))
        y = np.where(rng.standard_normal(12) > 0, 1.0, -1.0)
        X = np.column_stack([q[:, :3], np.ones(12)])
        # orthonormalize the full design including the intercept column
        Q, _ = np.linalg.qr(X)
        design = DesignMatrix.__new__(DesignMatrix)
        object.__setattr__(design, "X", Q)
        object.__setattr__(design, "y", y)
        constraint = SparsityConstraint(k=3, p=3)
        weights = PenaltyWeights(a2=0.25, b2=0.5, rho=1.0)
        ws = mm_workspace(design)
        beta = np.zeros(4)
        z = working_response(beta, design)
        got = mm_update(beta, ws, design, constraint, weights)
        want = (weights.a2 / (weights.a2 + weights.b2)) * (Q.T @ z)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_b2_zero_rank_deficient_minimum_norm(self, rng):
        """Wide designs at rho=0 fall back to the pseudoinverse solution."""
        n, p = 4, 9
        design, constraint, _ = random_problem(rng, n, p, 3)
        weights = PenaltyWeights(a2=1.0 / n, b2=0.0, rho=0.0)
        ws = mm_workspace(design)
        beta = rng.standard_normal(p + 1)
        z = working_response(beta, design)
        got = mm_update(beta, ws, design, constraint, weights)
        want = np.linalg.pinv(design.X) @ z
        np.testing.assert_allclose(got, want, atol=1e-8)

    def test_surrogate_stationarity_of_output(self, rng):
        design, constraint, weights = random_problem(rng, 14, 6, 3, rho=2.0)
        ws = mm_workspace(design)
        beta = rng.standard_normal(7)
        out = mm_update(beta, ws, design, constraint, weights)
        z = working_response(beta, design)
        pm = project(beta, constraint)
        sur_grad = (weights.a2 * design.X.T @ (design.X @ out - z)
                    + weights.b2 * (out - pm))
        anchor_grad = gradient(beta, design, constraint, weights)
        assert float(np.linalg.norm(sur_grad)) <= 1e-8 * (1 + float(np.linalg.norm(anchor_grad)))

    def test_loop_and_matrix_forms_agree(self, rng):
        for rho in (0.0, 1.0, 50.0):
            design, constraint, _ = random_problem(rng, 15, 6, 2)
            weights = PenaltyWeights.for_problem(15, constraint, rho)
            beta = rng.standard_normal(7)
            ws = mm_workspace(design)
            fast = mm_update(beta, ws, design, constraint, weights)
            slow = column_loop_update(beta, ws, design, constraint, weights)
            assert float(np.linalg.norm(fast - slow)) <= 1e-10


def kernel_problem(rng, n, gamma):
    """The kernel design [K | 1] of random 2-d points and random labels."""
    K = gram_matrix(rng.standard_normal((n, 2)), gamma)
    y = np.where(rng.standard_normal(n) > 0, 1.0, -1.0)
    return DesignMatrix.from_features(K, y)


def step_at(ws, beta, design, constraint, weights):
    """``ws.step`` from the state at ``beta`` with its coordinates in ``ws``,
    its packed iterate split into the new ``(beta, scores, coords)``."""
    x = ws.step(ObjectiveState.at(beta, design, constraint, weights, ws), design, weights,
                ws.coefficients(weights))
    n, p1 = design.X.shape
    return x[:p1], x[p1:p1 + n], x[p1 + n:]


class TestKernelMMWorkspace:
    """The gram eigendecomposition route of ``mm`` on kernel designs; at
    gamma = 0.01 part of K's spectrum falls under the rank cut."""

    CASES = [(gamma, rho) for gamma in (0.5, 0.01) for rho in (1.0, 100.0, 1e4)]

    def states(self, rng):
        for gamma, rho in self.CASES:
            design = kernel_problem(rng, 40, gamma)
            constraint = SparsityConstraint(k=20, p=40)
            weights = PenaltyWeights.for_problem(design.n, constraint, rho)
            yield design, constraint, rng.standard_normal(41), weights

    def test_rank_cut_drops_part_of_a_smooth_spectrum(self, rng):
        ranks = [KernelMMWorkspace.from_design(kernel_problem(rng, 40, gamma)).lam.size
                 for gamma in (0.5, 0.01)]
        assert ranks[0] == 40 and ranks[1] < 40

    def test_step_matches_normal_equations(self, rng):
        for design, constraint, beta, weights in self.states(rng):
            got = step_at(KernelMMWorkspace.from_design(design), beta, design, constraint,
                          weights)[0]
            want = normal_equation_oracle(beta, design, constraint, weights)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 * np.abs(want).max())

    def test_scores_are_the_design_product(self, rng):
        for design, constraint, beta, weights in self.states(rng):
            ws = KernelMMWorkspace.from_design(design)
            new, scores, coords = step_at(ws, beta, design, constraint, weights)
            want = design.X @ new
            np.testing.assert_allclose(scores, want, rtol=0, atol=1e-10 * np.abs(want).max())
            want = ws.coords(new)
            np.testing.assert_allclose(coords, want, rtol=0, atol=1e-10 * np.abs(want).max())

    def test_agrees_with_thin_svd_workspace(self, rng):
        for design, constraint, beta, weights in self.states(rng):
            got = step_at(KernelMMWorkspace.from_design(design), beta, design, constraint,
                          weights)[0]
            want = step_at(MMWorkspace.from_design(design), beta, design, constraint, weights)[0]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 * np.abs(want).max())

    def test_zero_distance_weight_rejected(self, rng):
        design = kernel_problem(rng, 20, 0.5)
        constraint = SparsityConstraint(k=10, p=20)
        weights = PenaltyWeights.for_problem(design.n, constraint, 0.0)
        with pytest.raises(ValueError, match="positive distance weight"):
            KernelMMWorkspace.from_design(design).coefficients(weights)

    def test_chosen_by_make_workspace_for_mm_on_a_symmetric_block(self, rng):
        design = kernel_problem(rng, 20, 0.5)
        assert isinstance(make_workspace(design, "mm"), KernelMMWorkspace)
        assert isinstance(make_workspace(design, "sd"), SDWorkspace)
        # a square block off symmetry in one entry, and a tall block, take the thin SVD
        X = design.X.copy()
        X[0, 1] += 1e-12
        assert isinstance(make_workspace(DesignMatrix(X, design.y), "mm"), MMWorkspace)
        assert isinstance(make_workspace(DesignMatrix(design.X[:, 10:], design.y), "mm"),
                          MMWorkspace)

    def test_mm_entry_points_accept_it(self, rng):
        design = kernel_problem(rng, 20, 0.5)
        constraint = SparsityConstraint(k=10, p=20)
        weights = PenaltyWeights.for_problem(design.n, constraint, 10.0)
        ws, beta = KernelMMWorkspace.from_design(design), rng.standard_normal(21)
        np.testing.assert_array_equal(
            mm_update(beta, ws, design, constraint, weights),
            step_at(ws, beta, design, constraint, weights)[0])
        _, report = mm_solve(beta, ws, design, constraint, weights)
        assert report.converged
        with pytest.raises(ValueError, match="got KernelMMWorkspace"):
            sd_update(beta, ws, design, constraint, weights)


@given(kind=st.sampled_from(["tall", "wide", "gram"]),
       rows=st.sampled_from(["none", "all", "mixed"]), flip=st.floats(0.0, 1.0),
       kf=st.floats(0.0, 1.0), rho=st.sampled_from([0.0, 0.5, 50.0, 1e4]),
       gamma=st.sampled_from([0.01, 0.5, 5.0]), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_coordinate_grad_sq_matches_gradient(kind, rows, flip, kf, rho, gamma, seed):
    """An ``mm`` point's squared gradient norm from its coordinates equals
    ``||grad||^2`` within ``C (eps (n + p) + RANK_TOL [if a factor was cut]) G^2``,
    ``G = a2 ||X|| ||slack|| + b2 ||beta||``, the bound derived at
    ``solvers._factored_grad_sq``: on tall, wide (p > n) and gram designs,
    with no, every, or some rows inside the margin. The worst of 3000 seeded
    draws read C = 0.74; the test allows 8."""
    assume(not (kind == "gram" and rho == 0.0))
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40)) if kind != "wide" else int(rng.integers(1, 20))
    p = {"tall": lambda: int(rng.integers(1, max(2, n - 1))),
         "wide": lambda: int(rng.integers(n, 60)), "gram": lambda: n}[kind]()
    if kind == "gram":
        K = gram_matrix(rng.standard_normal((n, 2)), gamma)
        # signed dual weights, then the intercept: scores K alpha + alpha0
        alpha = rng.standard_normal(n + 1)
        scores = K @ alpha[:-1] + alpha[-1]
    else:
        X = np.column_stack([rng.standard_normal((n, p)) * rng.choice([1e-3, 1.0, 1e3]),
                             np.ones(n)])
        alpha = rng.standard_normal(p + 1)
        scores = X @ alpha
    if rows == "all":
        alpha *= 0.5 / max(float(np.max(np.abs(scores))), 1e-300)
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    else:
        # labels follow the scores, scaled so every margin is at least 2;
        # "mixed" then flips a drawn share of the labels, putting those rows inside
        alpha *= 2.0 / max(float(np.min(np.abs(scores))), 1e-300)
        y = np.where(scores >= 0.0, 1.0, -1.0)
        if rows == "mixed":
            y = np.where(rng.random(n) < flip, -y, y)
    if kind == "gram":
        design, beta = DesignMatrix.from_features(K, y), alpha
        ws = make_workspace(design, "mm")
        cut = ws.lam.size < n
    else:
        # a 1 x 1 feature block is symmetric, so make_workspace would take the gram form
        design, beta = DesignMatrix(X, y), alpha
        ws = MMWorkspace.from_design(design)
        cut = ws.svd.s.size < min(X.shape)
    constraint = SparsityConstraint(k=int(round(kf * p)), p=p)
    weights = PenaltyWeights.for_problem(n, constraint, rho)
    ev = ObjectiveState.at(beta, design, constraint, weights, ws)
    inside = np.count_nonzero(ev.slack)
    assert {"none": inside == 0, "all": inside == n, "mixed": True}[rows]

    got = ev.grad_sq
    grad = gradient(beta, design, constraint, weights)
    want = float(grad @ grad)
    G = (weights.a2 * np.linalg.norm(design.X, 2) * np.linalg.norm(ev.slack)
         + weights.b2 * np.linalg.norm(beta))
    eps = np.finfo(float).eps
    assert abs(got - want) <= 8 * (eps * sum(design.X.shape) + (RANK_TOL if cut else 0.0)) * G * G


class TestStepSize:
    def test_zero_gradient_gives_zero(self, rng):
        design, constraint, weights = random_problem(rng, 8, 3, 1)
        ws = SDWorkspace.from_design(design)
        assert step_size(np.zeros(4), design, weights, ws.guard) == 0.0

    def test_null_space_direction(self, rng):
        # gradient orthogonal to the row space leaves only the b2 term
        n, p = 3, 6
        design, constraint, _ = random_problem(rng, n, p, 2)
        weights = PenaltyWeights(a2=1.0 / n, b2=0.5, rho=1.0)
        ws = SDWorkspace.from_design(design)
        _, _, vt = np.linalg.svd(design.X)
        g = vt[-1]
        assert abs(float(np.linalg.norm(design.X @ g))) < 1e-10
        assert step_size(g, design, weights, ws.guard) == pytest.approx(1 / weights.b2, rel=1e-6)

    def test_beats_dense_grid(self, rng):
        """The closed-form step wins a 1e4-point grid search on the ray."""
        for _ in range(100):
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

            def phi(t):
                return surrogate_value(beta - t * g, beta, design, constraint, weights)

            # the surrogate along the ray, at many step lengths in one pass
            z = working_response(beta, design)
            pm = project(beta, constraint)
            r_loss0, d_loss = z - design.X @ beta, design.X @ g
            r_pen0 = pm - beta

            def phi_many(ts):
                ts = np.asarray(ts)[None, :]
                r_loss = r_loss0[:, None] + ts * d_loss[:, None]
                r_pen = r_pen0[:, None] + ts * g[:, None]
                return (0.5 * weights.a2 * np.sum(r_loss * r_loss, axis=0)
                        + 0.5 * weights.b2 * np.sum(r_pen * r_pen, axis=0))

            grid = np.linspace(0.0, 4.0 * t_star if t_star > 0 else 1.0, 10_000)
            values = phi_many(grid)
            t_best = grid[int(np.argmin(values))]
            np.testing.assert_allclose(phi_many([t_star, t_best]), [phi(t_star), phi(t_best)],
                                       rtol=1e-12, atol=1e-300)
            best_grid = float(np.min(values))
            assert phi(t_star) <= best_grid + 1e-12 * (1 + abs(best_grid))


class TestSDUpdate:
    def test_stationary_point_is_fixed(self):
        margins = np.array([2.0, 3.0, 1.5])
        X = np.column_stack([margins, np.ones(3)])
        design = DesignMatrix(X, np.ones(3))
        beta = np.array([1.0, 0.0])
        constraint = SparsityConstraint(k=1, p=1)
        weights = PenaltyWeights.for_problem(3, constraint, rho=2.0)
        ws = SDWorkspace.from_design(design)
        np.testing.assert_allclose(sd_update(beta, ws, design, constraint, weights), beta)

    def test_pure_quadratic_matches_textbook_descent(self, rng):
        """With rho=0 and every margin active the objective is least squares."""
        n, p = 12, 4
        design, constraint, _ = random_problem(rng, n, p, 2)
        weights = PenaltyWeights(a2=1.0 / n, b2=0.0, rho=0.0)
        ws = SDWorkspace.from_design(design)
        beta = rng.standard_normal(p + 1)
        beta *= 0.5 / float(np.max(np.abs(design.X @ beta)))
        margins = design.y * (design.X @ beta)
        assert np.all(margins < 1)
        g = weights.a2 * design.X.T @ (design.X @ beta - design.y)
        t = float(g @ g) / float(weights.a2 * np.sum((design.X @ g) ** 2))
        want = beta - t * g
        got = sd_update(beta, ws, design, constraint, weights)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-11)

    def test_surrogate_decrease_bound(self, rng):
        for _ in range(50):
            design, constraint, weights = random_problem(rng, 10, 5, 2, rho=1.5)
            ws = SDWorkspace.from_design(design)
            beta = rng.standard_normal(6)
            g = gradient(beta, design, constraint, weights)
            t = step_size(g, design, weights, ws.guard)
            after = surrogate_value(beta - t * g, beta, design, constraint, weights)
            before = surrogate_value(beta, beta, design, constraint, weights)
            assert after <= before - 0.5 * t * float(g @ g) + 1e-10

    def test_never_touches_svd(self, rng):
        design, constraint, weights = random_problem(rng, 10, 4, 2, rho=1.0)
        ws = SDWorkspace.from_design(design)
        assert not hasattr(ws, "svd")


@pytest.mark.parametrize("entry,other", [
    (mm_update, SDWorkspace), (mm_solve, SDWorkspace),
    (sd_update, MMWorkspace), (sd_solve, MMWorkspace),
], ids=["mm_update", "mm_solve", "sd_update", "sd_solve"])
def test_entry_point_rejects_other_solvers_workspace(rng, entry, other):
    design, constraint, weights = random_problem(rng, 20, 6, 2)
    ws = other.from_design(design)
    with pytest.raises(ValueError, match=f"got {other.__name__}"):
        entry(rng.standard_normal(7), ws, design, constraint, weights)


@pytest.mark.parametrize("p_built", [3, 9])
@pytest.mark.parametrize("solve", [mm_solve, sd_solve], ids=["mm_solve", "sd_solve"])
def test_solve_rejects_constraint_for_another_p(rng, solve, p_built):
    design, _, _ = random_problem(rng, 12, 5, 2)
    constraint = SparsityConstraint(k=1, p=p_built)
    weights = PenaltyWeights.for_problem(design.n, constraint, 1.0)
    ws = make_ws("mm" if solve is mm_solve else "sd", design)
    with pytest.raises(ValueError, match=f"p={p_built}, design has p=5"):
        solve(np.zeros(6), ws, design, constraint, weights)


@pytest.mark.parametrize("solve", [mm_solve, sd_solve], ids=["mm_solve", "sd_solve"])
def test_solve_rejects_start_of_another_length(rng, solve):
    design, constraint, weights = random_problem(rng, 12, 5, 2)
    ws = make_ws("mm" if solve is mm_solve else "sd", design)
    with pytest.raises(ValueError, match=r"beta0 has shape \(4,\), expected \(6,\)"):
        solve(np.zeros(4), ws, design, constraint, weights)


def run_history(solver_fn, ws, design, constraint, weights, beta0, cfg):
    history = []
    beta, report = solver_fn(beta0, ws, design, constraint, weights, cfg, history=history)
    return beta, report, history


class TestSolveLoops:
    def test_immediate_convergence_zero_iterations(self):
        margins = np.array([2.0, 3.0])
        X = np.column_stack([margins, np.ones(2)])
        design = DesignMatrix(X, np.ones(2))
        beta0 = np.array([1.0, 0.0])
        constraint = SparsityConstraint(k=1, p=1)
        weights = PenaltyWeights.for_problem(2, constraint, rho=1.0)
        cfg = SolverConfig()
        for solver_fn, ws in ((mm_solve, mm_workspace(design)),
                              (sd_solve, SDWorkspace.from_design(design))):
            beta, report, _ = run_history(solver_fn, ws, design, constraint, weights, beta0, cfg)
            assert report.total_inner_iters == 0
            np.testing.assert_array_equal(beta, beta0)

    @pytest.mark.parametrize("solver_fn,make_ws", [
        (mm_solve, mm_workspace),
        (sd_solve, SDWorkspace.from_design),
    ])
    def test_descent_without_acceleration(self, rng, solver_fn, make_ws):
        for _ in range(10):
            n = int(rng.integers(6, 30))
            p = int(rng.integers(2, 10))
            design, constraint, weights = random_problem(
                rng, n, p, max(1, p // 2), rho=float(rng.uniform(0.1, 5)))
            cfg = SolverConfig(accel=None, max_inner=300)
            beta0 = rng.standard_normal(p + 1)
            _, _, history = run_history(solver_fn, make_ws(design), design, constraint,
                                        weights, beta0, cfg)
            diffs = np.diff(np.asarray(history))
            assert history, "solver took no steps on a random problem"
            assert np.all(diffs <= 1e-12)

    def test_solvers_agree_at_tight_tolerance(self, rng):
        design, constraint, weights = random_problem(rng, 20, 5, 2, rho=1.0)
        cfg = SolverConfig(grad_tol=1e-14, max_inner=50_000)
        beta0 = np.zeros(6)
        b_mm, _, _ = run_history(mm_solve, mm_workspace(design), design, constraint,
                                 weights, beta0, cfg)
        b_sd, _, _ = run_history(sd_solve, SDWorkspace.from_design(design), design,
                                 constraint, weights, beta0, cfg)
        o_mm = penalized_objective(b_mm, design, constraint, weights).objective
        o_sd = penalized_objective(b_sd, design, constraint, weights).objective
        assert abs(o_mm - o_sd) <= 1e-6

    def test_acceleration_converges_to_same_objective(self, rng):
        design, constraint, weights = random_problem(rng, 25, 6, 3, rho=2.0)
        cfg_plain = SolverConfig(accel=None, grad_tol=1e-12, max_inner=20_000)
        cfg_accel = SolverConfig(grad_tol=1e-12, max_inner=20_000)
        beta0 = rng.standard_normal(7)
        b0, _, _ = run_history(mm_solve, mm_workspace(design), design, constraint,
                               weights, beta0.copy(), cfg_plain)
        b1, _, _ = run_history(mm_solve, mm_workspace(design), design, constraint,
                               weights, beta0.copy(), cfg_accel)
        o0 = penalized_objective(b0, design, constraint, weights).objective
        o1 = penalized_objective(b1, design, constraint, weights).objective
        assert abs(o0 - o1) <= 1e-8 * (1 + abs(o0))

    def test_stationary_start_means_both_updates_fix(self, rng):
        """Polish a random problem to near-zero gradient, then check both maps."""
        design, constraint, weights = random_problem(rng, 20, 6, 3, rho=1.0)
        cfg = SolverConfig(grad_tol=1e-22, max_inner=200_000)
        beta, report, _ = run_history(mm_solve, mm_workspace(design), design,
                                      constraint, weights, np.zeros(7), cfg)
        assert report.grad_sq <= 1e-20
        moved_mm = mm_update(beta, mm_workspace(design), design, constraint, weights) - beta
        ws_sd = SDWorkspace.from_design(design)
        moved_sd = sd_update(beta, ws_sd, design, constraint, weights) - beta
        assert float(np.linalg.norm(moved_mm)) <= 1e-8
        assert float(np.linalg.norm(moved_sd)) <= 1e-8


# Reference inner loop: evaluates every quantity afresh wherever it is used,
# with dense products and fresh scores X @ beta at every point. The solvers
# evaluate each point once, sum the loss gradient over the rows inside the
# margin and get extrapolated scores by linearity; that only reorders
# floating-point additions, so they must take the same steps and agree with it
# to within rounding.

REF_TOL = dict(rtol=1e-9, atol=1e-12)
# The gram form of ``mm`` against the dense normal-equation solve: the two round
# differently on systems a2 K'K + b2 I of condition up to about 600, and the
# gram form drops the eigenpairs under the rank cut. Over 540 seeded problems
# of its test the coefficients differed by at most 1.3e-9 of their largest
# entry, the distances by 1.1e-8 and the objectives by 2.3e-11, relative.
GRAM_REF_TOL = dict(rtol=1e-7, atol=1e-7)

def ref_gradient_from_scores(beta, scores, design, constraint, weights):
    v = -weights.a2 * design.y * np.maximum(0.0, 1.0 - design.y * scores)
    g = design.X.T @ v
    if weights.b2 != 0.0:
        g = g + weights.b2 * (beta - project(beta, constraint))
    return g


def ref_objective_from_scores(beta, scores, design, constraint, weights):
    slack = np.maximum(0.0, 1.0 - design.y * scores)
    val = float(slack @ slack) / (2.0 * scores.size)
    if weights.b2 != 0.0:
        val += 0.5 * weights.b2 * sq_distance(beta, constraint)
    return val


def ref_step(solver, ws, design, constraint, weights):
    def mm(beta, scores, grad):
        y = design.y
        z = np.where(y * scores >= 1.0, scores, y)
        svd = ws.svd
        if weights.b2 == 0.0:
            return svd.V @ ((svd.U.T @ z) / svd.s)
        pm = project(beta, constraint)
        c1, c2 = ws.coefficients(weights)
        return pm + svd.V @ (c1 * (svd.U.T @ z) - c2 * (svd.V.T @ pm))

    def sd(beta, scores, grad):
        return beta - step_size(grad, design, weights, ws.guard) * grad

    return mm if solver == "mm" else sd


def ref_solve_subproblem(beta0, design, constraint, weights, cfg, step, history, tau=0.0,
                         run=None):
    """``tau > 0`` adds the per-level stop of ``prox_dist_fit``: the squared
    gradient below ``tau**2`` times the squared pull ``||b2 (beta - P(beta))||**2``,
    tested at every point from the start on. ``run`` continues the accelerated run
    of a previous level, from its kept point ``beta0``: the ``(x_k, j,
    updates)`` that level handed back."""
    X = design.X
    beta = np.asarray(beta0, dtype=float).copy()
    last, j, updates = run or (beta, 1, 0)
    scores = X @ beta
    grad = ref_gradient_from_scores(beta, scores, design, constraint, weights)
    grad_sq = float(grad @ grad)
    objective = ref_objective_from_scores(beta, scores, design, constraint, weights)

    def tol(beta):
        return max(cfg.grad_tol, (tau * weights.b2) ** 2 * sq_distance(beta, constraint))

    iters = restarts = 0
    while grad_sq >= tol(beta) and iters < cfg.max_inner:
        beta_new = step(beta, scores, grad)
        iters += 1
        updates += 1
        kept = beta_new
        if cfg.accel and WARMUP < updates and iters < cfg.max_inner:
            # restart when the step turned against the momentum x_k -> x_{k+1}
            if (beta - beta_new) @ (beta_new - last) > 0.0:
                j = 1
                restarts += 1
            w = (j - 1) / (j + 2)
            j += 1
            if w > 0.0:
                kept = beta_new + w * (beta_new - last)
        last = beta_new
        beta = kept
        scores = X @ beta
        grad = ref_gradient_from_scores(beta, scores, design, constraint, weights)
        grad_sq = float(grad @ grad)
        objective = ref_objective_from_scores(beta, scores, design, constraint, weights)
        history.append(objective)
    return beta, iters, grad_sq, objective, restarts, (last, j, updates)


def make_ws(solver, design):
    return mm_workspace(design) if solver == "mm" else SDWorkspace.from_design(design)


REFERENCE_CONFIGS = {
    "default": SolverConfig(max_inner=400),
    "no-accel": SolverConfig(accel=None, max_inner=400),
    # the budget runs out while extrapolation is engaged
    "small-budget": SolverConfig(max_inner=WARMUP + 7),
}


class TestMatchesReferenceLoop:
    @pytest.mark.parametrize("cfg_name", sorted(REFERENCE_CONFIGS))
    @pytest.mark.parametrize("solver", ["mm", "sd"])
    def test_subproblem_bit_identical(self, rng, solver, cfg_name):
        cfg = REFERENCE_CONFIGS[cfg_name]
        solve = mm_solve if solver == "mm" else sd_solve
        for rho in (0.0, 0.5, 5.0, 50.0):
            n = int(rng.integers(6, 40))
            p = int(rng.integers(2, 12))
            design, constraint, weights = random_problem(
                rng, n, p, int(rng.integers(0, p + 1)), rho=rho)
            assert (weights.b2 == 0.0) == (rho == 0.0)
            beta0 = rng.standard_normal(p + 1)
            ws = make_ws(solver, design)
            self.check(solve, beta0, ws, design, constraint, weights, cfg,
                       ref_step(solver, ws, design, constraint, weights))

    @pytest.mark.parametrize("cfg_name", sorted(REFERENCE_CONFIGS))
    def test_gram_subproblem_matches_normal_equations(self, rng, cfg_name):
        """``mm`` in the gram form, on kernel designs [K | 1] (at gamma 0.01 part
        of K's spectrum falls under the rank cut), against the reference loop
        stepping by the dense normal-equation solve."""
        cfg = REFERENCE_CONFIGS[cfg_name]
        for rho, gamma in ((0.5, 0.5), (5.0, 0.01), (50.0, 5.0)):
            n = int(rng.integers(6, 40))
            design = kernel_problem(rng, n, gamma)
            constraint = SparsityConstraint(k=int(rng.integers(0, n + 1)), p=n)
            weights = PenaltyWeights.for_problem(n, constraint, rho)
            ws = make_workspace(design, "mm")
            assert isinstance(ws, KernelMMWorkspace)
            self.check(mm_solve, rng.standard_normal(n + 1), ws, design, constraint, weights,
                       cfg, lambda beta, scores, grad: normal_equation_oracle(
                           beta, design, constraint, weights), GRAM_REF_TOL)

    @staticmethod
    def check(solve, beta0, ws, design, constraint, weights, cfg, step, tol=REF_TOL):
        """``solve`` from ``beta0`` takes as many updates as the reference loop
        with ``step`` and agrees with it to within ``tol``."""
        want_hist = []
        want = ref_solve_subproblem(beta0, design, constraint, weights, cfg, step, want_hist)
        got_hist = []
        beta, report = solve(beta0, ws, design, constraint, weights, cfg, history=got_hist)
        assert report.total_inner_iters == want[1]
        np.testing.assert_allclose(beta, want[0], **tol)
        np.testing.assert_allclose(got_hist, want_hist, **tol)
        np.testing.assert_allclose(report.grad_sq, want[2], **tol)
        np.testing.assert_allclose(report.objective, want[3], **tol)
        norm = constraint.p - constraint.k + 1
        np.testing.assert_allclose(report.distance, sq_distance(want[0], constraint) / norm,
                                   **tol)

    @pytest.mark.parametrize("solver", ["mm", "sd"])
    def test_anneal_records_bit_identical(self, rng, solver):
        design, constraint, _ = random_problem(rng, 40, 12, 3)
        beta0 = rng.standard_normal(13)
        sched = AnnealSchedule(multiplier=1.5, max_outer=12)
        cfg = SolverConfig(max_inner=300)
        got = []
        prox_dist_fit(design, constraint, beta0, solver=solver, sched=sched, cfg=cfg,
                      trace_hook=got.append)

        want = []
        ws = make_ws(solver, design)
        norm = constraint.p - constraint.k + 1
        beta, rho, run = beta0.copy(), sched.rho0, None
        for outer in range(1, sched.max_outer + 1):
            weights = PenaltyWeights.for_problem(design.n, constraint, rho)
            beta, iters, grad_sq, objective, restarts, run = ref_solve_subproblem(
                beta, design, constraint, weights, cfg,
                ref_step(solver, ws, design, constraint, weights), [], tau=anneal.TAU,
                run=run)
            d_cur = sq_distance(beta, constraint) / norm
            want.append((outer, rho, iters, restarts, objective, grad_sq, d_cur, beta.copy()))
            if d_cur <= sched.dist_tol:
                break
            rho *= sched.multiplier

        assert len(got) == len(want) > 1
        for rec, ref in zip(got, want):
            assert (rec.outer, rec.rho, rec.inner_iters, rec.restarts) == ref[:4]
            np.testing.assert_allclose([rec.objective, rec.grad_sq, rec.distance], ref[4:7],
                                       **REF_TOL)
            np.testing.assert_allclose(rec.beta, ref[7], **REF_TOL)
