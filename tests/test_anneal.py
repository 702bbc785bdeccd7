import sys
import threading

import numpy as np
import pytest

from sparsesvm import anneal, objective, solvers, sparsity
from sparsesvm.anneal import FitError, OuterRecord, prox_dist_fit, sv_count
from sparsesvm.config import AnnealSchedule, SolverConfig
from sparsesvm.data import DesignMatrix, ThinSVD, binarize
from sparsesvm.multiclass import GaussianKernelSpec, PairProblem, init_heuristic
from sparsesvm.objective import PenaltyWeights, gradient
from sparsesvm.simdata import gen_gaussian_causal, gen_spiral, gen_synthetic_corr
from sparsesvm.sparsity import SparsityConstraint, sq_distance

from conftest import random_problem


def stationary_sparse_instance():
    """All margins clear 1 at a 1-sparse point, so the gradient vanishes there."""
    margins = np.array([2.0, 3.0, 1.5])
    X = np.column_stack([margins, np.ones(3)])
    design = DesignMatrix(X, np.ones(3))
    return design, np.array([1.0, 0.0])


class TestSvCount:
    def test_zero_beta_counts_everyone(self, rng):
        design, _, _ = random_problem(rng, 17, 4, 2)
        assert sv_count(np.zeros(5), design) == 17

    def test_clear_margins_count_zero(self):
        design, beta = stationary_sparse_instance()
        assert sv_count(beta, design) == 0

    def test_boundary_margin_included(self):
        m = np.array([0.5, 1.0, 2.0])
        X = np.column_stack([m, np.ones(3)])
        design = DesignMatrix(X, np.ones(3))
        assert sv_count(np.array([1.0, 0.0]), design) == 2


class TestProxDistFit:
    def test_stationary_feasible_start_halts_first_outer(self):
        design, beta0 = stationary_sparse_instance()
        constraint = SparsityConstraint(k=1, p=1)
        beta, report = prox_dist_fit(design, constraint, beta0)
        assert report.outer_iters == 1
        assert report.distance == 0.0
        assert report.converged
        np.testing.assert_allclose(beta, beta0)

    def test_vacuous_constraint_first_distance_check(self, rng):
        design, _, _ = random_problem(rng, 12, 4, 4)
        constraint = SparsityConstraint(k=4, p=4)
        beta, report = prox_dist_fit(design, constraint, np.zeros(5))
        assert report.outer_iters == 1
        assert report.distance == 0.0
        assert report.converged
        weights = PenaltyWeights.for_problem(12, constraint, 1.0)
        assert float(np.sum(gradient(beta, design, constraint, weights) ** 2)) <= 1e-6

    @pytest.mark.parametrize("solver", ["mm", "sd"])
    def test_final_output_exactly_sparse(self, rng, solver):
        design, constraint, _ = random_problem(rng, 30, 10, 3)
        beta, _ = prox_dist_fit(design, constraint, rng.standard_normal(11), solver=solver)
        assert int(np.count_nonzero(beta[:10])) <= 3

    def test_converged_implies_distance_below_tol(self, rng):
        ds, truth = gen_gaussian_causal(80, 20, k0=2, seed=5)
        design = binarize(ds, 1, 0)
        constraint = SparsityConstraint(k=2, p=20)
        sched = AnnealSchedule()
        beta, report = prox_dist_fit(design, constraint, np.zeros(21), sched=sched)
        if report.converged:
            assert report.distance <= sched.dist_tol

    def test_distance_never_worse_than_start_when_converged(self, rng):
        design, constraint, _ = random_problem(rng, 40, 8, 2)
        beta0 = rng.standard_normal(9)
        norm = constraint.p - constraint.k + 1
        d0 = sq_distance(beta0, constraint) / norm
        _, report = prox_dist_fit(design, constraint, beta0)
        if report.converged:
            assert report.distance <= d0 + 1e-12

    def test_trace_hook_sees_each_outer(self, rng):
        design, constraint, _ = random_problem(rng, 25, 6, 2)
        records = []
        sched = AnnealSchedule(max_outer=7)
        prox_dist_fit(design, constraint, rng.standard_normal(7), sched=sched,
                      trace_hook=records.append)
        assert 1 <= len(records) <= 7
        assert all(isinstance(r, OuterRecord) for r in records)
        rhos = [r.rho for r in records]
        np.testing.assert_allclose(rhos, [sched.rho0 * sched.multiplier ** i
                                          for i in range(len(records))])
        outers = [r.outer for r in records]
        assert outers == list(range(1, len(records) + 1))

    def test_rho_sequence_strictly_increasing(self, rng):
        design, constraint, _ = random_problem(rng, 25, 6, 2)
        records = []
        prox_dist_fit(design, constraint, rng.standard_normal(7),
                      sched=AnnealSchedule(max_outer=10), trace_hook=records.append)
        rhos = np.array([r.rho for r in records])
        assert np.all(np.diff(rhos) > 0) or len(records) == 1

    def test_outer_budget_respected(self, rng):
        design, constraint, _ = random_problem(rng, 30, 8, 2)
        sched = AnnealSchedule(max_outer=3)
        records = []
        _, report = prox_dist_fit(design, constraint, rng.standard_normal(9), sched=sched,
                                  trace_hook=records.append)
        assert report.outer_iters <= 3
        # the budget ends the ladder after a level is solved, not above it
        assert report.rho == records[-1].rho

    def test_unknown_solver_rejected(self, rng):
        design, constraint, _ = random_problem(rng, 10, 4, 2)
        with pytest.raises(ValueError, match="unknown solver"):
            prox_dist_fit(design, constraint, np.zeros(5), solver="newton")

    @pytest.mark.parametrize("solver", ["mm", "sd"])
    def test_workspace_fits_like_its_solver_name(self, rng, solver):
        design, constraint, _ = random_problem(rng, 30, 8, 2)
        beta0 = rng.standard_normal(9)
        ws = solvers.make_workspace(design, solver)
        b1, r1 = prox_dist_fit(design, constraint, beta0, solver=ws)
        b2, r2 = prox_dist_fit(design, constraint, beta0, solver=ws)
        b3, r3 = prox_dist_fit(design, constraint, beta0, solver=solver)
        np.testing.assert_array_equal(b1, b3)
        np.testing.assert_array_equal(b2, b3)
        assert r1.total_inner_iters == r2.total_inner_iters == r3.total_inner_iters

    def test_solver_name_case_insensitive(self, rng):
        design, constraint, _ = random_problem(rng, 10, 4, 2)
        b1, _ = prox_dist_fit(design, constraint, np.zeros(5), solver="MM")
        b2, _ = prox_dist_fit(design, constraint, np.zeros(5), solver="mm")
        np.testing.assert_array_equal(b1, b2)

    def test_bad_beta0_shape_rejected(self, rng):
        design, constraint, _ = random_problem(rng, 10, 4, 2)
        with pytest.raises(ValueError, match="shape"):
            prox_dist_fit(design, constraint, np.zeros(3))

    @pytest.mark.parametrize("p_built", [3, 9])
    def test_constraint_for_another_p_rejected(self, rng, p_built):
        design, _, _ = random_problem(rng, 12, 5, 2)
        with pytest.raises(ValueError, match=f"p={p_built}, design has p=5"):
            prox_dist_fit(design, SparsityConstraint(k=1, p=p_built), np.zeros(6))

    def test_non_finite_objective_aborts_with_diagnostic(self, rng):
        design, constraint, _ = random_problem(rng, 10, 4, 2)
        bad = np.full(5, np.nan)
        with pytest.raises(FitError, match="outer iteration"):
            prox_dist_fit(design, constraint, bad)

    @pytest.mark.parametrize("solver", ["mm", "sd"])
    def test_report_fields_populated(self, rng, solver):
        design, constraint, _ = random_problem(rng, 30, 8, 3)
        beta, report = prox_dist_fit(design, constraint, rng.standard_normal(9),
                                     solver=solver)
        assert report.outer_iters >= 1
        assert report.total_inner_iters >= 0
        assert np.isfinite(report.objective)
        assert report.sv_count == sv_count(beta, design)
        assert report.wall_time >= 0.0
        d = report.to_dict()
        assert d["converged"] in (True, False)
        assert d["outer_iters"] == report.outer_iters


class TestWorkCount:
    @pytest.mark.parametrize("solver", ["mm", "sd"])
    def test_each_point_projected_once(self, monkeypatch, solver):
        """Each inner update evaluates one point, the one it keeps, and projects
        it once; the fit's start is projected once more, and every later level
        starts at the previous level's kept point with its projection, which
        the fit's hard projection reuses too."""
        calls = []
        real = sparsity.project

        def counting(beta, constraint):
            calls.append(1)
            return real(beta, constraint)

        patched = []
        for name, mod in list(sys.modules.items()):
            if name.startswith("sparsesvm") and getattr(mod, "project", None) is real:
                monkeypatch.setattr(mod, "project", counting)
                patched.append(name)
        assert "sparsesvm.objective" in patched

        ds, _ = gen_gaussian_causal(120, 40, 4, 5)
        design = binarize(ds, 1, 0)
        constraint = SparsityConstraint(k=4, p=40)
        _, report = prox_dist_fit(design, constraint, init_heuristic(design), solver=solver)
        assert report.total_inner_iters > 100
        assert len(calls) == report.total_inner_iters + 1

    def test_sd_forms_one_gradient_per_point(self, monkeypatch):
        """An ``sd`` fit forms the gradient of each point it evaluates once: the
        start, each update's kept point, and each later level's start moved to
        its weights, so ``levels + inner iterations`` passes over the design."""
        ds, _ = gen_gaussian_causal(120, 40, 4, 5)
        design = binarize(ds, 1, 0)
        passes = []
        mod = sys.modules["sparsesvm.objective"]
        real = mod._rows_dot

        def counting(v, A):
            if A is design.X:
                passes.append(1)
            return real(v, A)

        monkeypatch.setattr(mod, "_rows_dot", counting)
        _, report = prox_dist_fit(design, SparsityConstraint(k=4, p=40), init_heuristic(design),
                                  solver="sd")
        assert report.outer_iters > 1 and report.total_inner_iters > 100
        assert len(passes) == report.outer_iters + report.total_inner_iters


class Counted(np.ndarray):
    """A named factor or design whose matrix products, by ``@`` or by its
    ``dot`` method, are appended to ``products`` as (name, the other operand's
    shape); ``_rows_dot``, patched by ``count_products``, reads plain views
    and is not counted."""

    products = None

    def __array_finalize__(self, obj):
        self.name = getattr(obj, "name", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            mine, other = inputs if isinstance(inputs[0], Counted) else inputs[::-1]
            Counted.products.append((mine.name, np.shape(other)))
        inputs = tuple(np.asarray(x) for x in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)

    def dot(self, other, out=None):
        Counted.products.append((self.name, np.shape(other)))
        return np.asarray(self).dot(other, out=out)


def counted(a, name):
    out = a.view(Counted)
    out.name = name
    return out


def count_products(monkeypatch):
    products = []
    monkeypatch.setattr(Counted, "products", products)
    real = solvers._rows_dot

    def plain_rows_dot(v, A):
        return real(v, np.asarray(A))

    for mod in (solvers, sys.modules["sparsesvm.objective"]):
        monkeypatch.setattr(mod, "_rows_dot", plain_rows_dot)
    return products


class TestFactorPasses:
    """On a design above ``_GATHER_COST`` an accelerated ``mm`` iteration reads
    the factors in full twice on a thin SVD (``V @ coef`` and ``U @ (s t)``) and
    once on a gram eigendecomposition (the two-column ``Q @ [u - w, lam u]``),
    besides the ``_rows_dot`` products. A fit of many levels reads the design
    twice: once for its start's ``X @ beta``, since each later level carries
    the scores of the last, and once for the report's ``sv_count`` of the
    projected fit."""

    def solve(self, ws, design, constraint, rho):
        design = DesignMatrix(design.X, design.y)
        object.__setattr__(design, "X", counted(design.X, "X"))
        _, report = prox_dist_fit(design, constraint, init_heuristic(design), solver=ws,
                                  sched=AnnealSchedule(rho0=rho))
        assert report.outer_iters > 1
        assert report.total_inner_iters > 5 * solvers.WARMUP
        return report.total_inner_iters

    def test_thin_svd(self, monkeypatch):
        ds, _ = gen_gaussian_causal(300, 150, 5, 1)
        design = binarize(ds, 1, 0)
        assert design.X.size > objective._GATHER_COST
        svd = solvers.make_workspace(design, "mm").svd
        ws = solvers.MMWorkspace(ThinSVD(counted(svd.U, "U"), svd.s, counted(svd.V, "V")))
        products = count_products(monkeypatch)
        iters = self.solve(ws, design, SparsityConstraint(k=5, p=150), 10.0)
        names = [name for name, _ in products]
        assert names.count("X") == 2
        assert names.count("U") <= iters and names.count("V") <= iters
        assert all(shape == (svd.s.size,) for name, shape in products if name != "X")

    def test_gram(self, monkeypatch):
        problem = PairProblem.build(gen_spiral(200, 150, 20, seed=0), 0, 1,
                                    GaussianKernelSpec(gamma=1.0), solver="mm")
        design, ws = problem.design, problem.workspace
        assert design.X.size > objective._GATHER_COST
        ws = solvers.KernelMMWorkspace(Q=counted(ws.Q, "Q"), lam=ws.lam, q1=ws.q1)
        products = count_products(monkeypatch)
        iters = self.solve(ws, design, problem.constraint(0.8), 1.0)
        names = [name for name, _ in products]
        assert names.count("X") == 2
        assert names.count("Q") <= iters
        assert all(shape == (ws.lam.size, 2) for name, shape in products if name == "Q")


class TestOneRunPerFit:
    """The levels of one fit form one accelerated run: the warm-up comes once
    per fit, the momentum crosses levels, and the budget holds per level."""

    def fit(self, monkeypatch, solver, cfg, sched=None):
        """Each update of a planted fit, in order, as [its level, whether the
        kept point was extrapolated]; and the fit's level records."""
        design, constraint, beta0, _ = planted_level()
        ws = solvers.make_workspace(design, solver)
        records, updates = [], []
        step, past = type(ws).step, solvers._past

        def counting_step(*args):
            updates.append([len(records) + 1, False])
            return step(*args)

        def marking_past(new, old, w):
            updates[-1][1] = True
            return past(new, old, w)

        monkeypatch.setattr(type(ws), "step", counting_step)
        monkeypatch.setattr(solvers, "_past", marking_past)
        _, report = prox_dist_fit(design, constraint, beta0, solver=ws, cfg=cfg,
                                  sched=sched or AnnealSchedule(), trace_hook=records.append)
        assert len(updates) == report.total_inner_iters and len(records) > 2
        return updates, records

    @pytest.mark.parametrize("solver", ["mm", "sd"])
    def test_warm_up_once_per_fit(self, monkeypatch, solver):
        """The first ``WARMUP`` updates of a fit are plain, and the next one
        too: it sets out at ``j = 1``, so ``w = 0``. Later levels mostly open
        on an extrapolated update, which a warm-up per level would forbid."""
        updates, _ = self.fit(monkeypatch, solver, SolverConfig())
        flags = [x for _, x in updates]
        assert flags.index(True) == solvers.WARMUP + 1
        # whether the first update of each level after the first was extrapolated
        firsts = [x for (level, x), (before, _) in zip(updates[1:], updates) if level != before]
        assert 2 * sum(firsts) > len(firsts)

    @pytest.mark.parametrize("solver", ["mm", "sd"])
    def test_budget_per_level(self, monkeypatch, solver):
        """At four updates per level the warm-up spans three levels; the update
        that spends a level's budget is never extrapolated, the first of the
        fourth level is."""
        budget = 4
        updates, records = self.fit(monkeypatch, solver, SolverConfig(max_inner=budget))
        assert all(rec.inner_iters == budget for rec in records[:4])
        first = [x for _, x in updates].index(True)
        assert first == 3 * budget and updates[first][0] == 4
        spent = [rec.outer for rec in records if rec.inner_iters == budget]
        lasts = [x for (level, x), after in zip(updates, updates[1:] + [[None]])
                 if level != after[0] and level in spent]
        assert len(lasts) == len(spent) > 4 and not any(lasts)

    @pytest.mark.parametrize("solver", ["mm", "sd"])
    def test_no_extrapolation_without_accel(self, monkeypatch, solver):
        for accel in (None, False):
            updates, records = self.fit(monkeypatch, solver, SolverConfig(accel=accel))
            assert not any(x for _, x in updates)
            assert all(rec.restarts == 0 for rec in records)


class TestLinearScores:
    @pytest.mark.parametrize("solver,kernel", [("mm", False), ("sd", False), ("mm", True)],
                             ids=["mm", "sd", "mm-gram"])
    def test_scores_match_fresh_products_along_fit(self, monkeypatch, solver, kernel):
        """Every kept point, extrapolated or not, gets its scores (and with
        ``mm`` its coordinates ``V' beta`` or ``Q' beta_a``) by linearity;
        along a whole fit those stay within 1e-9 of the fresh products,
        relative to their largest entry."""
        errors = []

        def fresh_coords(basis, beta):
            if isinstance(basis, solvers.KernelMMWorkspace):
                return basis.Q.T @ beta[:-1]
            return basis.svd.V.T @ beta

        class Checked(solvers.ObjectiveState):
            __slots__ = ()

            def __init__(self, beta, scores, design, constraint, weights, coords=None,
                         basis=None):
                pairs = [(scores, design.X @ beta)]
                if solver == "mm":
                    pairs.append((coords, fresh_coords(basis, beta)))
                for got, fresh in pairs:
                    errors.append((float(np.max(np.abs(got - fresh))),
                                   float(np.max(np.abs(fresh)))))
                super().__init__(beta, scores, design, constraint, weights, coords, basis)

        monkeypatch.setattr(solvers, "ObjectiveState", Checked)
        if kernel:
            # part of this gram spectrum falls under the rank cut
            problem = PairProblem.build(gen_spiral(120, 60, 20, seed=0), 0, 1,
                                        GaussianKernelSpec(gamma=1.0), solver=solver)
            design, constraint, ws = problem.design, problem.constraint(0.8), problem.workspace
        else:
            ds, _ = gen_gaussian_causal(120, 40, 4, 5)
            design, constraint, ws = binarize(ds, 1, 0), SparsityConstraint(k=4, p=40), solver
        _, report = prox_dist_fit(design, constraint, init_heuristic(design), solver=ws)
        assert report.total_inner_iters > 100
        err, scale = np.asarray(errors).T
        assert np.count_nonzero(err) > report.total_inner_iters // 2
        assert np.all(err <= 1e-9 * scale)


class TestStopReason:
    @pytest.mark.parametrize("solver", ["mm", "sd"])
    @pytest.mark.parametrize("reason,sched", [
        ("distance", AnnealSchedule()),
        ("budget", AnnealSchedule(max_outer=3)),
    ], ids=["distance", "budget"])
    def test_each_end_of_the_ladder(self, solver, reason, sched):
        """On a planted design the default ladder ends through the distance
        test and three levels on the outer budget; ``converged`` says the
        same."""
        design, constraint, beta0, _ = planted_level()
        records = []
        _, report = prox_dist_fit(design, constraint, beta0, solver=solver, sched=sched,
                                  trace_hook=records.append)
        assert report.stop_reason == reason
        assert report.converged == (reason == "distance")
        assert report.outer_iters == len(records)
        assert (report.outer_iters == sched.max_outer) == (reason == "budget")
        assert report.to_dict()["stop_reason"] == reason

    @pytest.mark.parametrize("solver", ["mm", "sd"])
    def test_random_designs_converge(self, solver):
        """With the default schedule a fit ends within the distance tolerance:
        on 20 random designs every fit stops on the distance test with at most
        k nonzero features."""
        rng = np.random.default_rng(17)
        sched = AnnealSchedule()
        for _ in range(20):
            n, p = int(rng.integers(15, 60)), int(rng.integers(2, 40))
            design, constraint, _ = random_problem(rng, n, p, int(rng.integers(1, p)))
            beta, report = prox_dist_fit(design, constraint, init_heuristic(design),
                                         solver=solver, sched=sched)
            assert report.stop_reason == "distance" and report.converged
            assert report.distance <= sched.dist_tol
            assert np.count_nonzero(beta[:p]) <= constraint.k

    @pytest.mark.parametrize("solver", ["mm", "sd"])
    def test_restarts_per_level(self, rng, solver):
        """A level's restarts are its momentum resets: none without
        extrapolation, some over ten cold starts at a tight tolerance, never
        more than the level's updates after the warm-up, and each record
        carries its level's count."""
        totals = {True: 0, False: 0}
        levels = 0
        for _ in range(10):
            design, constraint, weights = random_problem(rng, 25, 6, 3, rho=2.0)
            ws = solvers.make_workspace(design, solver)
            beta0 = rng.standard_normal(7)
            for accel in (True, False):
                cfg = SolverConfig(grad_tol=1e-14, accel=accel)
                iters, restarts, _ = solvers._solve_subproblem(beta0, ws, design,
                                                               constraint, weights, cfg)
                assert restarts <= max(0, iters - solvers.WARMUP - 1)
                totals[accel] += restarts
            cfg = SolverConfig(grad_tol=1e-14)
            records = []
            prox_dist_fit(design, constraint, beta0, solver=ws, cfg=cfg,
                          sched=AnnealSchedule(rho0=weights.rho, max_outer=2),
                          trace_hook=records.append)
            _, first, _ = solvers._solve_subproblem(beta0, ws, design, constraint, weights,
                                                    cfg, pull_tol=anneal.TAU)
            assert records[0].restarts == first
            levels += first > 0
        assert totals[False] == 0 < totals[True]
        assert levels > 0


def record_tested_points(monkeypatch):
    """The inner loop's tested points, in order: each point weighed, whose
    squared gradient the loop reads, as (the point, grad_sq, its pull bound
    TAU^2 ||b2 (beta - P(beta))||^2)."""
    tested = []

    class Recording(solvers.ObjectiveState):
        __slots__ = ()

        def _weigh(self, weights):
            super()._weigh(weights)
            b2 = weights.b2
            bound = (anneal.TAU * b2) ** 2 * self.sq_dist if b2 != 0.0 else 0.0
            tested.append((self, self.grad_sq, bound))

    monkeypatch.setattr(solvers, "ObjectiveState", Recording)
    return tested


def planted_level():
    """A planted design, its constraint, a start and one level of large pull."""
    ds, _ = gen_gaussian_causal(120, 40, 4, 5)
    design = binarize(ds, 1, 0)
    constraint = SparsityConstraint(k=4, p=40)
    return design, constraint, init_heuristic(design), AnnealSchedule(rho0=100.0, max_outer=1)


class TestRelativeStop:
    @pytest.mark.parametrize("solver", ["mm", "sd"])
    def test_level_ends_at_first_point_under_pull_bound(self, monkeypatch, solver):
        design, constraint, beta0, sched = planted_level()
        cfg = SolverConfig()
        tested = record_tested_points(monkeypatch)
        records = []
        prox_dist_fit(design, constraint, beta0, solver=solver, sched=sched, cfg=cfg,
                      trace_hook=records.append)
        assert len(records) == 1 and len(tested) > 2
        *before, (_, last_sq, last_bound) = tested
        # the pull bound, not the grad_tol floor, ended the level ...
        assert cfg.grad_tol <= last_sq < last_bound
        assert records[0].grad_sq == last_sq
        # ... and no earlier tested point was under either
        assert all(grad_sq >= max(cfg.grad_tol, bound) for _, grad_sq, bound in before)

    @pytest.mark.parametrize("solver", ["mm", "sd"])
    def test_small_multiplier_steps_every_level(self, solver):
        """Below a multiplier of (1 + TAU) / (1 - TAU) a level's start can already
        meet its pull bound and take no update; the ladder still steps through
        every level, and with a distance tolerance out of reach the outer
        budget ends the fit."""
        design, constraint, beta0, _ = planted_level()
        sched = AnnealSchedule(rho0=100.0, multiplier=1.02, max_outer=60, dist_tol=1e-9)
        _, report = prox_dist_fit(design, constraint, beta0, solver=solver, sched=sched)
        assert report.outer_iters == sched.max_outer
        assert report.stop_reason == "budget"

    def test_level_without_an_update_does_not_stall_the_fit(self):
        """From rho0 = 1 at multiplier 1.02, mm solves the first level to
        grad_tol and the next starts below it, so it takes no update and its
        distance repeats. The ladder moves on regardless: only the distance
        test or the outer budget ends a fit, here the budget."""
        design, constraint, beta0, _ = planted_level()
        sched = AnnealSchedule(rho0=1.0, multiplier=1.02)
        records = []
        _, report = prox_dist_fit(design, constraint, beta0, solver="mm", sched=sched,
                                  trace_hook=records.append)
        assert records[0].inner_iters > 0 and records[1].inner_iters == 0
        assert records[1].distance == records[0].distance
        assert report.outer_iters == sched.max_outer
        assert report.stop_reason == "budget"
        assert report.distance < 0.2 * records[0].distance

    @pytest.mark.parametrize("solver", ["mm", "sd"])
    def test_solve_entry_points_keep_the_absolute_rule(self, solver):
        design, constraint, beta0, sched = planted_level()
        cfg = SolverConfig()
        records = []
        prox_dist_fit(design, constraint, beta0, solver=solver, sched=sched, cfg=cfg,
                      trace_hook=records.append)
        weights = PenaltyWeights.for_problem(design.n, constraint, sched.rho0)
        solve = solvers.mm_solve if solver == "mm" else solvers.sd_solve
        _, report = solve(beta0, solvers.make_workspace(design, solver), design, constraint,
                          weights, cfg)
        assert report.converged and report.grad_sq < cfg.grad_tol
        assert report.total_inner_iters > records[0].inner_iters
        # a single-level solve has no ladder to stop
        assert report.stop_reason is None

    @pytest.mark.parametrize("solver", ["mm", "sd"])
    def test_rule_under_the_floor_changes_nothing(self, monkeypatch, solver):
        """A kernel pair whose pull bound stays below grad_tol at every tested
        point fits bit for bit as with the rule switched off."""
        problem = PairProblem.build(gen_spiral(60, 30, 20, seed=0), 0, 1,
                                    GaussianKernelSpec(gamma=1.0), solver=solver)
        constraint = problem.constraint(0.5)
        beta0 = init_heuristic(problem.design)
        cfg = SolverConfig(grad_tol=1e-4)

        def fit():
            records = []
            beta, report = prox_dist_fit(problem.design, constraint, beta0,
                                         solver=problem.workspace, cfg=cfg,
                                         trace_hook=records.append)
            return beta, report, records

        tested = record_tested_points(monkeypatch)
        beta, report, records = fit()
        assert len(records) > 1
        assert max(bound for _, _, bound in tested) < cfg.grad_tol
        monkeypatch.setattr(anneal, "TAU", 0.0)
        beta_off, report_off, records_off = fit()
        np.testing.assert_array_equal(beta, beta_off)
        assert report.total_inner_iters == report_off.total_inner_iters
        assert len(records) == len(records_off)
        for rec, off in zip(records, records_off):
            assert ((rec.outer, rec.rho, rec.inner_iters, rec.objective, rec.grad_sq,
                     rec.distance) == (off.outer, off.rho, off.inner_iters, off.objective,
                                       off.grad_sq, off.distance))
            np.testing.assert_array_equal(rec.beta, off.beta)


def corr_problem(solver):
    """A correlated-pair design whose factor has 511 columns, its workspace and a
    constraint per sparsity level."""
    design = binarize(gen_synthetic_corr(540, 510, 1)[0], 1, 0)
    return (design, solvers.make_workspace(design, solver),
            lambda s: SparsityConstraint.from_sparsity(s, design.p))


def spiral_problem(solver):
    """A kernel pair whose gram matrix keeps more than 500 eigenpairs."""
    problem = PairProblem.build(gen_spiral(350, 200, 20, seed=0), 0, 1,
                                GaussianKernelSpec(gamma=4.0), solver=solver)
    assert problem.workspace.lam.size > 500
    return problem.design, problem.workspace, problem.constraint


class TestSharedWorkspace:
    """One workspace serves fits in several threads at once. On a factor wider
    than 500 columns numpy releases the interpreter lock inside element-wise
    operations, so a workspace that kept per-level state would hand one level's
    update coefficients to another level's fit."""

    LEVELS = (0.5, 0.9, 0.95, 0.99)

    @pytest.mark.parametrize("build, solver",
                             [(corr_problem, "mm"), (corr_problem, "sd"), (spiral_problem, "mm")])
    def test_threaded_fits_equal_serial_ones(self, build, solver):
        design, ws, constraint = build(solver)
        beta0 = init_heuristic(design)
        sched, cfg = AnnealSchedule(max_outer=30), SolverConfig(max_inner=200)

        def fit(s):
            beta, report = prox_dist_fit(design, constraint(s), beta0, solver=ws,
                                         sched=sched, cfg=cfg)
            return beta, report.total_inner_iters

        serial = {s: fit(s) for s in self.LEVELS}
        threaded = {s: [] for s in self.LEVELS}
        barrier = threading.Barrier(len(self.LEVELS))

        def worker(s):
            barrier.wait()
            for _ in range(2):
                threaded[s].append(fit(s))

        threads = [threading.Thread(target=worker, args=(s,)) for s in self.LEVELS]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for s in self.LEVELS:
            want_beta, want_iters = serial[s]
            assert len(threaded[s]) == 2
            for beta, iters in threaded[s]:
                assert np.array_equal(beta, want_beta) and iters == want_iters
