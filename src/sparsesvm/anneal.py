"""Annealed fitting: solve a ladder of distance-penalized subproblems with a
geometrically growing penalty, stop on the normalized squared distance, then
hard-project the result onto the sparsity set.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .config import AnnealSchedule, FitReport, SolverConfig
from .data import DesignMatrix
from .objective import PenaltyWeights
from .solvers import _solve_subproblem, make_workspace
from .sparsity import SparsityConstraint

__all__ = ["FitError", "OuterRecord", "sv_count", "prox_dist_fit"]

# Relative accuracy of each level's inner solve: a level ends once the gradient
# is below this share of the distance penalty's pull (or below grad_tol). Every
# level but the last is only a warm start for the next; 0.1 lowered the
# holdout accuracy of the correlated-pair CV. The last level is held to the same
# rule: finishing it to grad_tol took more inner iterations than the ladder.
TAU = 0.03


class FitError(RuntimeError):
    """A fit diverged or could not be carried out."""


@dataclass
class OuterRecord:
    """State after one penalty level: handed to trace hooks."""

    outer: int
    rho: float
    inner_iters: int
    restarts: int           # momentum resets: steps that turned against it
    objective: float
    grad_sq: float
    distance: float
    beta: np.ndarray


def sv_count(beta, design: DesignMatrix) -> int:
    """Number of samples on or inside the margin: y_i x_i' beta <= 1."""
    margins = design.y * (design.X @ beta)
    return int(np.count_nonzero(margins <= 1.0))


def prox_dist_fit(design: DesignMatrix, constraint: SparsityConstraint, beta0,
                  solver="mm", sched: AnnealSchedule | None = None,
                  cfg: SolverConfig | None = None, trace_hook=None):
    """Fit one binary classifier at sparsity level ``constraint``.

    Each penalty level is solved until its squared gradient norm is below
    ``cfg.grad_tol`` or ``TAU**2`` times the squared pull of the distance
    penalty, whichever is larger; the penalty then grows by
    ``sched.multiplier``. The levels form one accelerated run: each continues
    the previous one's momentum from its kept point, scores and coordinates,
    so the ``WARMUP`` plain updates and the product ``X @ beta0`` come once per
    fit, while the ``cfg.max_inner`` budget holds per level.
    The ladder halts when the normalized squared distance to the sparsity set
    falls to ``sched.dist_tol`` (``stop_reason`` ``distance``, ``converged``
    true) or when ``sched.max_outer`` levels are spent (``budget``). The
    returned coefficients are the projection of the last iterate, so they are
    always feasible, though that iterate's squared gradient norm is usually
    above ``cfg.grad_tol``. ``solver`` is a key of ``solvers.SOLVERS`` or a
    workspace ``solvers.make_workspace`` built for ``design``, which holds
    only its factorization and may be shared by fits in one thread or several.
    """
    sched = sched or AnnealSchedule()
    cfg = cfg or SolverConfig()
    workspace = make_workspace(design, solver) if isinstance(solver, str) else solver

    t0 = time.perf_counter()
    constraint.require_p(design.p)
    norm = constraint.p - constraint.k + 1
    rho = sched.rho0
    total_inner = 0
    stop_reason = "budget"
    # the first level starts fresh from beta0 (checked there); each later one
    # continues the run
    run = beta0
    for outer in range(1, sched.max_outer + 1):
        weights = PenaltyWeights.for_problem(design.n, constraint, rho)
        iters, restarts, run = _solve_subproblem(run, workspace, design, constraint,
                                                 weights, cfg, pull_tol=TAU)
        ev = run.kept
        beta = ev.beta
        total_inner += iters
        if not math.isfinite(ev.objective):
            raise FitError(
                f"objective became non-finite at outer iteration {outer} (rho={rho:g})")
        d_cur = ev.sq_dist / norm
        if trace_hook is not None:
            trace_hook(OuterRecord(outer, rho, iters, restarts, ev.objective, ev.grad_sq,
                                   d_cur, beta.copy()))
        if d_cur <= sched.dist_tol:
            stop_reason = "distance"
            break
        rho *= sched.multiplier

    # the last level's projection is the hard-projected fit
    beta_final = ev.pm
    report = FitReport(
        outer_iters=outer,
        rho=weights.rho,
        total_inner_iters=total_inner,
        objective=ev.objective,
        grad_sq=ev.grad_sq,
        distance=d_cur,
        sv_count=sv_count(beta_final, design),
        converged=stop_reason == "distance",
        wall_time=time.perf_counter() - t0,
        stop_reason=stop_reason,
    )
    return beta_final, report
