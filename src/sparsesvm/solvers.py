"""Inner solvers for one penalty level: a closed-form factorization update and
exact-line-search steepest descent, sharing a restarted accelerated loop.

Both minimize the same anchored least-squares majorizer of the penalized
squared-hinge objective; the factorization route solves it exactly through a
factorization computed once per design, the descent route never touches one.
The factorization is a thin SVD of the design, or, for a kernel design
[K diag(y) | 1], an eigendecomposition of the symmetric gram matrix K, with
the intercept column solved by a one-dimensional Schur complement.
Each solver is its workspace type (``SOLVERS``), whose ``step`` is its update;
``make_workspace`` picks the gram form of ``mm`` when it is given K.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .config import FitReport, SolverConfig
from .data import RANK_TOL, DataError, DesignMatrix, ThinSVD, thin_svd
from .objective import ObjectiveState, PenaltyWeights, _rows_dot
from .sparsity import SparsityConstraint

__all__ = [
    "MMWorkspace",
    "KernelMMWorkspace",
    "SDWorkspace",
    "SOLVERS",
    "make_workspace",
    "mm_update",
    "mm_solve",
    "step_size",
    "sd_update",
    "sd_solve",
]


@dataclass
class MMWorkspace:
    """Thin SVD of the design, shared across penalty levels and sparsity levels,
    with per-singular-value update coefficients cached for the current weights."""

    svd: ThinSVD
    _key: tuple | None = field(default=None, repr=False)
    _c1: np.ndarray | None = field(default=None, repr=False)
    _c2: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def from_design(cls, design: DesignMatrix) -> "MMWorkspace":
        return cls(svd=thin_svd(design.X))

    def coefficients(self, weights: PenaltyWeights):
        """c1_j = a2 s_j / (a2 s_j^2 + b2), c2_j = a2 s_j^2 / (a2 s_j^2 + b2)."""
        key = (weights.a2, weights.b2)
        if self._key != key:
            s = self.svd.s
            denom = weights.a2 * s * s + weights.b2
            self._c1 = weights.a2 * s / denom
            self._c2 = weights.a2 * s * s / denom
            self._key = key
        return self._c1, self._c2

    def step(self, ev: ObjectiveState, design: DesignMatrix, weights: PenaltyWeights):
        """The exact minimizer of the anchored majorizer at ``ev``, without its scores."""
        z = np.where(ev.margins >= 1.0, ev.scores, design.y)
        svd = self.svd
        if weights.b2 == 0.0:
            # unpenalized system: minimum-norm least-squares solution
            return svd.V @ ((svd.U.T @ z) / svd.s), None
        pm = ev.pm
        c1, c2 = self.coefficients(weights)
        # V.T @ pm, read from the rows of V where pm is nonzero
        return pm + svd.V @ (c1 * (svd.U.T @ z) - c2 * _rows_dot(pm, svd.V)), None


@dataclass
class KernelMMWorkspace:
    """Eigendecomposition K = Q diag(lam) Q' of the gram matrix of a kernel
    design [K diag(y) | 1], shared across penalty and sparsity levels, with the
    update's coefficients cached for the current weights.

    Eigenpairs with ``|lam| <= RANK_TOL max |lam|`` are dropped, as ``thin_svd``
    drops small singular values. ``W = diag(y) Q`` has orthonormal columns and
    ``K diag(y) = Q diag(lam) W'``, so the normal matrix of the update is
    diagonal in the coordinates ``u = W' beta_a`` of the dual weights but for
    the intercept's border row and column. With the projection ``pm = (pa,
    pm0)``, ``w = W' pa`` and ``r = a2 lam Q'z + b2 w``, the intercept ``beta0``
    solves that border's scalar Schur complement, then
    ``u = (r - a2 lam q1 beta0) / d``, ``beta_a = pa + W (u - w)`` and the
    scores are ``Q (lam u) + beta0``. The Schur complement is at least ``b2``
    and can vanish without a distance penalty, so ``b2 = 0`` is rejected.
    """

    Q: np.ndarray
    lam: np.ndarray
    q1: np.ndarray          # Q' 1
    _key: tuple | None = field(default=None, repr=False)
    _coef: tuple | None = field(default=None, repr=False)

    @classmethod
    def from_gram(cls, K: np.ndarray) -> "KernelMMWorkspace":
        try:
            lam, Q = np.linalg.eigh(np.asarray(K, dtype=float))
        except np.linalg.LinAlgError as exc:
            raise DataError(f"eigendecomposition failed to converge: {exc}") from exc
        top = float(np.max(np.abs(lam))) if lam.size else 0.0
        keep = np.abs(lam) > RANK_TOL * top
        Q = np.ascontiguousarray(Q[:, keep])
        return cls(Q=Q, lam=lam[keep].copy(), q1=Q.sum(axis=0))

    def coefficients(self, weights: PenaltyWeights):
        """d = a2 lam^2 + b2, g = a2 lam q1 / d, and the intercept's Schur
        complement a2 n + b2 - a2 sum(lam q1 g)."""
        key = (weights.a2, weights.b2)
        if self._key != key:
            if weights.b2 == 0.0:
                raise ValueError("the gram factorization needs a positive distance weight b2")
            a2, lam = weights.a2, self.lam
            d = a2 * lam * lam + weights.b2
            g = a2 * lam * self.q1 / d
            schur = a2 * self.Q.shape[0] + weights.b2 - a2 * float((lam * self.q1) @ g)
            self._coef = (d, g, schur)
            self._key = key
        return self._coef

    def step(self, ev: ObjectiveState, design: DesignMatrix, weights: PenaltyWeights):
        """The exact minimizer of the anchored majorizer at ``ev`` and its scores."""
        d, g, schur = self.coefficients(weights)
        a2, b2, lam, Q, y = weights.a2, weights.b2, self.lam, self.Q, design.y
        z = np.where(ev.margins >= 1.0, ev.scores, y)
        pm = ev.pm
        pa = pm[:-1]
        # W' pa, read from the rows of Q where pa is nonzero
        w = _rows_dot(y * pa, Q)
        r = a2 * lam * (z @ Q) + b2 * w
        beta0 = (a2 * float(z.sum()) + b2 * pm[-1] - float(g @ r)) / schur
        u = r / d - g * beta0
        # Q (u - w) and Q (lam u) in one pass over Q
        prod = Q @ np.column_stack([u - w, lam * u])
        beta = np.empty_like(pm)
        beta[:-1] = pa + y * prod[:, 0]
        beta[-1] = beta0
        return beta, prod[:, 1] + beta0


_MM_KINDS = (MMWorkspace, KernelMMWorkspace)


def _require(ws, *kinds):
    """``ws``, checked to be one of ``kinds``: each solver entry point steps only
    with its own workspaces."""
    if not isinstance(ws, kinds):
        names = " or ".join(kind.__name__ for kind in kinds)
        raise ValueError(f"expected {names}, got {type(ws).__name__}")
    return ws


def mm_update(beta, ws: MMWorkspace | KernelMMWorkspace, design: DesignMatrix,
              constraint: SparsityConstraint, weights: PenaltyWeights) -> np.ndarray:
    """Exact minimizer of the anchored majorizer via the cached factorization."""
    ev = ObjectiveState.at(beta, design, constraint, weights)
    return _require(ws, *_MM_KINDS).step(ev, design, weights)[0]


def _exact_step(gsq: float, Xg: np.ndarray, weights: PenaltyWeights, guard: float) -> float:
    return gsq / (weights.a2 * float(Xg @ Xg) + weights.b2 * gsq + guard)


def step_size(grad, design: DesignMatrix, weights: PenaltyWeights, guard: float) -> float:
    """Exact minimizer of the majorizer along -grad, guarded against 0/0."""
    grad = np.asarray(grad, dtype=float)
    return _exact_step(float(grad @ grad), design.X @ grad, weights, guard)


@dataclass
class SDWorkspace:
    """Denominator guard for the exact line search, fixed per design."""

    guard: float

    @classmethod
    def from_design(cls, design: DesignMatrix) -> "SDWorkspace":
        a2 = 1.0 / design.n
        fro2 = float(np.sum(design.X * design.X))
        return cls(guard=1e-12 * (1.0 + a2 * fro2))

    def step(self, ev: ObjectiveState, design: DesignMatrix, weights: PenaltyWeights):
        """The descent step from ``ev`` and, by linearity, the new iterate's scores."""
        Xg = design.X @ ev.grad
        eta = _exact_step(ev.grad_sq, Xg, weights, self.guard)
        return ev.beta - eta * ev.grad, ev.scores - eta * Xg


def sd_update(beta, ws: SDWorkspace, design: DesignMatrix,
              constraint: SparsityConstraint, weights: PenaltyWeights) -> np.ndarray:
    """One steepest-descent step with the exact surrogate line search."""
    ev = ObjectiveState.at(beta, design, constraint, weights)
    return _require(ws, SDWorkspace).step(ev, design, weights)[0]


# each solver is its workspace type, whose ``step`` is the solver's update
SOLVERS = {"mm": MMWorkspace, "sd": SDWorkspace}


def make_workspace(design: DesignMatrix, solver: str, gram=None):
    """The workspace of ``solver`` (a key of ``SOLVERS``, any case) for ``design``.

    ``gram`` is the gram matrix K of a kernel design [K diag(y) | 1]; ``mm``
    then factors K by ``KernelMMWorkspace`` instead of the design by a thin SVD.
    """
    kind = SOLVERS.get(solver.lower())
    if kind is None:
        raise ValueError(f"unknown solver {solver!r}; expected one of {tuple(SOLVERS)}")
    if kind is MMWorkspace and gram is not None:
        if np.shape(gram) != (design.n, design.p):
            raise ValueError(f"gram matrix shape {np.shape(gram)} does not match "
                             f"a kernel design of {design.n} rows")
        return KernelMMWorkspace.from_gram(gram)
    return kind.from_design(design)


# Plain updates per subproblem before extrapolation engages. On 600 seeded
# random cold starts, extrapolating from the first update ended above the plain
# loop's objective (at a worse stationary point) 30 times; this warm-up, 4 times.
WARMUP = 10


def _solve_subproblem(beta0, ws, design, constraint, weights, cfg: SolverConfig,
                      history=None, pull_tol: float = 0.0):
    """Iterate ``ws.step`` until the squared gradient norm drops below
    ``max(cfg.grad_tol, pull_tol**2 * ||b2 (beta - P(beta))||**2)`` or
    ``cfg.max_inner`` updates have been taken.

    The second term is the squared pull of the distance penalty, which at the
    level's exact solution balances the loss gradient; ``pull_tol > 0`` thus
    asks for that relative accuracy in the balance, with ``cfg.grad_tol`` as
    the floor. It is tested only after the first update, so a start above
    ``cfg.grad_tol`` always takes a step, and it reads the projection the
    gradient has already computed.

    Each update is followed by a convergence test at the fresh iterate. If
    that fails, ``cfg.accel`` is on and more than ``WARMUP`` updates were
    taken, the loop extrapolates past the fresh iterate with weight
    ``(j - 1) / (j + 2)`` and keeps the candidate unless its objective is
    higher, in which case the candidate is dropped and the counter ``j``
    resets to 1. A kept candidate becomes the current point: the loop condition then tests the
    candidate's own gradient, so the returned point may be an extrapolated one.

    Every point is evaluated once (see ``ObjectiveState``). Scores are linear
    in the coefficients, so a candidate's scores are extrapolated from those of
    the two points it comes from, and a step that holds its iterate's scores
    hands them back. An accelerated iteration thus reads the n x p design (or
    its factors) in full 3 times with ``mm`` on a thin SVD (``U.T @ z``,
    ``V @ coef`` and the new scores ``X @ beta``), twice with ``mm`` on a gram
    eigendecomposition (``z @ Q`` and ``Q @ [u - w, lam u]``, which holds the
    scores) and once with ``sd`` (the line search's ``X @ g``), and, for the
    loss gradients of the new iterate and of the candidate, the rows inside
    the margin twice (see ``_rows_dot``).

    Returns the evaluation at the final point and the number of updates taken.
    """
    X = design.X
    beta = np.asarray(beta0, dtype=float).copy()
    cur = ObjectiveState(beta, X @ beta, design, constraint, weights)
    pull_sq = (pull_tol * weights.b2) ** 2

    def small(ev):
        grad_sq = ev.grad_sq
        return grad_sq < cfg.grad_tol or (pull_sq > 0.0 and grad_sq < pull_sq * ev.sq_dist)

    j = 1
    iters = 0
    # the start is held to grad_tol alone: a warm start can meet the pull bound
    # of a barely larger penalty, and a level without an update would leave the
    # distance where it was
    while iters < cfg.max_inner and not (small(cur) if iters else cur.grad_sq < cfg.grad_tol):
        beta_new, scores_new = ws.step(cur, design, weights)
        if scores_new is None:
            scores_new = X @ beta_new
        new = ObjectiveState(beta_new, scores_new, design, constraint, weights)
        iters += 1
        if history is not None:
            history.append(new.objective)
        if small(new) or iters >= cfg.max_inner:
            cur = new
            break
        if cfg.accel and iters > WARMUP:
            w = (j - 1) / (j + 2)
            if w > 0.0:
                cand = ObjectiveState(beta_new + w * (beta_new - cur.beta),
                                      scores_new + w * (scores_new - cur.scores),
                                      design, constraint, weights)
                if cand.objective > new.objective:
                    j = 1
                else:
                    j += 1
                    new = cand
            else:
                j += 1
        cur = new
    return cur, iters


def _report(ev: ObjectiveState, iters, constraint, weights, cfg, t0) -> FitReport:
    return FitReport(
        outer_iters=0,
        rho=weights.rho,
        total_inner_iters=iters,
        objective=ev.objective,
        grad_sq=ev.grad_sq,
        distance=ev.sq_dist / (constraint.p - constraint.k + 1),
        sv_count=int(np.count_nonzero(ev.margins <= 1.0)),
        converged=bool(ev.grad_sq < cfg.grad_tol),
        wall_time=time.perf_counter() - t0,
    )


def _solve(beta0, ws, design, constraint, weights, cfg, history):
    cfg = cfg or SolverConfig()
    t0 = time.perf_counter()
    ev, iters = _solve_subproblem(beta0, ws, design, constraint, weights, cfg, history)
    return ev.beta, _report(ev, iters, constraint, weights, cfg, t0)


def mm_solve(beta0, ws: MMWorkspace | KernelMMWorkspace, design: DesignMatrix,
             constraint: SparsityConstraint, weights: PenaltyWeights,
             cfg: SolverConfig | None = None, history=None):
    """Run the factorization update to stationarity at fixed weights."""
    return _solve(beta0, _require(ws, *_MM_KINDS), design, constraint, weights, cfg, history)


def sd_solve(beta0, ws: SDWorkspace, design: DesignMatrix, constraint: SparsityConstraint,
             weights: PenaltyWeights, cfg: SolverConfig | None = None, history=None):
    """Run guarded steepest descent to stationarity at fixed weights."""
    return _solve(beta0, _require(ws, SDWorkspace), design, constraint, weights, cfg, history)
