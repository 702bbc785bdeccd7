"""Inner solvers for one penalty level: a closed-form factorization update and
exact-line-search steepest descent, sharing one Nesterov loop with restarts.

Both minimize the same anchored least-squares majorizer of the penalized
squared-hinge objective; the factorization route solves it exactly through a
factorization computed once per design, the descent route never touches one.
For a linear design the factorization is a thin SVD (``data.thin_svd``),
taken from the eigendecomposition of ``X'X`` (``XX'`` when the design is
wide) at about half the cost of LAPACK's SVD. Squaring the design squares its
condition number, and the factors lose orthogonality in step, so that route is
guarded: a design whose gram eigenvalues span ``data.GRAM_SPAN (n + p)`` or
more, a rank-deficient one among them, is factored by LAPACK's SVD instead.
For a kernel design [K diag(y) | 1] it is an eigendecomposition of the
symmetric gram matrix K, with the intercept column solved by a
one-dimensional Schur complement.
Each solver is its workspace type (``SOLVERS``), whose ``step`` is its update;
``make_workspace`` picks the gram form of ``mm`` when it is given K.

The ``mm`` loop runs in the factorization's coordinates: each point carries
its coordinates in the factor basis (``V' beta``, or ``W' beta_a`` for the
gram form), which give its working response, its new scores and its squared
gradient norm without a full pass over the design, so an accelerated
iteration reads the factors in full twice (once for the gram form).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple

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


@dataclass(frozen=True)
class MMWorkspace:
    """Thin SVD of the design, shared across penalty levels, sparsity levels and
    threads: it holds only the factorization.

    ``from_design`` takes it from ``data.thin_svd``: the eigendecomposition of
    ``X'X`` (``XX'`` for a wide design) where squaring the design still keeps
    the factors orthonormal to a small multiple of ``eps (n + p)``, the
    accuracy the update and ``_factored_grad_sq`` rely on, and LAPACK's SVD
    with the ``RANK_TOL`` cut elsewhere.
    """

    svd: ThinSVD

    @classmethod
    def from_design(cls, design: DesignMatrix) -> "MMWorkspace":
        return cls(svd=thin_svd(design.X))

    def coefficients(self, weights: PenaltyWeights):
        """c1_j = a2 s_j / (a2 s_j^2 + b2), c2_j = a2 s_j^2 / (a2 s_j^2 + b2)."""
        s = self.svd.s
        denom = weights.a2 * s * s + weights.b2
        return weights.a2 * s / denom, weights.a2 * s * s / denom

    def coords(self, x, design: DesignMatrix) -> np.ndarray:
        """``V' x``, read from the rows of V where ``x`` is nonzero."""
        return _rows_dot(x, self.svd.V)

    def residual_coords(self, v) -> np.ndarray:
        """``U' v``, read from the rows of U where ``v`` is nonzero."""
        return _rows_dot(v, self.svd.U)

    def grad_sq(self, ev: ObjectiveState, design: DesignMatrix, weights: PenaltyWeights) -> float:
        """The squared gradient norm at ``ev`` from its coordinates."""
        V = self.svd.V
        return _factored_grad_sq(ev, self.svd.s, V.shape[1] == V.shape[0], weights)

    def step(self, ev: ObjectiveState, design: DesignMatrix, weights: PenaltyWeights, coefs):
        """The exact minimizer of the anchored majorizer at ``ev``, its scores and
        coordinates ``t = V' beta``; ``coefs`` is ``coefficients(weights)``.

        ``z - scores = y * slack`` and ``U' scores = s t``, so ``U' z`` comes from
        the coordinates and the residual's, and the new scores are ``U (s t)``.
        """
        svd = self.svd
        uz = svd.s * ev.coords + ev.residual_coords
        if weights.b2 == 0.0:
            # unpenalized system: minimum-norm least-squares solution
            t = uz / svd.s
            return svd.V @ t, svd.U @ uz, t
        c1, c2 = coefs
        vpm = ev.pm_coords
        coef = c1 * uz - c2 * vpm
        t = vpm + coef
        return ev.pm + svd.V @ coef, svd.U @ (svd.s * t), t


def _factored_grad_sq(ev: ObjectiveState, scale, square: bool, weights: PenaltyWeights) -> float:
    """``||grad||^2`` at ``ev`` for a factorization ``X = R diag(scale) C'`` with
    orthonormal R (n x r) and C (p x r): ``U, s, V`` of a thin SVD, or ``Q, lam,
    W`` of a gram eigendecomposition (whose intercept column ``kernel`` adds).

    With ``t = C' beta`` and ``dt = t - C' pm``, the gradient
    ``X' (-a2 y slack) + b2 (beta - pm)`` has the coordinates
    ``C' grad = -a2 scale (R' y slack) + b2 dt``; the rest of it is
    ``b2 (I - C C') (beta - pm)``, of squared norm ``b2^2 (sq_dist - ||dt||^2)``.
    That difference cancels: its rounding error is about ``eps b2^2 sq_dist``,
    which can exceed the gradient itself near a stationary point far from
    the set. When C is square, ``I - C C'`` is zero up to C's departure from
    orthogonality ``delta = ||C'C - I||`` (a small multiple of ``eps p`` for
    LAPACK's SVD and eigensolver; on ``data.thin_svd``'s gram route a square
    C is the eigensolver's), so the term is at most
    ``delta^2 b2^2 sq_dist``, second order in ``eps`` and below the rounding
    of the kept terms, and it is skipped. ``dt`` is itself a difference of
    coordinates of size up to ``||beta||``, so either way the result is within
    a small multiple of ``(eps (n + p) + RANK_TOL) G^2`` of ``||grad||^2``,
    with ``G = a2 ||X|| ||slack|| + b2 ||beta||`` (``RANK_TOL`` only when the
    rank cut dropped a factor).
    """
    g = -weights.a2 * scale * ev.residual_coords
    dt = ev.coords - ev.pm_coords
    g += weights.b2 * dt
    grad_sq = float(g @ g)
    if not square:
        grad_sq += weights.b2 ** 2 * max(0.0, ev.sq_dist - float(dt @ dt))
    return grad_sq


@dataclass(frozen=True)
class KernelMMWorkspace:
    """Eigendecomposition K = Q diag(lam) Q' of the gram matrix of a kernel
    design [K diag(y) | 1], shared across penalty levels, sparsity levels and
    threads: it holds only the factorization.

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
        if weights.b2 == 0.0:
            raise ValueError("the gram factorization needs a positive distance weight b2")
        a2, lam = weights.a2, self.lam
        d = a2 * lam * lam + weights.b2
        g = a2 * lam * self.q1 / d
        schur = a2 * self.Q.shape[0] + weights.b2 - a2 * float((lam * self.q1) @ g)
        return d, g, schur

    def coords(self, x, design: DesignMatrix) -> np.ndarray:
        """``W' x_a = Q' (y x_a)`` of the dual weights ``x_a = x[:-1]``, read from
        the rows of Q where ``x_a`` is nonzero."""
        return _rows_dot(design.y * x[:-1], self.Q)

    def residual_coords(self, v) -> np.ndarray:
        """``Q' v``, read from the rows of Q where ``v`` is nonzero."""
        return _rows_dot(v, self.Q)

    def grad_sq(self, ev: ObjectiveState, design: DesignMatrix, weights: PenaltyWeights) -> float:
        """The squared gradient norm at ``ev`` from its coordinates, plus the
        intercept's ``(-a2 sum(y slack))^2``: the intercept is never projected."""
        Q = self.Q
        intercept = weights.a2 * float(design.y @ ev.slack)
        return (_factored_grad_sq(ev, self.lam, Q.shape[1] == Q.shape[0], weights)
                + intercept * intercept)

    def step(self, ev: ObjectiveState, design: DesignMatrix, weights: PenaltyWeights, coefs):
        """The exact minimizer of the anchored majorizer at ``ev``, its scores and
        coordinates ``u = W' beta_a``; ``coefs`` is ``coefficients(weights)``.

        The scores are ``Q (lam u) + beta0``, so with ``z - scores = y * slack``
        ``Q' z = lam u + beta0 Q'1 + Q' (y slack)`` comes from the coordinates.
        """
        d, g, schur = coefs
        a2, b2, lam, Q, y = weights.a2, weights.b2, self.lam, self.Q, design.y
        pm = ev.pm
        w = ev.pm_coords
        qz = lam * ev.coords + ev.beta[-1] * self.q1 + ev.residual_coords
        r = a2 * lam * qz + b2 * w
        z_sum = float(ev.scores.sum()) + float(y @ ev.slack)
        beta0 = (a2 * z_sum + b2 * pm[-1] - float(g @ r)) / schur
        u = r / d - g * beta0
        # Q (u - w) and Q (lam u) in one pass over Q
        prod = Q @ np.column_stack([u - w, lam * u])
        beta = np.empty_like(pm)
        beta[:-1] = pm[:-1] + y * prod[:, 0]
        beta[-1] = beta0
        return beta, prod[:, 1] + beta0, u


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
    """Exact minimizer of the anchored majorizer via the workspace's factorization,
    with the update's coefficients formed for this call.

    Four full passes on a thin SVD (three on a gram eigendecomposition):
    ``X @ beta`` and ``V' beta``, ``V @ coef``, and the new scores ``U (s t)``,
    unused here but returned by ``step`` for the inner loop; dropping them
    would need a second step path.
    """
    ev = ObjectiveState.at(beta, design, constraint, weights, _require(ws, *_MM_KINDS))
    return ws.step(ev, design, weights, ws.coefficients(weights))[0]


def _exact_step(gsq: float, Xg: np.ndarray, weights: PenaltyWeights, guard: float) -> float:
    return gsq / (weights.a2 * float(Xg @ Xg) + weights.b2 * gsq + guard)


def step_size(grad, design: DesignMatrix, weights: PenaltyWeights, guard: float) -> float:
    """Exact minimizer of the majorizer along -grad, guarded against 0/0."""
    grad = np.asarray(grad, dtype=float)
    return _exact_step(float(grad @ grad), design.X @ grad, weights, guard)


@dataclass(frozen=True)
class SDWorkspace:
    """Denominator guard for the exact line search, fixed per design."""

    guard: float

    @classmethod
    def from_design(cls, design: DesignMatrix) -> "SDWorkspace":
        a2 = 1.0 / design.n
        fro2 = float(np.sum(design.X * design.X))
        return cls(guard=1e-12 * (1.0 + a2 * fro2))

    def coefficients(self, weights: PenaltyWeights):
        """None: the line search forms nothing per level."""
        return None

    def step(self, ev: ObjectiveState, design: DesignMatrix, weights: PenaltyWeights, coefs):
        """The descent step from ``ev`` and, by linearity, the new iterate's scores;
        ``sd`` keeps no coordinates."""
        Xg = design.X @ ev.grad
        eta = _exact_step(ev.grad_sq, Xg, weights, self.guard)
        return ev.beta - eta * ev.grad, ev.scores - eta * Xg, None


def sd_update(beta, ws: SDWorkspace, design: DesignMatrix,
              constraint: SparsityConstraint, weights: PenaltyWeights) -> np.ndarray:
    """One steepest-descent step with the exact surrogate line search."""
    ev = ObjectiveState.at(beta, design, constraint, weights)
    return _require(ws, SDWorkspace).step(ev, design, weights, ws.coefficients(weights))[0]


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


# Plain updates per fit before extrapolation engages. On 300 seeded random cold
# starts per solver, extrapolating from the first update ended above the plain
# loop's objective (at a worse stationary point) in 34 (mm) and 30 (sd) solves;
# this warm-up, in 1 and 1.
WARMUP = 10


def _past(new, old, w: float):
    """``new + w (new - old)``, or None for a point without coordinates."""
    return None if new is None else new + w * (new - old)


class _Run(NamedTuple):
    """The accelerated sequence of one fit, handed from each penalty level to
    the next: the kept point ``y_k``, the last update's iterate ``x_k`` as
    ``(beta, scores, coords)``, the Nesterov counter ``j`` and the number of
    updates taken so far in the fit."""

    kept: ObjectiveState
    last: tuple
    j: int
    updates: int


def _solve_subproblem(start, ws, design, constraint, weights, cfg: SolverConfig,
                      history=None, pull_tol: float = 0.0):
    """Iterate ``ws.step`` until the squared gradient norm drops below
    ``max(cfg.grad_tol, pull_tol**2 * ||b2 (beta - P(beta))||**2)`` or
    ``cfg.max_inner`` updates have been taken at this level.

    The level's update coefficients (``ws.coefficients``) are formed once,
    before its first update; the workspace holds nothing per level, so one
    workspace serves concurrent fits.

    ``start`` is a coefficient vector, for a fresh run (one entry per design
    column, else ``ValueError``), or the ``_Run`` the previous penalty level
    handed back: the level then continues that level's accelerated sequence
    from its kept point, moved to these weights
    by ``ObjectiveState.at_weights``: its scores, coordinates, projection,
    distance, loss and residual and projection coordinates carry over, and
    only its objective and gradient are formed anew; a fresh start is already
    at these weights and is not weighed again. One fit thus computes
    ``X @ beta`` once and projects each point once.

    The second term is the squared pull of the distance penalty, which at the
    level's exact solution balances the loss gradient; ``pull_tol > 0`` thus
    asks for that relative accuracy in the balance, with ``cfg.grad_tol`` as
    the floor. The start is tested like every later point, so a warm start
    that already meets the bound takes no update; the test reads the
    projection the gradient has already computed.

    Each update steps from the kept point ``y_k`` to ``x_{k+1}``. Once
    ``cfg.accel`` is on and more than ``WARMUP`` updates were taken in the
    run, the loop keeps ``y_{k+1} = x_{k+1} + w (x_{k+1} - x_k)`` with ``w =
    (j - 1) / (j + 2)``, except after the update that spends the level's
    budget; else ``x_{k+1}``. One rule resets ``j`` to 1 (so this ``w = 0``),
    counted as a restart: a step against the momentum, ``(y_k - x_{k+1}) .
    (x_{k+1} - x_k) > 0``, tested before the extrapolation (the gradient
    restart of O'Donoghue and Candes, read from the step). No objective is
    compared, so the kept objective may rise.

    Each update forms one point, the kept one, with every piece of its
    evaluation at once (see ``ObjectiveState``), and convergence is tested
    there. Scores, and an ``mm`` point's coordinates in its workspace's factor
    basis, are linear in the coefficients: each step hands back its
    iterate's, and the kept point's are extrapolated from those of the last
    two iterates. An accelerated
    iteration thus reads the factors in full twice with ``mm`` on a thin SVD
    (``V @ coef`` and the new scores ``U @ (s t)``), once with ``mm`` on a
    gram eigendecomposition (``Q @ [u - w, lam u]``), and the design once
    with ``sd`` (the line search's ``X @ g``); besides that it reads the rows
    inside the margin once, for the kept point's gradient (see
    ``_rows_dot``), and with ``mm`` the rows of its projection's support.

    Returns the evaluation at the final point, the number of updates taken at
    this level, the number of restarts and the ``_Run`` to hand to the next
    level.
    """
    basis = ws if isinstance(ws, _MM_KINDS) else None
    if not isinstance(start, _Run):
        beta = np.array(start, dtype=float)
        if beta.shape != (design.X.shape[1],):
            raise ValueError(f"beta0 has shape {beta.shape}, expected ({design.X.shape[1]},)")
        ev = ObjectiveState.at(beta, design, constraint, weights, basis)
        # x_k before the first update is the start
        start = _Run(ev, (ev.beta, ev.scores, ev.coords), 1, 0)
    kept, last, j, updates = start
    cur = kept.at_weights(weights)
    coefs = ws.coefficients(weights)
    pull_sq = (pull_tol * weights.b2) ** 2

    def small(ev):
        grad_sq = ev.grad_sq
        return grad_sq < cfg.grad_tol or (pull_sq > 0.0 and grad_sq < pull_sq * ev.sq_dist)

    iters = restarts = 0
    while iters < cfg.max_inner and not small(cur):
        beta, scores, coords = new = ws.step(cur, design, weights, coefs)
        iters += 1
        updates += 1
        if cfg.accel and WARMUP < updates and iters < cfg.max_inner:
            if (cur.beta - beta) @ (beta - last[0]) > 0.0:
                j = 1
                restarts += 1
            w = (j - 1) / (j + 2)
            j += 1
            if w > 0.0:
                beta, scores, coords = (_past(x, old, w) for x, old in zip(new, last))
        last = new
        cur = ObjectiveState(beta, scores, design, constraint, weights, coords, basis)
        if history is not None:
            history.append(cur.objective)
    return cur, iters, restarts, _Run(cur, last, j, updates)


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
    constraint.require_p(design.p)
    cfg = cfg or SolverConfig()
    t0 = time.perf_counter()
    ev, iters, _, _ = _solve_subproblem(beta0, ws, design, constraint, weights, cfg, history)
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
