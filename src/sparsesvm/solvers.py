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
For a design [F | 1] whose feature block F is square and exactly symmetric,
as a kernel pair's [K | 1] is, it is an eigendecomposition of F, with the
intercept column solved by a one-dimensional Schur complement.
Each solver is its workspace type (``SOLVERS``), whose ``step`` is its update;
``make_workspace`` picks the gram form of ``mm`` for such a design.

The ``mm`` loop runs in the factorization's coordinates: each point carries
its coordinates in the factor basis (``V' beta``, or ``Q' beta_a`` for the
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
        a2s = weights.a2 * self.svd.s
        a2s2 = a2s * self.svd.s
        denom = a2s2 + weights.b2
        return a2s / denom, a2s2 / denom

    def coords(self, x) -> np.ndarray:
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
        """The exact minimizer of the anchored majorizer at ``ev``, packed with its
        scores and coordinates ``t = V' beta`` into one vector ``[beta | scores |
        t]``; ``coefs`` is ``coefficients(weights)``.

        ``z - scores = y * slack`` and ``U' scores = s t``, so ``U' z`` comes from
        the coordinates and the residual's, and the new scores are ``U (s t)``.
        """
        svd = self.svd
        x = np.empty(svd.V.shape[0] + svd.U.shape[0] + svd.s.size)
        beta, scores, t = _unpack(x, svd.V.shape[0], svd.U.shape[0])
        uz = svd.s * ev.coords + ev.residual_coords
        if weights.b2 == 0.0:
            # unpenalized system: minimum-norm least-squares solution
            np.divide(uz, svd.s, out=t)
            svd.V.dot(t, out=beta)
            svd.U.dot(uz, out=scores)
            return x
        c1, c2 = coefs
        vpm = ev.pm_coords
        coef = c1 * uz - c2 * vpm
        np.add(vpm, coef, out=t)
        svd.V.dot(coef, out=beta)
        beta += ev.pm
        svd.U.dot(svd.s * t, out=scores)
        return x


def _factored_grad_sq(ev: ObjectiveState, scale, square: bool, weights: PenaltyWeights) -> float:
    """``||grad||^2`` at ``ev`` for a factorization ``X = R diag(scale) C'`` with
    orthonormal R (n x r) and C (p x r): ``U, s, V`` of a thin SVD, or ``Q, lam,
    Q`` of a gram eigendecomposition (whose intercept column it adds).

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
    grad_sq = float(g.dot(g))
    if not square:
        grad_sq += weights.b2 ** 2 * max(0.0, ev.sq_dist - float(dt.dot(dt)))
    return grad_sq


@dataclass(frozen=True)
class KernelMMWorkspace:
    """Eigendecomposition F = Q diag(lam) Q' of the square symmetric feature
    block of a design [F | 1], such as a kernel pair's gram matrix K, shared
    across penalty levels, sparsity levels and threads: it holds only the
    factorization.

    Eigenpairs with ``|lam| <= RANK_TOL max |lam|`` are dropped, as ``thin_svd``
    drops small singular values. The normal matrix of the update is diagonal
    in the coordinates ``u = Q' beta_a`` of the feature weights ``beta_a`` but
    for the intercept's border row and column. With the projection ``pm =
    (pa, pm0)``, ``w = Q' pa`` and ``r = a2 lam Q'z + b2 w``, the intercept
    ``beta0`` solves that border's scalar Schur complement, then
    ``u = (r - a2 lam q1 beta0) / d``, ``beta_a = pa + Q (u - w)`` and the
    scores are ``Q (lam u) + beta0``. The Schur complement is at least ``b2``
    and can vanish without a distance penalty, so ``b2 = 0`` is rejected.
    """

    Q: np.ndarray
    lam: np.ndarray
    q1: np.ndarray          # Q' 1

    @classmethod
    def from_design(cls, design: DesignMatrix) -> "KernelMMWorkspace":
        try:
            lam, Q = np.linalg.eigh(design.X[:, :-1])
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
        schur = a2 * self.Q.shape[0] + weights.b2 - a2 * float((lam * self.q1).dot(g))
        return d, g, schur

    def coords(self, x) -> np.ndarray:
        """``Q' x_a`` of the feature weights ``x_a = x[:-1]``, read from the rows
        of Q where ``x_a`` is nonzero."""
        return _rows_dot(x[:-1], self.Q)

    def residual_coords(self, v) -> np.ndarray:
        """``Q' v``, read from the rows of Q where ``v`` is nonzero."""
        return _rows_dot(v, self.Q)

    def grad_sq(self, ev: ObjectiveState, design: DesignMatrix, weights: PenaltyWeights) -> float:
        """The squared gradient norm at ``ev`` from its coordinates, plus the
        intercept's ``(-a2 sum(y slack))^2``: the intercept is never projected."""
        Q = self.Q
        intercept = weights.a2 * float(design.y.dot(ev.slack))
        return (_factored_grad_sq(ev, self.lam, Q.shape[1] == Q.shape[0], weights)
                + intercept * intercept)

    def step(self, ev: ObjectiveState, design: DesignMatrix, weights: PenaltyWeights, coefs):
        """The exact minimizer of the anchored majorizer at ``ev``, packed with its
        scores and coordinates ``u = Q' beta_a`` into one vector ``[beta | scores
        | u]``; ``coefs`` is ``coefficients(weights)``.

        The scores are ``Q (lam u) + beta0``, so with ``z - scores = y * slack``
        ``Q' z = lam u + beta0 Q'1 + Q' (y slack)`` comes from the coordinates.
        """
        d, g, schur = coefs
        a2, b2, lam, Q = weights.a2, weights.b2, self.lam, self.Q
        n = Q.shape[0]
        x = np.empty(2 * n + 1 + lam.size)
        beta, scores, u = _unpack(x, n + 1, n)
        pm = ev.pm
        w = ev.pm_coords
        qz = lam * ev.coords + ev.beta[-1] * self.q1 + ev.residual_coords
        r = a2 * lam * qz + b2 * w
        z_sum = float(ev.scores.sum()) + float(design.y.dot(ev.slack))
        beta0 = (a2 * z_sum + b2 * pm[-1] - float(g.dot(r))) / schur
        np.subtract(r / d, g * beta0, out=u)
        # Q (u - w) and Q (lam u) in one pass over Q
        prod = Q.dot(np.column_stack([u - w, lam * u]))
        np.add(pm[:-1], prod[:, 0], out=beta[:-1])
        beta[-1] = beta0
        np.add(prod[:, 1], beta0, out=scores)
        return x


_MM_KINDS = (MMWorkspace, KernelMMWorkspace)


def _unpack(x: np.ndarray, p1: int, n: int):
    """Views of a packed iterate ``[beta | scores | coords]`` with ``p1``
    coefficients and ``n`` scores; ``coords`` is empty for ``sd``."""
    return x[:p1], x[p1:p1 + n], x[p1 + n:]


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
    unused here but packed by ``step`` for the inner loop; dropping them
    would need a second step path. Returns the ``beta`` part of that packed
    iterate.
    """
    ev = ObjectiveState.at(beta, design, constraint, weights, _require(ws, *_MM_KINDS))
    return ws.step(ev, design, weights, ws.coefficients(weights))[:design.X.shape[1]]


def _exact_step(gsq: float, Xg: np.ndarray, weights: PenaltyWeights, guard: float) -> float:
    return gsq / (weights.a2 * float(Xg.dot(Xg)) + weights.b2 * gsq + guard)


def step_size(grad, design: DesignMatrix, weights: PenaltyWeights, guard: float) -> float:
    """Exact minimizer of the majorizer along -grad, guarded against 0/0."""
    grad = np.asarray(grad, dtype=float)
    return _exact_step(float(grad.dot(grad)), design.X.dot(grad), weights, guard)


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
        """The descent step from ``ev`` packed with, by linearity, the new
        iterate's scores into one vector ``[beta | scores]``; ``sd`` keeps no
        coordinates."""
        X = design.X
        x = np.empty(X.shape[1] + X.shape[0])
        beta, scores, _ = _unpack(x, X.shape[1], X.shape[0])
        Xg = X.dot(ev.grad, out=scores)
        eta = _exact_step(ev.grad_sq, Xg, weights, self.guard)
        np.subtract(ev.beta, eta * ev.grad, out=beta)
        np.subtract(ev.scores, eta * Xg, out=scores)
        return x


def sd_update(beta, ws: SDWorkspace, design: DesignMatrix,
              constraint: SparsityConstraint, weights: PenaltyWeights) -> np.ndarray:
    """One steepest-descent step with the exact surrogate line search."""
    ev = ObjectiveState.at(beta, design, constraint, weights)
    return _require(ws, SDWorkspace).step(ev, design, weights,
                                          ws.coefficients(weights))[:design.X.shape[1]]


# each solver is its workspace type, whose ``step`` is the solver's update
SOLVERS = {"mm": MMWorkspace, "sd": SDWorkspace}


def make_workspace(design: DesignMatrix, solver: str):
    """The workspace of ``solver`` (a key of ``SOLVERS``, any case) for ``design``.

    ``mm`` factors a design whose feature block ``X[:, :-1]`` is square and
    exactly symmetric, as a kernel pair's [K | 1] is, by ``KernelMMWorkspace``,
    and any other design by a thin SVD.
    """
    kind = SOLVERS.get(solver.lower())
    if kind is None:
        raise ValueError(f"unknown solver {solver!r}; expected one of {tuple(SOLVERS)}")
    F = design.X[:, :-1]
    if kind is MMWorkspace and F.shape[0] == F.shape[1] and np.array_equal(F, F.T):
        return KernelMMWorkspace.from_design(design)
    return kind.from_design(design)


# Plain updates per fit before extrapolation engages. On 300 seeded random cold
# starts per solver, extrapolating from the first update ended above the plain
# loop's objective (at a worse stationary point) in 34 (mm) and 30 (sd) solves;
# this warm-up, in 1 and 1.
WARMUP = 10


def _past(new, move, w: float):
    """``new + w move``: the point past ``new`` along the momentum ``move = new - old``."""
    return new + w * move


class _Run(NamedTuple):
    """The accelerated sequence of one fit, handed from each penalty level to
    the next: the kept point ``y_k``, the last update's iterate ``x_k`` packed
    as ``ws.step`` packs it, the Nesterov counter ``j`` and the number of
    updates taken so far in the fit."""

    kept: ObjectiveState
    last: np.ndarray
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
    from its kept point, weighed again in place (``ObjectiveState._weigh``)
    if its weights differ from these: its scores, coordinates, projection,
    distance, loss and residual and projection coordinates carry over, and
    only its penalty, objective and gradient are formed anew. One fit thus
    computes ``X @ beta`` once and projects each point once.

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
    basis, are linear in the coefficients: each step hands back its iterate
    packed as one vector ``[beta | scores | coords]`` (``coords`` empty for
    ``sd``), the restart test reads its ``beta`` part, and the kept point
    is extrapolated from the last two packed iterates at once, so that its
    ``ObjectiveState`` is built from views of one vector. An accelerated
    iteration thus reads the factors in full twice with ``mm`` on a thin SVD
    (``V @ coef`` and the new scores ``U @ (s t)``), once with ``mm`` on a
    gram eigendecomposition (``Q @ [u - w, lam u]``), and the design once
    with ``sd`` (the line search's ``X @ g``); besides that it reads the rows
    inside the margin once, for the kept point's gradient (see
    ``_rows_dot``), and with ``mm`` the rows of its projection's support.

    Returns the number of updates taken at this level, the number of restarts
    and the ``_Run`` to hand to the next level, whose kept point is the final
    one.
    """
    basis = ws if isinstance(ws, _MM_KINDS) else None
    p1, n = design.X.shape[1], design.n
    if not isinstance(start, _Run):
        beta = np.array(start, dtype=float)
        if beta.shape != (p1,):
            raise ValueError(f"beta0 has shape {beta.shape}, expected ({p1},)")
        ev = ObjectiveState.at(beta, design, constraint, weights, basis)
        # x_k before the first update is the start
        start = _Run(ev, np.concatenate((ev.beta, ev.scores, ev.coords)), 1, 0)
    cur, last, j, updates = start
    if cur.weights != weights:
        cur._weigh(weights)
    coefs = ws.coefficients(weights)
    pull_sq = (pull_tol * weights.b2) ** 2

    def small(ev):
        grad_sq = ev.grad_sq
        return grad_sq < cfg.grad_tol or (pull_sq > 0.0 and grad_sq < pull_sq * ev.sq_dist)

    iters = restarts = 0
    while iters < cfg.max_inner and not small(cur):
        new = x = ws.step(cur, design, weights, coefs)
        iters += 1
        updates += 1
        if cfg.accel and WARMUP < updates and iters < cfg.max_inner:
            move = new - last
            if (cur.beta - new[:p1]).dot(move[:p1]) > 0.0:
                j = 1
                restarts += 1
            w = (j - 1) / (j + 2)
            j += 1
            if w > 0.0:
                x = _past(new, move, w)
        last = new
        beta, scores, coords = _unpack(x, p1, n)
        cur = ObjectiveState(beta, scores, design, constraint, weights, coords, basis)
        if history is not None:
            history.append(cur.objective)
    return iters, restarts, _Run(cur, last, j, updates)


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
    iters, _, run = _solve_subproblem(beta0, ws, design, constraint, weights, cfg, history)
    ev = run.kept
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
