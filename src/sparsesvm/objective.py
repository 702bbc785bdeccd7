"""Squared-hinge loss and its distance-penalized form."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import DesignMatrix
from .sparsity import SparsityConstraint, project

__all__ = [
    "PenaltyWeights",
    "ObjectiveState",
    "hinge_loss",
    "gradient",
    "penalized_objective",
]


@dataclass(frozen=True)
class PenaltyWeights:
    """Block weights of the stacked least-squares surrogate.

    a2 = 1/n scales the loss block; b2 = rho / (p - k + 1) scales the
    distance block, so b2 vanishes exactly when rho does.
    """

    a2: float
    b2: float
    rho: float

    @classmethod
    def for_problem(cls, n: int, constraint: SparsityConstraint, rho: float) -> "PenaltyWeights":
        if n < 1:
            raise ValueError("n must be positive")
        if not 0 <= rho < math.inf:
            raise ValueError(f"rho must be nonnegative and finite, got {rho}")
        b2 = rho / (constraint.p - constraint.k + 1)
        # the solvers square b2, and a Python float's ** raises on overflow
        if not math.isfinite(b2 * b2):
            raise ValueError(f"rho is too large: the squared distance weight overflows at rho={rho}")
        return cls(a2=1.0 / n, b2=b2, rho=float(rho))


# Products in the inner loop (here and in ``solvers``) use ``ndarray.dot``
# rather than ``@``: on float64 vectors and matrices numpy 2.4 returns the same
# bits either way (checked on 15000 random products up to 900 x 900, OpenBLAS),
# and ``dot`` spends about 1 us less per matrix-vector product on the 200x101
# planted designs.


# Gathering rows costs about as much as a dense product over this many matrix
# entries, besides copying them (numpy call overhead; measured with OpenBLAS on
# a 2-vCPU x86 VM for designs from 101x101 to 600x501).
_GATHER_COST = 40_000


def _loss_scale(weights: PenaltyWeights, design: DesignMatrix, basis) -> np.ndarray:
    """The loss gradient's scale at ``weights``: ``-a2 y``, by which the slack
    is multiplied, or with a basis ``-a2`` times its ``scale`` (its singular
    values or eigenvalues), by which the residual coordinates are."""
    return -weights.a2 * (design.y if basis is None else basis.scale)


def _rows_dot(v: np.ndarray, A: np.ndarray) -> np.ndarray:
    """``v @ A``, read from the rows of ``A`` where ``v`` is nonzero when that
    is the cheaper way.

    A gathered row is copied before the product reads it, which costs about
    three reads in place, so the rows are gathered only when the entries a
    dense product would read beyond three per gathered row outnumber
    ``_GATHER_COST``: never on small matrices, nor once a third of the rows
    are nonzero. ``take`` copies the rows with the interpreter lock released,
    which fancy indexing does not, so fold threads gather in parallel.
    """
    width = A.shape[1]
    if v.size * width > _GATHER_COST:
        rows = v.nonzero()[0]
        if (v.size - 3 * rows.size) * width > _GATHER_COST:
            return v[rows].dot(A.take(rows, axis=0))
    return v.dot(A)


class ObjectiveState:
    """The penalized objective at one point, every piece formed once, at once.

    Built from ``beta``, its scores ``X @ beta`` and its coordinates
    ``coords`` in the factor basis of its workspace ``basis`` (``V' beta`` for
    a thin SVD, see ``solvers``; empty without a basis), which ``at``
    computes: the slack, loss, projection ``pm`` and squared distance
    depend only on the point, and so do, with a basis, the coordinates of the
    loss residual ``y * slack`` and of ``pm``, each read from the nonzero rows
    of a factor. ``_weigh`` forms the pieces at ``weights``: ``penalty``,
    ``objective`` and ``grad_sq``, the last from the coordinates on a point
    with a basis, whose step reads those too; only a point without a basis
    gets the vector ``grad``, which its step reads. A point moved to other
    weights is weighed again in place. ``scale``, the loss gradient's scale
    ``_loss_scale(weights, design, basis)``, is formed per point when not
    given; the inner loop forms it once per level.
    """

    def __init__(self, beta, scores, design, constraint, weights, coords=None, basis=None,
                 scale=None):
        self.beta = beta
        self.scores = scores
        self.coords = coords
        self._design = design
        self._basis = basis
        # max(0, 1 - y * scores), formed in one array
        self.slack = slack = design.y * scores
        np.subtract(1.0, slack, out=slack)
        np.maximum(0.0, slack, out=slack)
        # the averaged squared hinge, as in hinge_loss
        self.loss = float(slack.dot(slack)) / (2.0 * slack.size)
        self.pm = pm = project(beta, constraint)
        self._diff = diff = beta - pm
        self.sq_dist = float(diff.dot(diff))
        if basis is not None:
            self.residual_coords = basis.residual_coords(design.y * slack)
            self.pm_coords = basis.coords(pm)
        self._weigh(weights, scale)

    @classmethod
    def at(cls, beta, design: DesignMatrix, constraint: SparsityConstraint,
           weights: PenaltyWeights, basis=None) -> ObjectiveState:
        """The state at ``beta``, its scores and its coordinates in ``basis``
        computed from the design."""
        beta = np.asarray(beta, dtype=float)
        coords = beta[:0] if basis is None else basis.coords(beta)
        return cls(beta, design.X.dot(beta), design, constraint, weights, coords, basis)

    def _weigh(self, weights: PenaltyWeights, scale=None) -> None:
        """Form the pieces that depend on ``weights``, replacing any earlier ones;
        ``scale`` is ``_loss_scale`` at ``weights``, formed here when not given."""
        if scale is None:
            scale = _loss_scale(weights, self._design, self._basis)
        self.weights = weights
        self.penalty = 0.5 * weights.b2 * self.sq_dist
        self.objective = self.loss + self.penalty
        if self._basis is None:
            # X^T v with v_i = -a2 * y_i * max(0, 1 - margin_i), plus the penalty pull;
            # v vanishes on the rows outside the margin, so only the others are read
            self.grad = g = _rows_dot(scale * self.slack, self._design.X)
            g += weights.b2 * self._diff
            self.grad_sq = float(g.dot(g))
        else:
            self.grad_sq = self._basis.grad_sq(self, self._design, weights, scale)


def hinge_loss(beta: np.ndarray, design: DesignMatrix) -> float:
    """Averaged squared hinge: (1/2n) sum_i max(0, 1 - y_i x_i' beta)^2."""
    slack = np.maximum(0.0, 1.0 - design.y * design.X.dot(beta))
    return float(slack.dot(slack)) / (2.0 * slack.size)


def gradient(beta, design: DesignMatrix, constraint: SparsityConstraint, weights: PenaltyWeights) -> np.ndarray:
    """Gradient of the penalized objective, defined wherever the projection is unique."""
    return ObjectiveState.at(beta, design, constraint, weights).grad


def penalized_objective(beta, design, constraint, weights) -> ObjectiveState:
    """The state at ``beta`` with its objective and gradient already evaluated."""
    return ObjectiveState.at(beta, design, constraint, weights)
