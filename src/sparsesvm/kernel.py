"""Gaussian kernels: gram matrices, bandwidths and the fitted kernel model.

A kernel pair is fitted as a linear pair whose features are the columns of
its gram matrix: the design ``[K | 1]`` holds signed dual weights
``c_j = y_j alpha_j`` plus an intercept. Sparsity applied to those weights
bounds the number of retained training samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import MAX_SQ_NORM, DataError

__all__ = ["KernelModel", "gram_matrix", "kernel_predict"]


def _sq_norms(A: np.ndarray) -> np.ndarray:
    """The rows' squared norms; a row past ``MAX_SQ_NORM``, where its distances
    could overflow, is refused."""
    with np.errstate(over="ignore"):  # refused below
        a2 = np.sum(A * A, axis=1)
    big = np.flatnonzero(~(a2 <= MAX_SQ_NORM))
    if big.size:
        raise DataError("row {row} is too large for the Gaussian kernel: its "
                        f"squared norm is {a2[big[0]]:g}", big[0])
    return a2


def _sq_dists(A: np.ndarray, B: np.ndarray, out=None) -> np.ndarray:
    d2 = np.add(_sq_norms(A)[:, None], _sq_norms(B)[None, :], out=out)
    d2 -= 2.0 * (A @ B.T)
    return np.maximum(d2, 0.0, out=d2)


def _median_upper(d2: np.ndarray) -> float:
    """``np.median``'s bits over the entries above the diagonal (1 if none, or if 0)."""
    d = d2[np.less.outer(np.arange(d2.shape[0]), np.arange(d2.shape[0]))]
    if not d.size:
        return 1.0
    h = d.size // 2
    d.partition((h - 1, h))
    return float(d[h] if d.size % 2 else (d[h - 1] + d[h]) / 2) or 1.0


def gram_matrix(features: np.ndarray, gamma: float | None, out=None) -> tuple[np.ndarray, float]:
    """``(K, gamma)``, K_ij = exp(-gamma ||x_i - x_j||^2) with unit diagonal, written into
    ``out`` (n x n, any strides) if given; ``gamma`` None is 1 / (p m), m the median
    squared distance over the pairs i < j. K is exactly symmetric: ``X @ X.T`` on one
    contiguous buffer fills one triangle and copies it to the other, ``a2_i + a2_j``
    commutes, and the clamp, the scaling and ``exp`` act on each entry alone."""
    X = np.ascontiguousarray(features, dtype=float)
    p = X.shape[1]
    K = _sq_dists(X, X, out)
    gamma = 1.0 / (p * _median_upper(K)) if gamma is None else gamma
    if not 0 < gamma < math.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    with np.errstate(over="ignore"):  # -inf past the float range, whose exp is 0
        K *= -gamma
    np.exp(K, out=K)
    np.fill_diagonal(K, 1.0)
    return K, gamma


@dataclass(frozen=True)
class KernelModel:
    """Dual coefficients plus the training points needed to score new data."""

    alpha: np.ndarray
    gamma: float
    train_features: np.ndarray
    train_labels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=float))
        object.__setattr__(self, "train_features", np.asarray(self.train_features, dtype=float))
        object.__setattr__(self, "train_labels", np.asarray(self.train_labels, dtype=float))
        if not 0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        if self.alpha.shape != (self.train_features.shape[0] + 1,):
            raise ValueError("alpha must have one entry per training sample plus an intercept")
        if self.train_labels.shape != (self.train_features.shape[0],):
            raise ValueError("training labels do not match training features")
        if not np.all(np.abs(self.train_labels) == 1.0):
            raise ValueError("training labels must be +/-1")

    @property
    def support_size(self) -> int:
        return int(np.count_nonzero(self.alpha[:-1]))


def kernel_predict(model: KernelModel, x) -> float | np.ndarray:
    """Decision score for one feature vector or a stack of them.

    score(x) = sum_j y_j alpha_j exp(-gamma ||x - x_j||^2) + intercept
    """
    arr = np.asarray(x, dtype=float)
    X = np.atleast_2d(arr)
    with np.errstate(over="ignore"):  # -inf past the float range, whose exp is 0
        G = np.exp(-model.gamma * _sq_dists(X, model.train_features))
    scores = G @ (model.train_labels * model.alpha[:-1]) + model.alpha[-1]
    return scores if arr.ndim == 2 else float(scores[0])
