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

__all__ = ["KernelModel", "gram_matrix", "kernel_predict", "median_bandwidth"]


def _sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    a2 = np.sum(A * A, axis=1)
    b2 = np.sum(B * B, axis=1)
    d2 = a2[:, None] + b2[None, :] - 2.0 * (A @ B.T)
    return np.maximum(d2, 0.0)


def gram_matrix(features: np.ndarray, gamma: float) -> np.ndarray:
    """K_ij = exp(-gamma ||x_i - x_j||^2), symmetric with unit diagonal."""
    if not 0 < gamma < math.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    X = np.asarray(features, dtype=float)
    K = np.exp(-gamma * _sq_dists(X, X))
    K = 0.5 * (K + K.T)
    np.fill_diagonal(K, 1.0)
    return K


def median_bandwidth(features: np.ndarray) -> float:
    """Default bandwidth 1 / (p * median pairwise squared distance)."""
    X = np.asarray(features, dtype=float)
    iu = np.triu_indices(X.shape[0], k=1)
    med = float(np.median(_sq_dists(X, X)[iu])) if iu[0].size else 1.0
    if med <= 0.0:
        med = 1.0
    return 1.0 / (X.shape[1] * med)


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
    G = np.exp(-model.gamma * _sq_dists(X, model.train_features))
    scores = G @ (model.train_labels * model.alpha[:-1]) + model.alpha[-1]
    return scores if arr.ndim == 2 else float(scores[0])
