"""Deterministic generators for the simulated benchmarks.

All draws come from numpy's default PCG64 generator seeded with an explicit
64-bit integer, so every dataset is a pure function of its arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset

__all__ = ["SimSpec", "PlantedModel", "BINARY_CLASS_NAMES",
           "gen_synthetic_corr", "gen_gaussian_causal", "gen_spiral"]

BINARY_CLASS_NAMES = ("-1", "1")


@dataclass(frozen=True)
class SimSpec:
    """Record of what a generator produced; serialized next to the data."""

    family: str
    n: int
    p: int
    seed: int
    k0: int | None = None
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"family": self.family, "n": self.n, "p": self.p,
                "seed": self.seed, "k0": self.k0, "params": self.params}


@dataclass(frozen=True)
class PlantedModel:
    """Ground-truth coefficients (intercept slot last, always zero) and support."""

    beta_true: np.ndarray
    support: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "beta_true", np.asarray(self.beta_true, dtype=float))
        object.__setattr__(self, "support", np.asarray(self.support, dtype=int))


def _planted_labels(X: np.ndarray, coef: np.ndarray, redraw) -> np.ndarray:
    """Class ids of the signs of ``X @ coef``: id 1 <-> label +1, id 0 <-> -1.

    A row that scores exactly 0 (a measure-zero event) is replaced in place by
    ``redraw(count)``, a block of ``count`` new rows, until none does, so that
    every label is well defined.
    """
    scores = X @ coef
    zero = scores == 0.0
    while np.any(zero):
        X[zero] = redraw(int(zero.sum()))
        scores = X @ coef
        zero = scores == 0.0
    return (scores > 0).astype(int)


def gen_synthetic_corr(n: int, p: int, seed: int):
    """Correlated-pair design: two large opposite-signed causal coefficients.

    The covariance has unit variance on the first feature, 3 on the second,
    2 elsewhere, 0.9 covariance between the causal pair, and tiny random
    symmetric off-diagonals; it is repaired to positive definite by clipping
    eigenvalues at 1e-8 before the Cholesky draw. The check reads the
    eigenvalues alone; eigenvectors are computed only for a repair.
    """
    if p < 2:
        raise ValueError("p must be at least 2")
    if n < 2:
        raise ValueError("n must be at least 2")
    rng = np.random.default_rng(seed)

    sigma = 1e-3 * rng.standard_normal((p, p))
    sigma = 0.5 * (sigma + sigma.T)
    np.fill_diagonal(sigma, 2.0)
    sigma[0, 0] = 1.0
    sigma[1, 1] = 3.0
    sigma[0, 1] = sigma[1, 0] = 0.9
    min_eig = float(np.linalg.eigvalsh(sigma).min())
    if min_eig < 1e-8:
        evals, evecs = np.linalg.eigh(sigma)
        sigma = (evecs * np.maximum(evals, 1e-8)) @ evecs.T
        sigma = 0.5 * (sigma + sigma.T)
    try:
        chol = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            f"covariance repair failed (minimum eigenvalue {min_eig:.3e}): {exc}") from exc

    X = rng.standard_normal((n, p)) @ chol.T
    beta_true = np.zeros(p + 1)
    beta_true[0] = 10.0
    beta_true[1] = -10.0
    labels = _planted_labels(X, beta_true[:-1], lambda m: rng.standard_normal((m, p)) @ chol.T)
    ds = Dataset(X, labels, BINARY_CLASS_NAMES)
    return ds, PlantedModel(beta_true, np.array([0, 1]))


def gen_gaussian_causal(n: int, p: int, k0: int, seed: int):
    """Independent standard-normal features with a planted k0-sparse rule.

    Causal coefficients are uniform on [-10, -2] U [2, 10] over a support
    drawn without replacement.
    """
    if not 1 <= k0 <= p:
        raise ValueError(f"need 1 <= k0 <= p, got k0={k0}, p={p}")
    if n < 2:
        raise ValueError("n must be at least 2")
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    support = np.sort(rng.choice(p, size=k0, replace=False))
    magnitude = rng.uniform(2.0, 10.0, size=k0)
    sign = 2 * rng.integers(0, 2, size=k0) - 1
    beta_true = np.zeros(p + 1)
    beta_true[support] = sign * magnitude
    labels = _planted_labels(X, beta_true[:-1], lambda m: rng.standard_normal((m, p)))
    ds = Dataset(X, labels, BINARY_CLASS_NAMES)
    return ds, PlantedModel(beta_true, support)


def gen_spiral(n_a: int = 600, n_b: int = 300, n_c: int = 100, seed: int = 0,
               sigmas: tuple[float, float, float] = (0.1, 0.2, 0.3)) -> Dataset:
    """Three interleaved noisy spirals with unbalanced classes A, B, C.

    Arm t = 1..m of a class with m samples sits at radius 7 (1 - t / (1.2 m))
    and angle pi/8 + t pi / m plus the class phase (0, 2pi/3, 4pi/3), centered
    at (-3.5, 3.5), with isotropic Gaussian noise of the class's sigma.
    """
    counts = (int(n_a), int(n_b), int(n_c))
    if any(c < 1 for c in counts):
        raise ValueError("every class needs at least one sample")
    rng = np.random.default_rng(seed)
    phases = (0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0)
    blocks = []
    ids = []
    for cid, (m, phase, sigma) in enumerate(zip(counts, phases, sigmas)):
        t = np.arange(1, m + 1, dtype=float)
        radius = 7.0 * (1.0 - t / (m + m / 5.0))
        theta = np.pi / 8.0 + t * np.pi / m + phase
        x = -3.5 + radius * np.cos(theta) + sigma * rng.standard_normal(m)
        y = 3.5 + radius * np.sin(theta) + sigma * rng.standard_normal(m)
        blocks.append(np.column_stack([x, y]))
        ids.extend([cid] * m)
    return Dataset(np.vstack(blocks), np.asarray(ids, dtype=int), ("A", "B", "C"))
