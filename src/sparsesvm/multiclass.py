"""One-versus-one training and voting on top of the annealed binary fits."""

from __future__ import annotations

import concurrent.futures
import math
import numbers
import threading
from dataclasses import dataclass, replace

import numpy as np

from .anneal import FitError, prox_dist_fit
from .config import AnnealSchedule, FitReport, SolverConfig, _check_int
from .data import DataError, Dataset, DesignMatrix, binarize
from .kernel import KernelModel, gram_matrix, kernel_predict
from .solvers import KernelMMWorkspace, make_workspace
from .sparsity import SparsityConstraint

__all__ = ["GaussianKernelSpec", "PairClassifier", "OVOModel", "PairProblem",
           "init_heuristic", "class_pairs", "ordered_map", "train_ovo", "predict_ovo"]


@dataclass(frozen=True)
class GaussianKernelSpec:
    """Gaussian kernel request; ``gamma=None`` uses the median-distance default."""

    gamma: float | None = None

    def __post_init__(self):
        if self.gamma is not None and not 0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")


def init_heuristic(design: DesignMatrix) -> np.ndarray:
    """Cheap starting point: per-column simple regression slopes, label-mean intercept.

    Columns with zero variance get a zero slope.
    """
    X = design.X[:, :-1]
    y = design.y
    xc = X - X.mean(axis=0)
    num = xc.T @ (y - y.mean())
    # squared in place: the centred copy is the only n x p temporary
    denom = np.sum(np.multiply(xc, xc, out=xc), axis=0)
    beta = np.zeros(design.X.shape[1])
    live = denom > 0
    beta[:-1][live] = num[live] / denom[live]
    beta[-1] = y.mean()
    return beta


def class_pairs(num_classes: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(num_classes) for j in range(i + 1, num_classes)]


@dataclass
class PairClassifier:
    """One direction of the vote: positive class wins on score >= 0."""

    positive: int
    negative: int
    coef: np.ndarray | None = None
    kernel: KernelModel | None = None
    report: FitReport | None = None

    @property
    def width(self) -> int:
        """Number of feature columns this classifier scores."""
        if self.kernel is not None:
            return self.kernel.train_features.shape[1]
        return self.coef.size - 1

    def scores(self, features) -> np.ndarray:
        X = np.atleast_2d(np.asarray(features, dtype=float))
        if X.ndim != 2 or X.shape[1] != self.width:
            raise DataError(f"expected {self.width} feature columns, got shape {X.shape}")
        if self.kernel is not None:
            scores = np.atleast_1d(kernel_predict(self.kernel, X))
        else:
            with np.errstate(over="ignore", invalid="ignore"):  # refused below
                scores = X @ self.coef[:-1] + self.coef[-1]
        bad = np.flatnonzero(~np.isfinite(scores))
        if bad.size:
            i = bad[0]
            raise DataError(f"row {{row}} scores {scores[i]:g}: its features overflow the model",
                            i)
        return scores


@dataclass
class OVOModel:
    pairs: list[PairClassifier]
    class_names: tuple[str, ...]

    @property
    def num_classes(self) -> int:
        return len(self.class_names)


def ordered_map(func, items, n_threads: int = 1) -> list:
    """``[func(x) for x in items]`` on up to ``n_threads`` threads, the calling one included.

    The caller and ``min(n_threads, len(items)) - 1`` pool workers take item
    indices from one shared iterator under a lock, so each item runs once, on
    whichever thread takes it. When items fail, the failure with the lowest
    index is raised once every thread has stopped.
    """
    if isinstance(n_threads, numbers.Real) and n_threads < 1:
        raise ValueError(f"n_threads must be at least 1, got {n_threads}")
    _check_int("n_threads", n_threads)
    items = list(items)
    workers = min(n_threads, len(items)) - 1
    if workers < 1:
        return [func(x) for x in items]
    indices, lock = iter(range(len(items))), threading.Lock()
    results = [None] * len(items)
    errors = {}

    def drain():
        while True:
            with lock:
                i = next(indices, None)
            if i is None:
                return
            try:
                results[i] = func(items[i])
            except Exception as exc:
                errors[i] = exc

    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(drain) for _ in range(workers)]
        drain()
    for future in futures:
        future.result()
    if errors:
        raise errors[min(errors)]
    return results


@dataclass
class PairProblem:
    """One class pair as a binary design, fitted into ``PairClassifier``s.

    The design is ``binarize``'s; with a kernel it becomes ``[K | 1]`` over
    the gram matrix K of its feature rows, whose coefficients are the signed
    dual weights ``c = y alpha`` and an intercept; the fitted ``KernelModel``
    keeps ``alpha`` and the feature rows and labels. The solver's workspace is
    built at ``build``; the last coefficients and the penalty of the last
    level solved persist across ``fit`` calls, so each call after the first
    warm-starts where the previous one stopped.
    """

    positive: int
    negative: int
    design: DesignMatrix
    workspace: object
    kernel_rows: tuple[np.ndarray, float] | None = None
    warm: np.ndarray | None = None
    rho: float | None = None

    @classmethod
    def build(cls, ds: Dataset, pos: int, neg: int,
              kernel: GaussianKernelSpec | None = None, solver: str = "mm",
              rows=None) -> "PairProblem":
        """The pair's problem on ``ds``, or on its rows ``rows`` (see ``binarize``); a
        kernel pair's K is written into its ``[K | 1]``, which ``mm`` (any case) factors."""
        design = binarize(ds, pos, neg, rows)
        if kernel is None:
            return cls(pos, neg, design, make_workspace(design, solver))
        feats = np.ascontiguousarray(design.X[:, :-1])
        design = DesignMatrix(np.ones((design.n, design.n + 1)), design.y)
        _, gamma = gram_matrix(feats, kernel.gamma, out=design.X[:, :-1])
        workspace = (KernelMMWorkspace.from_design(design) if solver.lower() == "mm"
                     else make_workspace(design, solver))
        return cls(pos, neg, design, workspace, (feats, gamma))

    def constraint(self, sparsity) -> SparsityConstraint:
        """A SparsityConstraint for this design's p, or a fraction of it."""
        p = self.design.p
        if isinstance(sparsity, SparsityConstraint):
            return sparsity.require_p(p)
        return SparsityConstraint.from_sparsity(float(sparsity), p)

    def fit(self, sparsity, sched: AnnealSchedule | None = None,
            cfg: SolverConfig | None = None, trace_hook=None) -> PairClassifier:
        """Fit at ``sparsity``: from ``init_heuristic`` at ``sched.rho0`` the first
        time, afterwards from the last coefficients at the last penalty solved."""
        sched = sched or AnnealSchedule()
        constraint = self.constraint(sparsity)
        beta0 = self.warm if self.warm is not None else init_heuristic(self.design)
        # a later fit continues the penalty ladder instead of re-annealing
        level = replace(sched, rho0=self.rho) if self.rho is not None else sched
        beta, report = prox_dist_fit(self.design, constraint, beta0, solver=self.workspace,
                                     sched=level, cfg=cfg, trace_hook=trace_hook)
        self.warm = beta
        self.rho = report.rho
        if self.kernel_rows is None:
            return PairClassifier(self.positive, self.negative, coef=beta, report=report)
        feats, gamma = self.kernel_rows
        y = self.design.y
        # alpha = y c, where + 0.0 turns the -0.0 of a dropped weight with y = -1 into 0.0
        alpha = np.append(y * beta[:-1] + 0.0, beta[-1])
        model = KernelModel(alpha=alpha, gamma=gamma, train_features=feats, train_labels=y)
        return PairClassifier(self.positive, self.negative, kernel=model, report=report)


def train_ovo(ds: Dataset, sparsity, solver: str = "mm",
              sched: AnnealSchedule | None = None, cfg: SolverConfig | None = None,
              kernel: GaussianKernelSpec | None = None, n_threads: int = 1) -> OVOModel:
    """Fit one annealed classifier per unordered class pair.

    ``sparsity`` is either a SparsityConstraint (linear case) or a fraction in
    [0, 1); with a kernel the fraction applies to each pair's own sample count.
    The pairs run on up to ``n_threads`` threads, the calling one included
    (``ordered_map``); the model is the same for every thread count.
    """
    def fit(pair):
        i, j = pair
        try:
            return PairProblem.build(ds, i, j, kernel, solver).fit(sparsity, sched, cfg)
        except (FitError, ValueError) as exc:
            raise RuntimeError(
                f"fit failed for class pair ({ds.class_names[i]}, {ds.class_names[j]}): {exc}"
            ) from exc

    return OVOModel(pairs=ordered_map(fit, class_pairs(len(ds.class_names)), n_threads),
                    class_names=ds.class_names)


def predict_ovo(model: OVOModel, features):
    """Majority vote over pair classifiers; ties resolve to the lowest class id."""
    arr = np.asarray(features, dtype=float)
    X = np.atleast_2d(arr)
    votes = np.zeros((X.shape[0], model.num_classes), dtype=int)
    rows = np.arange(X.shape[0])
    for pair in model.pairs:
        s = pair.scores(X)
        votes[rows, np.where(s >= 0.0, pair.positive, pair.negative)] += 1
    ids = np.argmax(votes, axis=1)
    return int(ids[0]) if arr.ndim == 1 else ids
