"""Sparsity-path cross-validation with warm starts, plus support-recovery rates."""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .config import AnnealSchedule, SolverConfig
from .data import Dataset, FoldPlan
from .multiclass import (GaussianKernelSpec, OVOModel, PairProblem, class_pairs,
                         ordered_map, predict_ovo)

__all__ = ["SelectionMetrics", "selection_metrics", "accuracy_pct",
           "CVRow", "CVTable", "cross_validate"]


@dataclass(frozen=True)
class SelectionMetrics:
    """Support-recovery rates of a fitted coefficient pattern against the truth.

    ``fdr`` is the false discovery rate among reported nonzeros, ``fomr`` the
    false omission rate among reported zeros, both at causal fraction ``q``.
    """

    sensitivity: float
    specificity: float
    fdr: float
    fomr: float
    q: float


def selection_metrics(beta_hat, beta_true, q: float) -> SelectionMetrics:
    """Compare nonzero patterns of two coefficient vectors, intercepts excluded.

    Both vectors carry the intercept in the last slot. Degenerate 0/0 rates
    are defined as 0.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    bh = np.asarray(beta_hat)[:-1] != 0
    bt = np.asarray(beta_true)[:-1] != 0
    if bh.shape != bt.shape:
        raise ValueError("coefficient vectors differ in length")
    tp = int(np.count_nonzero(bh & bt))
    fn = int(np.count_nonzero(~bh & bt))
    tn = int(np.count_nonzero(~bh & ~bt))
    fp = int(np.count_nonzero(bh & ~bt))
    sen = tp / (tp + fn) if tp + fn else 1.0
    spc = tn / (tn + fp) if tn + fp else 1.0
    fdr_num = (1.0 - spc) * (1.0 - q)
    fdr_den = fdr_num + sen * q
    fom_num = (1.0 - sen) * q
    fom_den = fom_num + spc * (1.0 - q)
    return SelectionMetrics(
        sensitivity=sen,
        specificity=spc,
        fdr=fdr_num / fdr_den if fdr_den > 0 else 0.0,
        fomr=fom_num / fom_den if fom_den > 0 else 0.0,
        q=q,
    )


def accuracy_pct(model: OVOModel, features, labels) -> float:
    """Classification accuracy in percent."""
    ids = predict_ovo(model, np.atleast_2d(features))
    return 100.0 * float(np.mean(ids == np.asarray(labels)))


@dataclass
class CVRow:
    """One (fold, sparsity) cell of the cross-validation table."""

    fold: int
    s: float
    k: float
    iterations: int
    time_s: float
    objective: float
    sq_dist: float
    train_pct: float
    valid_pct: float
    test_pct: float
    sv: float
    error: str | None = None


CSV_HEADERS = ("fold", "s", "Iter.", "Time", "Objective", "Squared Distance",
               "Train", "Valid.", "Test", "SV")

# summary-dict keys renamed to match the per-row JSON fields
_JSON_KEYS = {"sq_dist": "squared_distance", "train_pct": "train",
              "valid_pct": "valid", "test_pct": "test"}


def _fmt(x: float) -> str:
    return repr(float(x))


@dataclass
class CVTable:
    """All per-fold rows plus the sparsity level selected on validation accuracy."""

    rows: list[CVRow]
    selected_s: float
    selected_k: float
    fold_plan: FoldPlan | None = None

    def grid(self) -> list[float]:
        seen: list[float] = []
        for row in self.rows:
            if row.s not in seen:
                seen.append(row.s)
        return sorted(seen)

    def mean_over_folds(self, s: float) -> dict:
        rows = [r for r in self.rows if r.s == s and r.error is None]
        if not rows:
            return {"s": s, "valid_pct": float("nan"), "test_pct": float("nan")}
        return {
            "s": s,
            "k": float(np.mean([r.k for r in rows])),
            "iterations": float(np.mean([r.iterations for r in rows])),
            "time_s": float(np.mean([r.time_s for r in rows])),
            "objective": float(np.mean([r.objective for r in rows])),
            "sq_dist": float(np.mean([r.sq_dist for r in rows])),
            "train_pct": float(np.mean([r.train_pct for r in rows])),
            "valid_pct": float(np.mean([r.valid_pct for r in rows])),
            "test_pct": float(np.mean([r.test_pct for r in rows])),
            "sv": float(np.mean([r.sv for r in rows])),
        }

    def selected_summary(self) -> dict:
        return self.mean_over_folds(self.selected_s)

    def to_csv(self, include_timings: bool = False) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADERS)

        def emit(tag, s, it, t, obj, d2, tr, va, te, sv):
            writer.writerow([tag, f"{100.0 * s:.10g}", it,
                             _fmt(t) if include_timings else "0.0",
                             _fmt(obj), _fmt(d2), _fmt(tr), _fmt(va), _fmt(te), _fmt(sv)])

        for row in self.rows:
            emit(row.fold, row.s, row.iterations, row.time_s, row.objective,
                 row.sq_dist, row.train_pct, row.valid_pct, row.test_pct, row.sv)
        sel = self.selected_summary()
        emit("selected", sel["s"], sel.get("iterations", float("nan")),
             sel.get("time_s", float("nan")), sel.get("objective", float("nan")),
             sel.get("sq_dist", float("nan")), sel.get("train_pct", float("nan")),
             sel["valid_pct"], sel["test_pct"], sel.get("sv", float("nan")))
        return buf.getvalue()

    def to_json(self, include_timings: bool = False) -> str:
        doc = {
            "rows": [
                {
                    "fold": r.fold,
                    "s": r.s,
                    "k": r.k,
                    "iterations": r.iterations,
                    "time": r.time_s if include_timings else 0.0,
                    "objective": r.objective,
                    "squared_distance": r.sq_dist,
                    "train": r.train_pct,
                    "valid": r.valid_pct,
                    "test": r.test_pct,
                    "sv": r.sv,
                    "error": r.error,
                }
                for r in self.rows
            ],
            "selected": {
                "s": self.selected_s,
                "k": self.selected_k,
                **{_JSON_KEYS.get(k, k): v for k, v in self.selected_summary().items()
                   if k not in ("s", "k", "time_s")},
            },
        }
        if self.fold_plan is not None:
            doc["fold_plan"] = json.loads(self.fold_plan.to_json())
        return json.dumps(doc, allow_nan=True)


def _run_fold(ds, folds, fold, grid, solver, sched, cfg, holdout, kernel):
    tr_idx = folds.train_indices(fold)
    va_idx = folds.val_indices(fold)
    ds_tr = ds.take(tr_idx)
    problems = [PairProblem.build(ds_tr, i, j, kernel)
                for i, j in class_pairs(len(ds_tr.class_names))]
    rows = []
    # the densest fit roots the warm-start chain even when 0 is not on the grid
    work_grid = grid if grid[0] == 0.0 else [0.0] + grid
    for s in work_grid:
        t0 = time.perf_counter()
        try:
            pairs = [prob.fit(s, solver, sched, cfg) for prob in problems]
        except Exception as exc:
            if s in grid:
                rows.append(CVRow(fold, s, float("nan"), 0, 0.0, *([float("nan")] * 6),
                                  error=str(exc)))
            continue
        elapsed = time.perf_counter() - t0
        if s not in grid:
            continue
        model = OVOModel(pairs=pairs, class_names=ds.class_names)
        reports = [pair.report for pair in pairs]
        test_pct = (accuracy_pct(model, holdout.features, holdout.labels)
                    if holdout is not None else float("nan"))
        rows.append(CVRow(
            fold=fold,
            s=s,
            k=float(np.mean([prob.constraint(s).k for prob in problems])),
            iterations=int(sum(rep.total_inner_iters for rep in reports)),
            time_s=elapsed,
            objective=float(np.mean([rep.objective for rep in reports])),
            sq_dist=float(np.mean([rep.distance for rep in reports])),
            train_pct=accuracy_pct(model, ds_tr.features, ds_tr.labels),
            valid_pct=accuracy_pct(model, ds.features[va_idx], ds.labels[va_idx]),
            test_pct=test_pct,
            sv=float(np.mean([rep.sv_count for rep in reports])),
        ))
    return rows


def cross_validate(ds: Dataset, folds: FoldPlan, sparsity_grid, solver: str = "mm",
                   sched: AnnealSchedule | None = None, cfg: SolverConfig | None = None,
                   holdout: Dataset | None = None, kernel: GaussianKernelSpec | None = None,
                   n_threads: int = 1) -> CVTable:
    """Traverse an ascending sparsity grid inside each fold with warm starts.

    Every fold is fitted dense first (from the regression-slope heuristic),
    then each grid solution seeds the next, sparser one. The sparsity level
    with the best mean validation accuracy wins; ties go to the sparser model.
    ``holdout`` supplies the untouched test split reported per row.
    """
    sched = sched or AnnealSchedule()
    cfg = cfg or SolverConfig()
    grid = [float(s) for s in sparsity_grid]
    if not grid:
        raise ValueError("sparsity grid is empty")
    if any(not 0.0 <= s < 1.0 for s in grid):
        raise ValueError("grid values must lie in [0, 1)")
    if sorted(grid) != grid or len(set(grid)) != len(grid):
        raise ValueError("grid must be strictly ascending")
    if folds.assignments.size != ds.n:
        raise ValueError("fold plan does not match dataset size")

    def run(fold):
        return _run_fold(ds, folds, fold, grid, solver, sched, cfg, holdout, kernel)

    per_fold = ordered_map(run, range(folds.num_folds), n_threads)
    rows = [row for rows_f in per_fold for row in rows_f]

    best_s = grid[0]
    best_acc = -math.inf
    for s in grid:
        accs = [r.valid_pct for r in rows if r.s == s and r.error is None]
        mean_acc = float(np.mean(accs)) if accs else -math.inf
        if mean_acc >= best_acc:
            best_acc = mean_acc
            best_s = s
    ks = [r.k for r in rows if r.s == best_s and r.error is None]
    return CVTable(rows=rows, selected_s=best_s,
                   selected_k=float(np.mean(ks)) if ks else float("nan"),
                   fold_plan=folds)
