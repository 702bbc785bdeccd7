"""Sparsity-path cross-validation with warm starts, plus support-recovery rates."""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .anneal import FitError
from .config import AnnealSchedule, SolverConfig
from .data import DataError, Dataset, FoldPlan
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
    """One (fold, sparsity) cell of the CV table; a failed fit keeps the defaults."""

    fold: int
    s: float
    k: float = math.nan
    iterations: int = 0
    time_s: float = 0.0
    objective: float = math.nan
    sq_dist: float = math.nan
    train_pct: float = math.nan
    valid_pct: float = math.nan
    test_pct: float = math.nan
    sv: float = math.nan
    # why each pair fit's ladder ended, joined by "/" in class_pairs order
    stop_reason: str | None = None
    error: str | None = None


# the table's per-fit statistics in output order: CVRow field, CSV header, JSON key
_STATS = (
    ("iterations", "Iter.", "iterations"),
    ("time_s", "Time", "time"),
    ("objective", "Objective", "objective"),
    ("sq_dist", "Squared Distance", "squared_distance"),
    ("train_pct", "Train", "train"),
    ("valid_pct", "Valid.", "valid"),
    ("test_pct", "Test", "test"),
    ("sv", "SV", "sv"),
    ("stop_reason", "Stop", "stop_reason"),
)

CSV_HEADERS = ("fold", "s") + tuple(header for _, header, _ in _STATS)


def _stats(fields: dict, include_timings: bool) -> dict:
    """A row's or a fold mean's statistics by JSON key, NaN where missing."""
    if not include_timings:
        fields = dict(fields, time_s=0.0)
    return {key: fields.get(field, math.nan) for field, _, key in _STATS}


@dataclass
class CVTable:
    """All per-fold rows plus the sparsity level selected on validation accuracy."""

    rows: list[CVRow]
    selected_s: float
    selected_k: float
    fold_plan: FoldPlan | None = None

    def mean_over_folds(self, s: float) -> dict:
        """Means of the numeric statistics (all but the stop reasons) over the folds
        whose fit at ``s`` succeeded; if none did, NaN rates."""
        rows = [r for r in self.rows if r.s == s and r.error is None]
        if not rows:
            return {"s": s, "valid_pct": math.nan, "test_pct": math.nan}
        means = {"s": s}
        for field in ["k"] + [field for field, _, _ in _STATS if field != "stop_reason"]:
            means[field] = float(np.mean([getattr(r, field) for r in rows]))
        return means

    def selected_summary(self) -> dict:
        return self.mean_over_folds(self.selected_s)

    def to_csv(self, include_timings: bool = False) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADERS)
        lines = [(row.fold, row.s, vars(row)) for row in self.rows]
        lines.append(("selected", self.selected_s, self.selected_summary()))
        for tag, s, fields in lines:
            writer.writerow([tag, f"{100.0 * s:.10g}", *_stats(fields, include_timings).values()])
        return buf.getvalue()

    def to_json(self, include_timings: bool = False) -> str:
        rows = [{"fold": r.fold, "s": r.s, "k": r.k, **_stats(vars(r), include_timings),
                 "error": r.error} for r in self.rows]
        summary = self.selected_summary()
        selected = {"s": self.selected_s, "k": self.selected_k}
        for field, _, key in _STATS:
            if field in summary and field != "time_s":
                selected[key] = summary[field]
        doc = {"rows": rows, "selected": selected}
        if self.fold_plan is not None:
            doc["fold_plan"] = self.fold_plan.to_dict()
        return json.dumps(doc, allow_nan=True)


def _accuracy(model: OVOModel, part: Dataset) -> float:
    """``accuracy_pct`` on ``part``, naming a row the model refuses by
    ``part.source()``."""
    try:
        return accuracy_pct(model, part.features, part.labels)
    except DataError as exc:
        raise exc.renumbered(part.source()) from None


def _run_fold(ds, folds, fold, grid, solver, sched, cfg, holdout, kernel):
    """One fold's CV rows: fit the grid with warm starts, then score each fitted
    level on the held-out, validation and training rows, in that order. The
    fold's rows are gathered once the designs and their factorizations are
    freed, so that no copy of them is alive while a pair factors or fits."""
    tr_idx = folds.train_indices(fold)
    # each pair gathers its own training rows of ds into its design
    problems = [PairProblem.build(ds, i, j, kernel, solver, rows=tr_idx)
                for i, j in class_pairs(len(ds.class_names))]
    rows = []
    fitted = []  # (row, model) of each grid level fitted
    # the densest fit roots the warm-start chain even when 0 is not on the grid
    work_grid = grid if grid[0] == 0.0 else [0.0] + grid
    for s in work_grid:
        t0 = time.perf_counter()
        try:
            pairs = [prob.fit(s, sched, cfg) for prob in problems]
        except (FitError, ValueError) as exc:
            if s in grid:
                rows.append(CVRow(fold, s, error=str(exc)))
            continue
        elapsed = time.perf_counter() - t0
        if s not in grid:
            continue
        reports = [pair.report for pair in pairs]
        rows.append(CVRow(
            fold=fold,
            s=s,
            k=float(np.mean([prob.constraint(s).k for prob in problems])),
            iterations=int(sum(rep.total_inner_iters for rep in reports)),
            time_s=elapsed,
            objective=float(np.mean([rep.objective for rep in reports])),
            sq_dist=float(np.mean([rep.distance for rep in reports])),
            sv=float(np.mean([rep.sv_count for rep in reports])),
            stop_reason="/".join(rep.stop_reason for rep in reports),
        ))
        fitted.append((rows[-1], OVOModel(pairs=pairs, class_names=ds.class_names)))
    del problems
    if fitted:
        valid, train = ds.take(folds.val_indices(fold)), ds.take(tr_idx)
        for row, model in fitted:
            if holdout is not None:
                row.test_pct = _accuracy(model, holdout)
            row.valid_pct = _accuracy(model, valid)
            row.train_pct = _accuracy(model, train)
    return rows


def _check_fold_classes(ds: Dataset, folds: FoldPlan) -> None:
    """Every class must have a sample among every fold's training rows."""
    num = len(ds.class_names)
    counts = np.bincount(ds.labels, minlength=num)
    for fold in range(folds.num_folds):
        held = np.bincount(ds.labels[folds.assignments == fold], minlength=num)
        missing = np.flatnonzero(counts == held)
        if missing.size:
            c = int(missing[0])
            name = ds.class_names[c]
            if counts[c] == 0:
                raise DataError(f"class {name!r} has no samples")
            raise DataError(
                f"class {name!r} has {counts[c]} cross-validation sample(s), all held out "
                f"by fold {fold}, which leaves that fold none to train on")


def cross_validate(ds: Dataset, folds: FoldPlan, sparsity_grid, solver: str = "mm",
                   sched: AnnealSchedule | None = None, cfg: SolverConfig | None = None,
                   holdout: Dataset | None = None, kernel: GaussianKernelSpec | None = None,
                   n_threads: int = 1) -> CVTable:
    """Traverse an ascending sparsity grid inside each fold with warm starts.

    Every fold is fitted dense first (from the regression-slope heuristic),
    then each grid solution seeds the next, sparser one. The sparsity level
    with the best mean validation accuracy wins; ties go to the sparser model.
    ``holdout`` supplies the untouched test split reported per row. A class
    missing from some fold's training rows is a ``DataError`` before any fit.
    A held-out, validation or training row that a fitted model cannot score
    is a ``DataError`` naming the row by ``Dataset.source``.
    The folds run on up to ``n_threads`` threads, the calling one included
    (``ordered_map``); the table is the same for every thread count.
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
    _check_fold_classes(ds, folds)

    def run(fold):
        return _run_fold(ds, folds, fold, grid, solver, sched, cfg, holdout, kernel)

    per_fold = ordered_map(run, range(folds.num_folds), n_threads)
    rows = [row for rows_f in per_fold for row in rows_f]
    table = CVTable(rows=rows, selected_s=grid[-1], selected_k=math.nan, fold_plan=folds)
    # scan from the sparsest level so ties go to it; a level that failed in
    # every fold has a NaN mean and never wins
    best_acc = -math.inf
    for s in reversed(grid):
        acc = table.mean_over_folds(s)["valid_pct"]
        if acc > best_acc:
            best_acc = acc
            table.selected_s = s
    table.selected_k = table.selected_summary().get("k", math.nan)
    return table
