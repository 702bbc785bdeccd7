"""The three workloads.

Each one makes its inputs from the seed in ``setup``, runs a closed loop of
calls (one caller; each call starts when the previous one returns), and keeps
what the calls returned. ``evaluate`` then applies the correctness gates and
computes the workload's metrics; it runs after the loop, so its own calls
into the package are neither timed nor traced.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from sparsesvm import anneal, cli, crossval, data, model_io, multiclass, simdata
from sparsesvm.sparsity import SparsityConstraint

import micro
from tracing import ancestor


def derive_seed(seed: int, *stream: int) -> int:
    """An independent 32-bit seed for input stream ``stream`` of run ``seed``."""
    return int(np.random.SeedSequence([seed, *stream]).generate_state(1)[0])


def tail(samples):
    """(value, percentile, n) at the highest percentile with at least ten samples
    beyond it (nearest rank), or None when there are fewer than 11 samples."""
    xs = sorted(samples)
    rank = len(xs) - 10
    if rank < 1:
        return None
    return xs[rank - 1], 100.0 * rank / len(xs), len(xs)


@dataclass
class Op:
    """One attempted call and the problems found with it."""

    kind: str
    seconds: float
    output: object = None
    problems: list = field(default_factory=list)


def attempt(kind, fn, fitlog) -> Op:
    """Time ``fn()``; an exception or a non-k-sparse fit inside it is a problem."""
    seen = len(fitlog.violations)
    t0 = time.perf_counter()
    try:
        out = fn()
        problems = []
    except Exception as exc:  # a failed call is counted, not fatal
        out = None
        problems = [f"{kind}: {type(exc).__name__}: {exc}"]
    dt = time.perf_counter() - t0
    return Op(kind, dt, out, problems + fitlog.violations[seen:])


def closed_loop(round_fn, seconds: float) -> list[Op]:
    """Run rounds of calls until ``seconds`` have passed; at least one round."""
    ops = []
    end = time.perf_counter() + seconds
    while True:
        ops.extend(round_fn())
        if time.perf_counter() >= end:
            return ops


def stratified_split(labels, fraction: float, seed: int):
    """Per-class shuffled holdout, the rule ``sparsesvm cv`` applies:
    returns (held_out_idx, remainder_idx), both sorted."""
    rng = np.random.default_rng(seed)
    held, rest = [], []
    for c in np.unique(labels):
        idx = rng.permutation(np.flatnonzero(labels == c))
        cut = int(round(fraction * idx.size))
        held.extend(idx[:cut])
        rest.extend(idx[cut:])
    return np.sort(np.asarray(held, dtype=int)), np.sort(np.asarray(rest, dtype=int))


def permuted(ds, rows, cols):
    """The rows ``rows`` of ``ds`` with its feature columns reordered by ``cols``."""
    return data.Dataset(ds.features[rows][:, cols], ds.labels[rows], ds.class_names)


def write_csv(path, ds) -> None:
    """Same layout as ``sparsesvm gen``: f1..fp, then the class name in ``label``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"f{j + 1}" for j in range(ds.p)] + ["label"])
        for row, lab in zip(ds.features, ds.labels):
            writer.writerow([repr(float(v)) for v in row] + [ds.class_names[lab]])


class Workload:
    """What every workload provides; the defaults suit the linear ones."""

    name = ""

    def setup(self, seed: int, workdir: Path) -> None:
        """Make this run's inputs from ``seed``; files go under ``workdir``."""
        raise NotImplementedError

    def timed(self, seconds, fitlog) -> list[Op]:
        """The closed loop of whole rounds for ``seconds``."""
        raise NotImplementedError

    def unit(self, fitlog) -> list[Op]:
        """The fixed work of a traced run."""
        raise NotImplementedError

    def evaluate(self, ops) -> dict:
        """Gate the calls' outputs (appending to ``op.problems``); name -> (value, unit)."""
        raise NotImplementedError

    def kernel_case(self, design):
        return micro.linear_kernel_case(design, self.seed)

    def layer_metrics(self, ops, spans, selfs) -> dict:
        """Layer metrics only this workload has, from the untraced ops and the spans."""
        return {}


class PlantedFit(Workload):
    name = "planted-fit"
    N, P, K0 = 200, 100, 5
    REPLICATES = 20      # acceptance criterion 07's datasets; a round fits them all
    TRACE_DATASETS = 3   # the traced unit fits the first three with both solvers
    SOLVERS = ("mm", "sd")

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.constraint = SparsityConstraint(self.K0, self.P)
        self.cases = []
        for j in range(self.REPLICATES):
            ds, truth = simdata.gen_gaussian_causal(self.N, self.P, self.K0, j)
            rng = np.random.default_rng(derive_seed(seed, j))
            rows, cols = rng.permutation(ds.n), rng.permutation(ds.p)
            beta_true = np.append(truth.beta_true[:-1][cols], truth.beta_true[-1])
            self.cases.append((data.binarize(permuted(ds, rows, cols), 1, 0), beta_true))

    def _fits(self, cases, fitlog):
        ops = []
        for design, beta_true in cases:
            for solver in self.SOLVERS:
                op = attempt(solver, lambda: anneal.prox_dist_fit(
                    design, self.constraint, multiclass.init_heuristic(design),
                    solver=solver), fitlog)
                op.output = (op.output, beta_true)
                ops.append(op)
        return ops

    def timed(self, seconds, fitlog):
        return closed_loop(lambda: self._fits(self.cases, fitlog), seconds)

    def unit(self, fitlog):
        return self._fits(self.cases[:self.TRACE_DATASETS], fitlog)

    def evaluate(self, ops) -> dict:
        hits = 0
        for op in ops:
            fitted, beta_true = op.output
            if fitted is None:
                continue
            m = crossval.selection_metrics(fitted[0], beta_true, q=self.K0 / self.P)
            hits += m.fdr == 0.0 and m.fomr == 0.0
        out = {}
        for solver in self.SOLVERS:
            times = [op.seconds for op in ops if op.kind == solver]
            out[f"fit_s_p50.{solver}"] = (statistics.median(times), "s")
            out[f"fit_s_tail.{solver}"] = (tail(times), "s")
        out["recovery_pct"] = (100.0 * hits / len(ops), "%")
        out["call_s_p50"] = (statistics.median(op.seconds for op in ops), "s")
        out["quality_pct"] = out["recovery_pct"]
        return out


class CorrCV(Workload):
    name = "corr-cv"
    N, P, FOLDS, HOLDOUT = 1000, 500, 4, 0.2
    GRID = (0.0, 0.9, 0.99, 0.994, 0.996, 0.998)
    DATA_SEED = 1        # acceptance criterion 08's dataset, holdout and fold seed
    POOL = 2             # differently permuted copies; a round runs CV on each
    TRUE_K = 2
    MIN_TEST_PCT = 98.0

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.threads = min(2, len(os.sched_getaffinity(0)))
        raw, _ = simdata.gen_synthetic_corr(self.N, self.P, self.DATA_SEED)
        test_idx, cv_idx = stratified_split(raw.labels, self.HOLDOUT, self.DATA_SEED)
        cv_part, held = raw.take(cv_idx), raw.take(test_idx)
        plan = data.make_folds(cv_part.n, self.FOLDS, self.DATA_SEED, labels=cv_part.labels)
        self.cases = []
        for j in range(self.POOL):
            rng = np.random.default_rng(derive_seed(seed, j))
            rows, cols = rng.permutation(cv_part.n), rng.permutation(self.P)
            ds_cv = data.apply_transform(permuted(cv_part, rows, cols), "standardized")
            params = ds_cv.transform_params
            holdout = permuted(held, rng.permutation(held.n), cols)
            holdout = replace(holdout, features=params.apply(holdout.features),
                              transform="standardized", transform_params=params)
            folds = data.FoldPlan(plan.num_folds, plan.assignments[rows], plan.seed)
            self.cases.append((ds_cv, folds, holdout))

    def _calls(self, cases, fitlog):
        return [attempt("cv", lambda: crossval.cross_validate(
            ds_cv, folds, self.GRID, solver="mm", holdout=holdout, n_threads=self.threads),
            fitlog) for ds_cv, folds, holdout in cases]

    def timed(self, seconds, fitlog):
        return closed_loop(lambda: self._calls(self.cases, fitlog), seconds)

    def unit(self, fitlog):
        return self._calls(self.cases[:1], fitlog)

    def evaluate(self, ops) -> dict:
        accs = []
        for op in ops:
            table = op.output
            if table is None:
                continue
            errors = [r.error for r in table.rows if r.error is not None]
            if errors:
                op.problems.append(f"cv: {len(errors)} rows failed, first: {errors[0]}")
            if table.selected_k != self.TRUE_K:
                op.problems.append(f"cv: selected k={table.selected_k}, expected {self.TRUE_K}")
            acc = table.selected_summary()["test_pct"]
            accs.append(acc)
            if not acc >= self.MIN_TEST_PCT:
                op.problems.append(f"cv: test accuracy {acc:.2f}% < {self.MIN_TEST_PCT}%")
        cv_s = statistics.median(op.seconds for op in ops)
        acc = statistics.median(accs) if accs else float("nan")
        return {"cv_s": (cv_s, "s"), "test_acc_pct": (acc, "%"),
                "call_s_p50": (cv_s, "s"), "quality_pct": (acc, "%")}

    def layer_metrics(self, ops, spans, selfs) -> dict:
        rows = [r for op in ops if op.output is not None for r in op.output.rows]
        out = {
            "crossval.cell_s": (statistics.median(r.time_s for r in rows), "s"),
            "crossval.inner_iters_per_level": (
                sum(r.iterations for r in rows) / len(rows), "count"),
        }
        busy = wall = 0.0
        for span in spans:
            if span[0] == "crossval.cross_validate":
                wall += span[2] - span[1]
            elif span[0] == "anneal.prox_dist_fit" and ancestor(span, "crossval.cross_validate"):
                busy += span[2] - span[1]
        if wall > 0:
            out["crossval.thread_busy_frac"] = (busy / (self.threads * wall), "frac")
        return out


class SpiralCLI(Workload):
    name = "spiral-cli"
    SPLIT_SEED = 11      # acceptance criterion 09's data (seed 0) and split
    TRAIN_FRACTION = 0.7
    PREDICTS_PER_TRAIN = 10
    TRACE_ROUNDS = 2
    MIN_TEST_PCT = 98.0
    DUAL_SPARSITY = 0.5

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        ds = simdata.gen_spiral()
        split = np.random.default_rng(self.SPLIT_SEED).permutation(ds.n)
        cut = int(round(self.TRAIN_FRACTION * ds.n))
        rng = np.random.default_rng(derive_seed(seed, 0))
        cols = rng.permutation(ds.p)
        train = permuted(ds, rng.permutation(split[:cut]), cols)
        self.test = permuted(ds, rng.permutation(split[cut:]), cols)
        self.train_csv = workdir / "spiral-train.csv"
        self.test_csv = workdir / "spiral-test.csv"
        self.model_path = workdir / "spiral-model.json"
        self.pred_path = workdir / "spiral-pred.csv"
        write_csv(self.train_csv, train)
        write_csv(self.test_csv, self.test)

    def _cli(self, kind, argv, fitlog, read):
        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = cli.main(argv)
                except SystemExit as exc:  # argparse usage errors exit
                    rc = exc.code
            return rc, out.getvalue(), err.getvalue()
        op = attempt(kind, call, fitlog)
        if op.output is not None:
            rc, stdout, stderr = op.output
            if rc != 0:
                op.problems.append(f"{kind}: exit {rc}: {stderr.strip()[:200]}")
            try:
                produced = read() if rc == 0 else None
            except OSError as exc:
                produced = None
                op.problems.append(f"{kind}: no output file: {exc}")
            op.output = (rc, stdout, produced)
        return op

    def _round(self, fitlog):
        train = ["train", "--data", str(self.train_csv), "--kernel", "gaussian",
                 "--gamma", "1", "--dual-sparsity", str(self.DUAL_SPARSITY),
                 "--threads", "1", "--output", str(self.model_path)]
        predict = ["predict", "--model", str(self.model_path), "--data", str(self.test_csv),
                   "--label-column", "label", "--output", str(self.pred_path)]
        ops = [self._cli("train", train, fitlog, self.model_path.read_bytes)]
        for _ in range(self.PREDICTS_PER_TRAIN):
            ops.append(self._cli("predict", predict, fitlog,
                                 lambda: self.pred_path.read_text(encoding="utf-8")))
        return ops

    def timed(self, seconds, fitlog):
        return closed_loop(lambda: self._round(fitlog), seconds)

    def unit(self, fitlog):
        return [op for _ in range(self.TRACE_ROUNDS) for op in self._round(fitlog)]

    def reference(self, model_bytes):
        """predict_ovo on the model loaded back from the first train's bytes."""
        self.model_path.write_bytes(model_bytes)
        saved = model_io.load_model(self.model_path)
        feats = self.test.features
        if saved.transform is not None:
            feats = saved.transform.apply(feats)
        ids = np.atleast_1d(multiclass.predict_ovo(saved.ovo, feats))
        return saved, [saved.ovo.class_names[i] for i in ids]

    def evaluate(self, ops) -> dict:
        trains = [op for op in ops if op.kind == "train"]
        predicts = [op for op in ops if op.kind == "predict"]
        first = next((op.output[2] for op in trains if op.output and op.output[2]), None)
        saved = expected = None
        if first is None:
            for op in ops:
                op.problems.append("no train call produced a model")
        else:
            saved, expected = self.reference(first)
        for op in trains:
            if op.output and op.output[2] is not None and op.output[2] != first:
                op.problems.append("train: model file differs from the first train's")
        accs = []
        for op in predicts:
            if not op.output or op.output[2] is None:
                continue
            rc, stdout, text = op.output
            try:
                acc = float(json.loads(stdout.strip().splitlines()[-1])["accuracy_pct"])
            except (ValueError, KeyError, IndexError):
                op.problems.append(f"predict: no accuracy report in {stdout[-200:]!r}")
                continue
            accs.append(acc)
            if not acc >= self.MIN_TEST_PCT:
                op.problems.append(f"predict: test accuracy {acc:.2f}% < {self.MIN_TEST_PCT}%")
            if expected is not None and text.splitlines()[1:] != expected:
                op.problems.append("predict: CLI predictions differ from predict_ovo")
        self.saved = saved
        train_s = statistics.median(op.seconds for op in trains)
        predict_s = statistics.median(op.seconds for op in predicts)
        acc = statistics.median(accs) if accs else float("nan")
        return {
            "train_s": (train_s, "s"),
            "train_s_tail": (tail([op.seconds for op in trains]), "s"),
            "predict_rows_per_s": (self.test.n / predict_s, "1/s"),
            "model_bytes": (len(first) if first else float("nan"), "bytes"),
            "test_acc_pct": (acc, "%"),
            "call_s_p50": (train_s, "s"),
            "quality_pct": (acc, "%"),
        }

    def kernel_case(self, design):
        # the largest pair of the trained model, scored on the held-out rows
        km = max((p.kernel for p in self.saved.ovo.pairs), key=lambda k: k.alpha.size)
        return km.train_features, km.gamma, km, self.test.features

    def layer_metrics(self, ops, spans, selfs) -> dict:
        out = {}
        pairs = self.saved.ovo.pairs if self.saved else []
        stored = sum(p.kernel.alpha.size - 1 for p in pairs)
        if stored:
            useful = sum(p.kernel.support_size for p in pairs)
            out["kernel.useful_rows_frac"] = (useful / stored, "frac")
        fits_per_train = {}
        for span in spans:
            if span[0] == "anneal.prox_dist_fit":
                root = ancestor(span, "multiclass.train_ovo")
                if root is not None:
                    key = id(root)
                    fits_per_train[key] = max(fits_per_train.get(key, 0.0), span[2] - span[1])
        if fits_per_train:
            out["multiclass.pair_fit_s"] = (statistics.median(fits_per_train.values()), "s")
        overhead = [s for span, s in zip(spans, selfs) if span[0] == "cli.main"]
        if overhead:
            out["cli.overhead_s"] = (statistics.median(overhead), "s")
        return out


WORKLOADS = {w.name: w for w in (PlantedFit, CorrCV, SpiralCLI)}

