"""Command-line front end: gen / train / predict / cv / trace.

All file outputs are deterministic for fixed flags and seed; wall-clock
timings only appear in cross-validation tables when explicitly requested.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .anneal import OuterRecord
from .config import AnnealSchedule, SolverConfig
from .crossval import cross_validate
from .data import (DataError, apply_transform, load_csv, load_features_csv, load_labeled_csv,
                   make_folds)
from .model_io import load_model, save_model
from .multiclass import GaussianKernelSpec, PairProblem, class_pairs, train_ovo
from .simdata import SimSpec, gen_gaussian_causal, gen_spiral, gen_synthetic_corr
from .solvers import SOLVERS
from .sparsity import SparsityConstraint, project

__all__ = ["main"]


def _add_data_flags(sp):
    sp.add_argument("--data", required=True, help="input CSV file")
    sp.add_argument("--label-column", default="label",
                    help="label column name or 0-based index (default: label)")
    sp.add_argument("--no-header", action="store_true", help="CSV has no header row")
    sp.add_argument("--transform", choices=["standardized", "minmax", "none"],
                    default="none", help="feature transform fitted on training data")


def _add_fit_flags(sp):
    sched, cfg = AnnealSchedule(), SolverConfig()
    sp.add_argument("--algorithm", choices=list(SOLVERS), default="mm",
                    help="inner solver (default mm)")
    level = sp.add_mutually_exclusive_group()
    level.add_argument("--sparsity", type=float, default=None,
                       help="sparsity fraction s in [0,1); k = round((1-s) p) features kept")
    level.add_argument("--keep", type=int, default=None,
                       help="number of features kept (instead of --sparsity)")
    sp.add_argument("--kernel", choices=["gaussian"], default=None,
                    help="train in the kernel representation")
    sp.add_argument("--gamma", type=float, default=None,
                    help="Gaussian kernel bandwidth (default: median pairwise heuristic)")
    sp.add_argument("--dual-sparsity", type=float, default=None,
                    help="kernel mode: fraction of training samples dropped per pair")
    sp.add_argument("--rho0", type=float, default=sched.rho0, help="initial penalty weight")
    sp.add_argument("--multiplier", type=float, default=sched.multiplier,
                    help="penalty growth factor per outer iteration")
    sp.add_argument("--max-outer", type=int, default=sched.max_outer,
                    help="outer iteration cap")
    sp.add_argument("--max-inner", type=int, default=cfg.max_inner,
                    help="inner iteration cap per penalty level")
    sp.add_argument("--grad-tol", type=float, default=cfg.grad_tol,
                    help="inner stop: squared gradient norm floor of each penalty "
                         "level's stopping rule (see anneal.prox_dist_fit)")
    sp.add_argument("--dist-tol", type=float, default=sched.dist_tol,
                    help="outer stop: normalized squared distance threshold")


def _add_run_flags(sp):
    sp.add_argument("--threads", type=int, default=1,
                    help="worker threads over folds/pairs, at least 1 (default 1)")
    sp.add_argument("--format", choices=["json", "csv"], default="json",
                    help="format of train's stdout report or of cv's table")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsesvm",
        description="Sparse support vector machines by annealed distance penalization.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen", help="generate a simulated dataset")
    sp.add_argument("--family", required=True,
                    choices=["synthetic-corr", "gaussian-causal", "spiral"])
    sp.add_argument("--n", type=int, default=1000)
    sp.add_argument("--p", type=int, default=500)
    sp.add_argument("--k0", type=int, default=5)
    sp.add_argument("--n-a", type=int, default=600)
    sp.add_argument("--n-b", type=int, default=300)
    sp.add_argument("--n-c", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--output", required=True, help="CSV path; a JSON sidecar sits next to it")
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("train", help="fit a model and write it to a JSON file")
    _add_data_flags(sp)
    _add_fit_flags(sp)
    _add_run_flags(sp)
    sp.add_argument("--output", required=True, help="model file path")
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("predict", help="score new data with a saved model")
    sp.add_argument("--model", required=True)
    sp.add_argument("--data", required=True, help="CSV of features (plus optional labels)")
    sp.add_argument("--label-column", default=None,
                    help="if given, compute accuracy against this column")
    sp.add_argument("--no-header", action="store_true")
    sp.add_argument("--output", default=None, help="predictions CSV (default stdout)")
    sp.set_defaults(func=cmd_predict)

    sp = sub.add_parser("cv", help="cross-validate a sparsity grid")
    _add_data_flags(sp)
    _add_fit_flags(sp)
    _add_run_flags(sp)
    sp.add_argument("--seed", type=int, default=0, help="seed of the holdout split and folds")
    sp.add_argument("--folds", type=int, default=10)
    sp.add_argument("--grid", required=True,
                    help="comma-separated ascending sparsity fractions, e.g. 0,0.5,0.9")
    sp.add_argument("--holdout-fraction", type=float, default=0.2,
                    help="stratified test split carved out before fold assignment")
    sp.add_argument("--timings", action="store_true",
                    help="include wall-clock times in the table (not reproducible)")
    sp.add_argument("--output", default=None, help="table path (default stdout)")
    sp.set_defaults(func=cmd_cv)

    sp = sub.add_parser("trace", help="fit once, logging one row per penalty level")
    _add_data_flags(sp)
    _add_fit_flags(sp)
    sp.add_argument("--output", required=True, help="trace CSV path")
    sp.set_defaults(func=cmd_trace)

    return parser


def _schedule(args) -> AnnealSchedule:
    return AnnealSchedule(rho0=args.rho0, multiplier=args.multiplier,
                          max_outer=args.max_outer, dist_tol=args.dist_tol)


def _solver_config(args) -> SolverConfig:
    return SolverConfig(grad_tol=args.grad_tol, max_inner=args.max_inner)


def _load_training_data(args):
    ds = load_csv(args.data, args.label_column, has_header=not args.no_header)
    if args.transform != "none":
        ds = apply_transform(ds, args.transform)
    return ds


def _threads(args) -> int:
    if args.threads < 1:
        raise UsageError(f"--threads must be at least 1, got {args.threads}")
    return args.threads


def _resolve_sparsity(args, p: int):
    """Sparsity and kernel for train_ovo, or a usage error for contradictory flags."""
    if args.kernel is not None:
        if args.sparsity is not None or args.keep is not None:
            raise UsageError(
                "--sparsity/--keep select features, which is impossible in the kernel "
                "representation (each coefficient belongs to a training sample, not a "
                "feature); use --dual-sparsity to bound the retained samples instead")
        s = args.dual_sparsity if args.dual_sparsity is not None else 0.0
        if not 0.0 <= s < 1.0:
            raise UsageError(f"--dual-sparsity must lie in [0, 1), got {s}")
        return s, GaussianKernelSpec(gamma=args.gamma)
    if args.dual_sparsity is not None:
        raise UsageError("--dual-sparsity only applies with --kernel")
    if args.gamma is not None:
        raise UsageError("--gamma only applies with --kernel")
    if args.keep is not None:
        if not 0 <= args.keep <= p:
            raise UsageError(f"--keep must lie in [0, {p}], got {args.keep}")
        return SparsityConstraint(args.keep, p), None
    if args.sparsity is not None:
        if not 0.0 <= args.sparsity < 1.0:
            raise UsageError(f"--sparsity must lie in [0, 1), got {args.sparsity}")
        return args.sparsity, None
    return 0.0, None


class UsageError(Exception):
    pass


def _write_text(path, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def cmd_gen(args) -> int:
    if args.family == "synthetic-corr":
        ds, planted = gen_synthetic_corr(args.n, args.p, args.seed)
        spec = SimSpec("synthetic-corr", args.n, args.p, args.seed)
    elif args.family == "gaussian-causal":
        ds, planted = gen_gaussian_causal(args.n, args.p, args.k0, args.seed)
        spec = SimSpec("gaussian-causal", args.n, args.p, args.seed, k0=args.k0)
    else:
        ds = gen_spiral(args.n_a, args.n_b, args.n_c, args.seed)
        planted = None
        spec = SimSpec("spiral", ds.n, 2, args.seed,
                       params={"n_a": args.n_a, "n_b": args.n_b, "n_c": args.n_c})

    out = Path(args.output)
    with out.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"f{j + 1}" for j in range(ds.p)] + ["label"])
        for row, lab in zip(ds.features, ds.labels):
            writer.writerow([repr(float(v)) for v in row] + [ds.class_names[lab]])

    sidecar = {"spec": spec.to_dict()}
    if planted is not None:
        sidecar["beta_true"] = [float(v) for v in planted.beta_true]
        sidecar["support"] = [int(i) for i in planted.support]
    else:
        sidecar["beta_true"] = None
        sidecar["support"] = None
    out.with_suffix(".json").write_text(json.dumps(sidecar), encoding="utf-8")
    print(f"wrote {out} ({ds.n} rows, {ds.p} features) and {out.with_suffix('.json')}")
    return 0


def _report_docs(model):
    docs = []
    for pair in model.pairs:
        doc = {"positive": int(pair.positive), "negative": int(pair.negative)}
        if pair.report is not None:
            doc.update(pair.report.to_dict())
        docs.append(doc)
    return docs


def _print_report(docs, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps({"pairs": docs,
                          "converged": all(d.get("converged", False) for d in docs)}))
        return
    writer = csv.writer(sys.stdout, lineterminator="\n")
    keys = list(docs[0].keys())
    writer.writerow(keys)
    for doc in docs:
        writer.writerow([doc.get(k, "") for k in keys])


def cmd_train(args) -> int:
    threads = _threads(args)
    ds = _load_training_data(args)
    sparsity, kernel = _resolve_sparsity(args, ds.p)
    model = train_ovo(ds, sparsity, solver=args.algorithm, sched=_schedule(args),
                      cfg=_solver_config(args), kernel=kernel, n_threads=threads)
    save_model(args.output, model, ds.transform_params)
    _print_report(_report_docs(model), args.format)
    return 0


def cmd_predict(args) -> int:
    saved = load_model(args.model)
    if args.label_column is not None:
        # scoring needs no second class: a file of one class has an accuracy too
        feats, truth = load_labeled_csv(args.data, args.label_column,
                                        has_header=not args.no_header)
    else:
        feats = load_features_csv(args.data, has_header=not args.no_header)
        truth = None
    names = saved.predict_names(feats)

    lines = ["prediction"] + names
    _write_text(args.output, "\n".join(lines) + "\n")
    if truth is not None:
        acc = 100.0 * float(np.mean([a == b for a, b in zip(names, truth)]))
        print(json.dumps({"accuracy_pct": acc, "n": len(names)}))
    elif args.output is not None:
        print(f"wrote {args.output} ({len(names)} predictions)")
    return 0


def _stratified_split(labels: np.ndarray, fraction: float, seed: int):
    """Per-class shuffled split; returns (held_out_idx, remainder_idx), sorted."""
    if not 0.0 <= fraction < 1.0:
        raise UsageError(f"--holdout-fraction must lie in [0, 1), got {fraction}")
    rng = np.random.default_rng(seed)
    held = []
    rest = []
    for c in np.unique(labels):
        idx = rng.permutation(np.flatnonzero(labels == c))
        cut = int(round(fraction * idx.size))
        held.extend(idx[:cut])
        rest.extend(idx[cut:])
    return np.sort(np.asarray(held, dtype=int)), np.sort(np.asarray(rest, dtype=int))


def cmd_cv(args) -> int:
    if any(v is not None for v in (args.sparsity, args.keep, args.dual_sparsity)):
        raise UsageError("cv sweeps the sparsity levels given by --grid; "
                         "--sparsity/--keep/--dual-sparsity do not apply")
    threads = _threads(args)
    raw = load_csv(args.data, args.label_column, has_header=not args.no_header)
    # the sparsity flags are rejected above, so this resolves the kernel flags
    _, kernel = _resolve_sparsity(args, raw.p)
    try:
        grid = sorted(float(tok) for tok in args.grid.split(",") if tok.strip())
    except ValueError:
        raise UsageError(f"cannot parse --grid {args.grid!r}") from None
    if not grid:
        raise UsageError("--grid is empty")

    test_idx, cv_idx = _stratified_split(raw.labels, args.holdout_fraction, args.seed)
    ds_cv = raw.take(cv_idx)
    holdout = raw.take(test_idx) if test_idx.size else None
    if args.transform != "none":
        ds_cv = apply_transform(ds_cv, args.transform)
        if holdout is not None:
            holdout = replace(holdout, features=ds_cv.transform_params.apply(holdout.features),
                              transform=args.transform, transform_params=ds_cv.transform_params)

    folds = make_folds(ds_cv.n, args.folds, args.seed, labels=ds_cv.labels)
    table = cross_validate(ds_cv, folds, grid, solver=args.algorithm, sched=_schedule(args),
                           cfg=_solver_config(args), holdout=holdout, kernel=kernel,
                           n_threads=threads)
    if all(row.error is not None for row in table.rows):
        raise RuntimeError(f"every cross-validation fit failed: {table.rows[0].error}")
    text = (table.to_json(include_timings=args.timings) + "\n"
            if args.format == "json" else table.to_csv(include_timings=args.timings))
    _write_text(args.output, text)
    if args.output is not None:
        sel = table.selected_summary()
        print(json.dumps({"selected_s": table.selected_s, "selected_k": table.selected_k,
                          "valid_pct": sel["valid_pct"], "test_pct": sel["test_pct"]}))
    return 0


_TRACE_FIELDS = tuple(f.name for f in fields(OuterRecord) if f.name != "beta")


def cmd_trace(args) -> int:
    ds = _load_training_data(args)
    sparsity, kernel = _resolve_sparsity(args, ds.p)
    cfg = _solver_config(args)
    sched = _schedule(args)

    out_rows = []
    for i, j in class_pairs(len(ds.class_names)):
        prob = PairProblem.build(ds, i, j, kernel, args.algorithm)
        records = []
        prob.fit(sparsity, sched, cfg, trace_hook=records.append)
        constraint = prob.constraint(sparsity)
        X, y = prob.design.X, prob.design.y
        for rec in records:
            bp = project(rec.beta, constraint)
            acc = 100.0 * float(np.mean(((X @ bp) >= 0.0) == (y > 0)))
            out_rows.append([ds.class_names[i], ds.class_names[j],
                             *(getattr(rec, name) for name in _TRACE_FIELDS), acc])

    with Path(args.output).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["positive", "negative", *_TRACE_FIELDS, "train_acc"])
        writer.writerows(out_rows)
    print(f"wrote {args.output} ({len(out_rows)} rows)")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        parser.error(str(exc))
    except (DataError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
