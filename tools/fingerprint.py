"""SHA-256 fingerprints of the outputs that a pure speed change must leave
bit-identical.

Run from the root of a checkout:

    python3 tools/fingerprint.py [ROOT]

The package is imported from ``ROOT/src``, by default from this script's own
checkout, so one version of the script can fingerprint two checkouts; compare
their outputs line by line. BLAS is pinned to one thread before numpy loads:
outputs are byte-identical only at a fixed BLAS thread count. One line per
output, with its work counters where it has them:

- ``c07.<solver>``: the 20 criterion-07 fits (gaussian-causal 200x100, k=5,
  simdata seeds 0-19): every level's trace record (rho, inner iterations,
  restarts, objective, squared gradient, distance, coefficients) and the
  returned coefficients;
- ``c08.cv``: the criterion-08 CV table (synthetic-corr 1000x500, 10 folds),
  as CSV without timings;
- ``spiral<seed>.<solver>.{model,report,trace,predict}``: on ``sparsesvm
  gen --family spiral --seed <seed>`` for seeds 0-2, the model file of
  ``train --kernel gaussian --gamma 1 --dual-sparsity 0.5``, its report
  without ``wall_time``, the CSV of ``trace`` with the same flags, and on the
  next seed's file (seed 0's after seed 2's) the predictions file and stdout
  of ``predict --model <model> --data <file> --label-column label`` with
  the bytes of every pair's decision scores, which ``predict_ovo`` votes on;
- ``spiral<seed>.median.{train,predict}``: the same at the default median
  bandwidth with ``mm``, the model file and report of ``train --kernel
  gaussian --dual-sparsity 0.5`` in one line, and its predictions;
- ``planted.<solver>.trace``: the CSV of ``trace --keep 5`` on ``gen --family
  gaussian-causal --n 200 --p 100 --k0 5 --seed 0``;
- ``spiral0.cv``: the kernel ``cv`` table on seed 0's file, 3 folds.

Takes about 10 seconds on a 2-core x86 VM.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

from sparsesvm import cli
from sparsesvm.anneal import prox_dist_fit
from sparsesvm.crossval import cross_validate
from sparsesvm.data import apply_transform, binarize, load_labeled_csv, make_folds
from sparsesvm.model_io import load_model
from sparsesvm.multiclass import init_heuristic
from sparsesvm.simdata import gen_gaussian_causal, gen_synthetic_corr
from sparsesvm.sparsity import SparsityConstraint

SOLVERS = ("mm", "sd")


def show(name: str, *parts, **counters) -> None:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else repr(part).encode())
    extra = "".join(f" {key}={value}" for key, value in counters.items())
    print(f"{name:<22} {digest.hexdigest()}{extra}", flush=True)


def criterion_07() -> None:
    constraint = SparsityConstraint(k=5, p=100)
    designs = [binarize(gen_gaussian_causal(200, 100, k0=5, seed=seed)[0], 1, 0)
               for seed in range(20)]
    for solver in SOLVERS:
        parts, inner, restarts = [], 0, 0
        for design in designs:
            records = []
            beta, report = prox_dist_fit(design, constraint, init_heuristic(design),
                                         solver=solver, trace_hook=records.append)
            for rec in records:
                parts += [(rec.outer, rec.rho, rec.inner_iters, rec.restarts, rec.objective,
                           rec.grad_sq, rec.distance), rec.beta.tobytes()]
                restarts += rec.restarts
            parts.append(beta.tobytes())
            inner += report.total_inner_iters
        show(f"c07.{solver}", *parts, inner=inner, restarts=restarts)


def criterion_08() -> None:
    raw, _ = gen_synthetic_corr(1000, 500, seed=1)
    test_idx, cv_idx = cli._stratified_split(raw.labels, 0.2, seed=1)
    ds_cv = apply_transform(raw.take(cv_idx), "standardized")
    holdout = raw.take(test_idx)
    holdout = replace(holdout, features=ds_cv.transform_params.apply(holdout.features),
                      transform="standardized", transform_params=ds_cv.transform_params)
    folds = make_folds(ds_cv.n, 10, seed=1, labels=ds_cv.labels)
    table = cross_validate(ds_cv, folds, [0.0, 0.9, 0.99, 0.994, 0.996, 0.998],
                           solver="mm", holdout=holdout)
    show("c08.cv", table.to_csv())


def run_cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main([str(arg) for arg in argv])
    if rc != 0:
        raise SystemExit(f"sparsesvm {' '.join(map(str, argv))} exited {rc}")
    return out.getvalue()


def drop_wall_time(doc):
    if isinstance(doc, dict):
        return {key: drop_wall_time(value) for key, value in doc.items() if key != "wall_time"}
    if isinstance(doc, list):
        return [drop_wall_time(value) for value in doc]
    return doc


def trace(workdir: Path, flags) -> bytes:
    path = workdir / "trace.csv"
    run_cli(["trace", *flags, "--output", path])
    return path.read_bytes()


def planted(workdir: Path) -> None:
    data = workdir / "planted.csv"
    run_cli(["gen", "--family", "gaussian-causal", "--n", 200, "--p", 100, "--k0", 5,
             "--seed", 0, "--output", data])
    for solver in SOLVERS:
        show(f"planted.{solver}.trace",
             trace(workdir, ["--data", data, "--keep", 5, "--algorithm", solver]))


def predict(model: Path, data: Path, workdir: Path):
    """The predictions file and stdout of ``predict`` on ``data``, and the bytes
    of every pair's decision scores there, which ``predict_ovo`` votes on."""
    predictions = workdir / "predictions.csv"
    stdout = run_cli(["predict", "--model", model, "--data", data, "--label-column", "label",
                      "--output", predictions])
    feats, _ = load_labeled_csv(data, "label")  # the spiral models have no transform
    scores = np.stack([pair.scores(feats) for pair in load_model(model).ovo.pairs])
    return predictions.read_bytes(), stdout, scores.tobytes()


def spiral(workdir: Path) -> None:
    files = [workdir / f"spiral{seed}.csv" for seed in range(3)]
    for seed, data in enumerate(files):
        run_cli(["gen", "--family", "spiral", "--seed", seed, "--output", data])
    for seed, data in enumerate(files):
        # each model predicts another seed's file, so its scores are not its own fit's
        other = files[(seed + 1) % len(files)]
        for solver in SOLVERS:
            tag, model = f"spiral{seed}.{solver}", workdir / f"model-{seed}-{solver}.json"
            flags = ["--data", data, "--kernel", "gaussian", "--gamma", 1,
                     "--dual-sparsity", 0.5, "--algorithm", solver]
            report = run_cli(["train", *flags, "--threads", 1, "--output", model])
            show(f"{tag}.model", model.read_bytes())
            show(f"{tag}.report", json.dumps(drop_wall_time(json.loads(report)), sort_keys=True))
            show(f"{tag}.trace", trace(workdir, flags))
            show(f"{tag}.predict", *predict(model, other, workdir))
        tag, model = f"spiral{seed}.median", workdir / f"model-{seed}-median.json"
        report = run_cli(["train", "--data", data, "--kernel", "gaussian", "--dual-sparsity", 0.5,
                          "--threads", 1, "--output", model])
        show(f"{tag}.train", model.read_bytes(),
             json.dumps(drop_wall_time(json.loads(report)), sort_keys=True))
        show(f"{tag}.predict", *predict(model, other, workdir))
    table = run_cli(["cv", "--data", files[0], "--kernel", "gaussian",
                     "--gamma", 1, "--grid", "0,0.5", "--folds", 3, "--format", "csv"])
    show("spiral0.cv", table)


def main() -> None:
    print(f"numpy {np.__version__}, BLAS pinned to 1 thread")
    criterion_07()
    criterion_08()
    with tempfile.TemporaryDirectory() as tmp:
        planted(Path(tmp))
        spiral(Path(tmp))


if __name__ == "__main__":
    main()
