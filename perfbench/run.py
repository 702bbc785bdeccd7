"""Benchmark for sparsesvm: three paper workloads, per-layer numbers from a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload planted-fit --seed 0 --seconds 15 --trace 0

``--trace 0`` runs the workload's closed loop for ``--seconds`` with tracing
off and reports the end-to-end metrics. ``--trace 1`` runs a fixed unit of
the workload twice, untraced and then with spans around the package's public
functions, and reports per-layer metrics, microbenchmarks and the tracing
overhead. ``--workload all`` runs every workload in this one process.

The report goes to standard output, one metric per line with its unit; the
last line is a JSON object with ``correct``, ``attempted``, ``failed`` and the
metrics named in BENCHMARK.json. A fuller record (metadata, every metric,
tail percentiles) goes to perfbench/out/, with the spans of a traced run.
"""

import os

# one BLAS thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC = ROOT / "BENCHMARK.json"   # workloads, their why, and the metrics to print
SETUP_REPEATS = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import sparsesvm; "
                "print(time.perf_counter() - t)")


def blas_info():
    """(name, threads) of the BLAS numpy loaded; threads asked of OpenBLAS itself."""
    import ctypes

    import numpy as np
    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # older numpy has no dict mode
        name = "unknown"
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                        "openblas_get_num_threads64_"):
                if hasattr(handle, sym):
                    threads = int(getattr(handle, sym)())
                    break
    except OSError:
        pass
    return name, threads


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def metadata() -> dict:
    import numpy as np
    blas, blas_threads = blas_info()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "git_commit": git_commit(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted((SRC / "sparsesvm").rglob("*.py"))),
    }


def import_seconds() -> float:
    """Time to import the package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    res = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return float(res.stdout.strip())


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def count_failed(ops) -> int:
    return sum(1 for op in ops if op.problems)


def run_timed(wl, seed, seconds, workdir):
    from tracing import FitLog, Patches

    setup = []
    for _ in range(SETUP_REPEATS):
        t_import = import_seconds()
        t0 = time.perf_counter()
        wl.setup(seed, workdir)
        setup.append(t_import + time.perf_counter() - t0)
    fitlog = FitLog()
    with Patches() as patches:
        fitlog.install(patches)
        ops = wl.timed(seconds, fitlog)
    metrics = wl.evaluate(ops)
    failed = count_failed(ops)
    metrics["setup_s"] = (statistics.median(setup), "s")
    metrics["fail_pct"] = (100.0 * failed / len(ops), "%")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return metrics, ops, None


def run_traced(wl, seed, workdir, spans_path):
    import micro
    from tracing import FitLog, Patches, Tracer, ancestor, self_times, write_spans
    from workloads import tail

    wl.setup(seed, workdir)
    tracer = Tracer()
    passes = []
    for traced in (False, True):
        fitlog = FitLog(levels=True)
        with Patches() as fit_patches:
            fitlog.install(fit_patches)
            with Patches() as span_patches:
                if traced:
                    tracer.install(span_patches)
                t0 = time.perf_counter()
                ops = wl.unit(fitlog)
                elapsed = time.perf_counter() - t0
        wl.evaluate(ops)
        passes.append((ops, fitlog, elapsed, t0))
    (ops0, log0, dt0, _), (ops1, log1, dt1, origin) = passes
    if log0.counters() != log1.counters():
        ops1[-1].problems.append("work counters differ between the untraced and traced unit")

    spans = tracer.spans
    selfs = self_times(spans)
    write_spans(spans_path, spans, origin)
    calls, total, own, layer_self = {}, {}, {}, {}
    for span, s in zip(spans, selfs):
        name = span[0]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + span[2] - span[1]
        own[name] = own.get(name, 0.0) + s
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + s

    reports = log0.reports
    fits = len(reports)
    inner = sum(r.total_inner_iters for r in reports)
    project_in_fits = sum(1 for span in spans if span[0] == "sparsity.project"
                          and ancestor(span, "anneal.prox_dist_fit") is not None)
    level_tail = tail(log0.level_iters)
    m = {
        "sparsity.project.calls_per_iter": (project_in_fits / inner, "count"),
        "sparsity.project.self_s": (own.get("sparsity.project", 0.0), "s"),
        "sparsity.self_s": (layer_self.get("sparsity", 0.0), "s"),
        "solvers.inner_iters_per_fit": (inner / fits, "count"),
        "solvers.us_per_inner_iter": (1e6 * sum(r.wall_time for r in reports) / inner, "us"),
        "anneal.levels_per_fit": (sum(r.outer_iters for r in reports) / fits, "count"),
        "anneal.level_s_p50": (statistics.median(log0.level_s), "s"),
        "anneal.inner_iters_per_level_tail": (
            level_tail[0] if level_tail else max(log0.level_iters), "count"),
        "anneal.converged_pct": (100.0 * sum(bool(r.converged) for r in reports) / fits, "%"),
        "anneal.self_s": (layer_self.get("anneal", 0.0), "s"),
        "data.thin_svd.calls": (calls.get("data.thin_svd", 0), "count"),
        "data.thin_svd.s": (total.get("data.thin_svd", 0.0), "s"),
        "trace.overhead_pct": (100.0 * (dt1 - dt0) / dt0, "%"),
        "trace.untraced_s": (dt0, "s"),
        "trace.traced_s": (dt1, "s"),
    }
    _, design, constraint, records = log0.target
    m.update(micro.run(design, constraint, records, wl.kernel_case(design)))
    m.update(wl.layer_metrics(ops0, spans, selfs))
    for name in sorted(calls):
        m[f"{name}.calls"] = (calls[name], "count")
        m[f"{name}.s"] = (total[name], "s")
        m.setdefault(f"{name}.self_s", (own[name], "s"))
    for layer in sorted(layer_self):
        m.setdefault(f"{layer}.self_s", (layer_self[layer], "s"))
    return m, ops0 + ops1, spans_path


def _json_value(v):
    if isinstance(v, tuple):  # a tail: (value, percentile, n)
        return {"value": v[0], "percentile": v[1], "n": v[2]}
    if isinstance(v, float) and not math.isfinite(v):
        return None
    return v


def _fmt(value, unit) -> str:
    if value is None:
        return f"n/a ({unit}; fewer than 11 samples, so no percentile has ten beyond it)"
    if isinstance(value, tuple):
        v, pct, n = value
        return f"{v:.6g} {unit}  (p{pct:.0f} of {n})"
    if isinstance(value, float):
        return f"{value:.6g} {unit}"
    return f"{value} {unit}"


def run_one(name, why, wanted, args, meta):
    from workloads import WORKLOADS

    wl = WORKLOADS[name]()
    workdir = OUT / f"{name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    stem = OUT / f"{name}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            metrics, ops, spans = run_traced(wl, args.seed, workdir,
                                             stem.with_name(stem.name + "-spans.csv"))
        else:
            metrics, ops, spans = run_timed(wl, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = count_failed(ops)

    print(f"== {name}  seed={args.seed}  seconds={args.seconds}  trace={args.trace}")
    print(f"why: {why}")
    print(f"attempted={len(ops)} failed={failed} fail_pct={100.0 * failed / len(ops):.4g}")
    for op in ops:
        for problem in op.problems:
            print(f"FAILED {problem}")
    for key in sorted(metrics):
        value, unit = metrics[key]
        print(f"  {key:40s} {_fmt(value, unit)}")
    if spans:
        print(f"spans: {spans}")

    missing = [k for k in wanted if k not in metrics]
    if missing:
        raise RuntimeError(f"{name}: no value for {', '.join(missing)}")
    wrong = [k for k, unit in wanted.items() if metrics[k][1] != unit]
    if wrong:
        raise RuntimeError(f"{name}: unit differs from {SPEC.name} for {', '.join(wrong)}")
    record = {
        "workload": name, "why": why, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "meta": meta, "attempted": len(ops), "failed": failed,
        "problems": [p for op in ops for p in op.problems],
        "samples": [[op.kind, op.seconds] for op in ops],
        "metrics": {k: {"value": _json_value(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    result = {k: {"value": _json_value(metrics[k][0]), "unit": metrics[k][1]} for k in wanted}
    return len(ops), failed, result


def main(argv=None) -> int:
    try:
        spec = json.loads(SPEC.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {SPEC}: {exc}", file=sys.stderr)
        return 2
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(whys) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                    help="length of the timed closed loop, in whole rounds (trace 0)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "sparsesvm" / "__init__.py").is_file():
        print(f"error: the package sources are not at {SRC / 'sparsesvm'}; "
              "run from the root of a sparsesvm checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    meta = metadata()
    print(f"meta: {json.dumps(meta)}")
    names = list(whys) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        a, f, result = run_one(name, whys[name], wanted, args, meta)
        attempted += a
        failed += f
        if len(names) == 1:
            metrics = result
        else:
            metrics.update((f"{name}.{k}", v) for k, v in result.items())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
