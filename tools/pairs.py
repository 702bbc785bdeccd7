"""Paired bench runs of a parent revision against this checkout, for perf claims.

Run from the root of a checkout:

    python3 tools/pairs.py --parent HEAD~1 --output BENCH_<n>.json

Both sides run from ``git archive`` exports in one temporary directory,
removed at the end, so neither runs from a git checkout: the parent's
committed files, and this checkout's tracked files as they stand (``git stash
create``, or ``HEAD`` when the tree is clean; files git does not track are
left out). Pair i runs seed ``--seed + i`` on both sides, each run

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

in a fresh interpreter from that side's root, the parent first on even i and
this checkout first on odd i. For every workload and every end-to-end metric
of BENCHMARK.json the report holds each side's runs, median and quartiles
(``statistics.quantiles(n=4, method='inclusive')``), the pairs the change
won, its median against the parent's, the verdict against the metric's bound
and the gain rule: the change won at least nine tenths of the pairs and its
median is better than the parent's by more than the parent's interquartile
distance. It then runs the change's ``tools/fingerprint.py`` on both
exports and records whether every line matches. With ``--trace`` each side also runs

    python3 perfbench/run.py --workload W --seed S --trace 1

once per workload, at ``--seed``, and the report holds the work counters of
both runs (``COUNTERS``) and whether they are equal. The report is JSON,
written to ``--output`` or standard output; progress goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
RUN_TIMEOUT = 1800
# the traced run's work counters: equal on both sides when a change leaves
# every fit's iterations and every factorization as they were
COUNTERS = ("solvers.inner_iters_per_fit", "anneal.levels_per_fit", "data.thin_svd.calls")


def git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def bench(root: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """The last-line JSON of one bench run from ``root``, with its ``meta``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT)
    lines = res.stdout.splitlines()
    if res.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} in {root} exited {res.returncode}:\n"
                           f"{res.stderr[-2000:]}")
    out = json.loads(lines[-1])
    out["meta"] = next((json.loads(line[len("meta: "):]) for line in lines
                        if line.startswith("meta: ")), None)
    return out


def quartiles(runs):
    if len(runs) < 2:
        return runs[0], runs[0]
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return q1, q3


def side(runs) -> dict:
    q1, q3 = quartiles(runs)
    return {"median": statistics.median(runs), "q1": q1, "q3": q3, "runs": runs}


def compare(parent, change, better: str, bound: float) -> dict:
    """Both sides of one metric over the same pairs, in pair order."""
    sign = 1.0 if better == "lower" else -1.0
    p, c = side(parent), side(change)
    # gain > 0 is better for the change, in the metric's own unit
    gain = sign * (p["median"] - c["median"])
    rel = (c["median"] - p["median"]) / abs(p["median"]) if p["median"] else 0.0
    spread = p["q3"] - p["q1"]
    wins = sum(sign * (pv - cv) > 0 for pv, cv in zip(parent, change))
    dominated = all(sign * (pv - cv) > 0 for pv in parent for cv in change)
    if p["median"] and spread / abs(p["median"]) > bound and not dominated:
        verdict = "unresolved: the parent's interquartile spread is wider than the bound"
    elif sign * rel > bound:
        verdict = "worse than bound"
    else:
        verdict = "within bound"
    return {
        "better": better, "bound": bound, "parent": p, "change": c, "wins": wins,
        "change_vs_parent_median": rel, "verdict": verdict,
        "gain_rule": {
            "wins_needed": math.ceil(0.9 * len(parent)),
            "median_gain": gain,
            "parent_iqr": spread,
            "met": wins >= 0.9 * len(parent) and gain > spread,
        },
    }


def fingerprint(script: Path, root: Path):
    """The output lines of ``script`` (a ``tools/fingerprint.py``) on the
    package of ``root``."""
    res = subprocess.run([sys.executable, str(script), str(root)], cwd=root,
                         capture_output=True, text=True, timeout=RUN_TIMEOUT)
    if res.returncode != 0:
        raise RuntimeError(f"{script} exited {res.returncode}:\n{res.stderr[-2000:]}")
    return res.stdout.splitlines()


def fingerprints(parent: Path, change: Path) -> dict:
    script = change / "tools" / "fingerprint.py"
    a, b = fingerprint(script, parent), fingerprint(script, change)
    names = [line.split()[0] for line in b[1:] if line.strip()]
    differ = sorted({line.split()[0] for line in set(a[1:]) ^ set(b[1:]) if line.strip()})
    return {"lines": len(names), "equal": a == b, "differ": differ, "change": b}


def pairs(roots: dict, workloads, seeds, seconds: float, better, bounds):
    """Per workload, both sides' runs from ``roots`` (side name -> root)
    compared metric by metric; and the metadata (host, versions) of the
    change's first run."""
    out, host = {}, None
    for workload in workloads:
        runs = {"parent": [], "change": []}
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for name in order:
                runs[name].append(bench(roots[name], workload, seed, seconds))
                print(f"{workload} pair {i} seed {seed} {name}: "
                      f"{json.dumps(runs[name][-1]['metrics'])}", file=sys.stderr, flush=True)
        entry = {
            "pairs": len(seeds),
            "attempted": {k: sum(r["attempted"] for r in v) for k, v in runs.items()},
            "failed": {k: sum(r["failed"] for r in v) for k, v in runs.items()},
            "correct_all": {k: all(r["correct"] for r in v) for k, v in runs.items()},
        }
        for metric in better:
            values = {k: [r["metrics"][metric]["value"] for r in v] for k, v in runs.items()}
            entry[metric] = {"unit": runs["change"][0]["metrics"][metric]["unit"],
                             **compare(values["parent"], values["change"], better[metric],
                                       bounds[metric])}
        out[workload] = entry
        host = host or runs["change"][0]["meta"]
    return out, host


def counters(roots: dict, workloads, seed: int, seconds: float) -> dict:
    """Per workload, the ``COUNTERS`` of one traced run on each side."""
    out = {}
    for workload in workloads:
        entry = {"correct": {}}
        for name, root in roots.items():
            run = bench(root, workload, seed, seconds, trace=1)
            entry[name] = {k: run["metrics"][k]["value"] for k in COUNTERS}
            entry["correct"][name] = run["correct"]
            print(f"{workload} traced seed {seed} {name}: {json.dumps(entry[name])}",
                  file=sys.stderr, flush=True)
        entry["equal"] = entry["parent"] == entry["change"]
        out[workload] = entry
    return out


def export(rev: str, dest: Path) -> None:
    """The files of commit ``rev`` under ``dest``."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                         capture_output=True).stdout
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--workload", action="append", choices=names,
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    ap.add_argument("--trace", action="store_true",
                    help="also compare the work counters of one traced run per side")
    ap.add_argument("--output", type=Path, help="report file (default: standard output)")
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.seed < 0 or args.seconds <= 0:
        ap.error("--pairs must be positive, --seed nonnegative and --seconds positive")
    metrics = spec["end_to_end"]
    better = {m["name"]: m["better"] for m in metrics}
    bounds = {m["name"]: m["bound"] for m in metrics}
    seeds = list(range(args.seed, args.seed + args.pairs))
    parent = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    head = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    # a commit of the tracked files as they stand; empty when the tree is clean
    change = git("stash", "create") or head

    workloads = args.workload or names
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        roots = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        export(parent, roots["parent"])
        export(change, roots["change"])
        results, host = pairs(roots, workloads, seeds, args.seconds, better, bounds)
        prints = fingerprints(roots["parent"], roots["change"])
        traced = counters(roots, workloads, args.seed, args.seconds) if args.trace else None

    report = {
        "command": (f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g}"
                    " --trace 0"),
        "seeds": seeds,
        "pairing": f"pair i runs seed {args.seed} + i on both sides; the parent runs first "
                   "on even i, the change first on odd i",
        "quartiles": "statistics.quantiles(n=4, method='inclusive')",
        "wins": "pairs in which the change's value is better than the parent's; "
                "ties count for neither",
        "gain_rule": "wins >= 0.9 pairs and the change's median better than the parent's "
                     "by more than the parent's interquartile distance",
        "parent_commit": parent,
        "change_commit": head,
        "change_dirty": dirty,
        "change_export": change,
        "host": host,
        "workloads": results,
        "fingerprint": prints,
    }
    if traced is not None:
        report["traced"] = {
            "command": (f"python3 perfbench/run.py --workload W --seed {args.seed}"
                        f" --seconds {args.seconds:g} --trace 1"),
            "counters": list(COUNTERS),
            "workloads": traced,
            "equal": all(entry["equal"] for entry in traced.values()),
        }
    text = json.dumps(report, indent=1) + "\n"
    if args.output:
        args.output.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
