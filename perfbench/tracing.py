"""Spans and fit records taken from outside the package.

Everything here works by replacing module attributes of ``sparsesvm``: a
public function is swapped, in its defining module and in every module that
imported a copy of it, for a wrapper that records what happened and then
calls the original. ``Patches.close`` puts the originals back. No file of the
package is touched, and a function that a later version of the package no
longer has is simply not wrapped.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np

# public functions traced per layer; layer names are the modules in src/sparsesvm
TRACED = {
    "cli": ("main",),
    "crossval": ("cross_validate",),
    "multiclass": ("train_ovo", "predict_ovo"),
    "anneal": ("prox_dist_fit",),
    "solvers": ("mm_update", "sd_update", "mm_solve", "sd_solve"),
    "objective": ("penalized_objective", "gradient"),
    "sparsity": ("project", "sq_distance"),
    "data": ("thin_svd", "load_csv"),
    "kernel": ("gram_matrix", "kernel_predict"),
    "model_io": ("save_model", "load_model"),
}


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "sparsesvm" or name.startswith("sparsesvm."))]


class Patches:
    """Swap every copy of a package function for a wrapper; undo on close."""

    def __init__(self):
        self._undo = []

    def wrap(self, layer: str, attr: str, make_wrapper) -> None:
        module = sys.modules.get(f"sparsesvm.{layer}")
        func = getattr(module, attr, None)
        if not callable(func):
            return
        wrapper = make_wrapper(func)
        for mod in _package_modules():
            for name, value in list(vars(mod).items()):
                if value is func:
                    setattr(mod, name, wrapper)
                    self._undo.append((mod, name, func))

    def close(self):
        for mod, name, func in reversed(self._undo):
            setattr(mod, name, func)
        self._undo.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class FitLog:
    """Observes every ``prox_dist_fit`` call, whoever makes it.

    It checks that each returned coefficient vector is exactly k-sparse and
    keeps the ``FitReport``. With ``levels=True`` it also chains a
    ``trace_hook`` to time each penalty level and keeps the largest fit's last
    two iterates, which the microbenchmarks start from.
    """

    def __init__(self, levels: bool = False):
        self.levels = levels
        self.reports = []          # FitReport per fit, in completion order
        self.violations = []       # one message per fit that was not k-sparse
        self.level_s = []          # wall seconds per penalty level
        self.level_iters = []      # inner iterations per penalty level
        self.target = None         # (key, design, constraint, records) of the largest fit
        self._lock = threading.Lock()

    def install(self, patches: Patches) -> None:
        patches.wrap("anneal", "prox_dist_fit", self._wrap)

    def _wrap(self, func):
        def prox_dist_fit(design, constraint, beta0, *args, **kwargs):
            records = None
            # a hook passed by position cannot be chained; such a call goes untimed
            if self.levels and len(args) < 5:
                records = []
                caller_hook = kwargs.get("trace_hook")

                def hook(rec):
                    records.append((time.perf_counter(), rec))
                    if caller_hook is not None:
                        caller_hook(rec)

                kwargs["trace_hook"] = hook
            t0 = time.perf_counter()
            beta, report = func(design, constraint, beta0, *args, **kwargs)
            self._record(design, constraint, beta, report, t0, records)
            return beta, report
        return prox_dist_fit

    def _record(self, design, constraint, beta, report, t0, records):
        nnz = int(np.count_nonzero(np.asarray(beta)[:constraint.p]))
        with self._lock:
            self.reports.append(report)
            if nnz != constraint.k:
                self.violations.append(
                    f"fit returned {nnz} nonzeros where k={constraint.k} (p={constraint.p})")
            if records is None:
                return
            prev = t0
            for stamp, rec in records:
                self.level_s.append(stamp - prev)
                self.level_iters.append(int(rec.inner_iters))
                prev = stamp
            # largest design wins; ties go to the sparsest level, then to a
            # checksum of the design, so worker threads cannot change the pick
            key = (design.X.size, -constraint.k, float(np.abs(design.X).sum()))
            if records and (self.target is None or key > self.target[0]):
                self.target = (key, design, constraint, [rec for _, rec in records[-2:]])

    def counters(self) -> list[tuple[int, int]]:
        """(outer, inner) iteration counts of every fit, in a thread-independent order."""
        return sorted((int(r.outer_iters), int(r.total_inner_iters)) for r in self.reports)


class Tracer:
    """In-memory spans: [name, start, end, parent span, thread id]."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._main = threading.main_thread().ident
        self._stacks = {}

    def install(self, patches: Patches) -> None:
        for layer, attrs in TRACED.items():
            for attr in attrs:
                patches.wrap(layer, attr, lambda f, n=f"{layer}.{attr}": self._wrap(n, f))

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._stacks[threading.get_ident()] = stack
        return stack

    def _wrap(self, name, func):
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                # a worker thread's first span belongs to whatever the main
                # thread was running when it started (a pool inside that call)
                main = self._stacks.get(self._main)
                parent = main[-1] if main else None
            span = [name, 0.0, 0.0, parent, threading.get_ident()]
            self.spans.append(span)
            stack.append(span)
            span[1] = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
        return traced


def ancestor(span, name):
    """The nearest enclosing span called ``name``, or None."""
    parent = span[3]
    while parent is not None:
        if parent[0] == name:
            return parent
        parent = parent[3]
    return None


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it that its children cover.

    Children that ran in parallel threads are merged as intervals first, so
    overlapping children are not subtracted twice.
    """
    children = {}
    for span in spans:
        if span[3] is not None:
            children.setdefault(id(span[3]), []).append((span[1], span[2]))
    out = []
    for span in spans:
        start, end = span[1], span[2]
        covered = 0.0
        cur_s = cur_e = None
        for s, e in sorted(children.get(id(span), ())):
            s, e = max(s, start), min(e, end)
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append((end - start) - covered)
    return out


def write_spans(path, spans, origin: float) -> None:
    """One CSV row per span: id, name, start and end (s from origin), parent id, thread."""
    index = {id(span): i for i, span in enumerate(spans)}
    threads = {}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,name,start_s,end_s,parent,thread\n")
        for i, (name, start, end, parent, thread) in enumerate(spans):
            pid = index[id(parent)] if parent is not None else ""
            tid = threads.setdefault(thread, len(threads))
            fh.write(f"{i},{name},{start - origin:.9f},{end - origin:.9f},{pid},{tid}\n")
