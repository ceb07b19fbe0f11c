"""Outside-in span tracer for the program's public entry points.

`Tracer.install()` replaces each entry point in LAYERS with a wrapper that
records a span (name, start, end, parent) and the counts its return value
carries; `uninstall()` puts the originals back.  Spans stay in memory until
the run ends.  A span's self time is its duration minus the time its child
spans cover; spans opened on pool threads while `bench.run_bench` is open are
its children, so its self time is the harness's own work.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time

import numpy as np

import setopt.bench
import setopt.cone
import setopt.direction
import setopt.expr
import setopt.problem
import setopt.setorder
import setopt.solver


# Count hooks: (positional args, return value) -> ((counter, increment), ...)

def _count_analyze(args, out):
    return (("setorder.w", out.w),)


def _count_minmax(args, out):
    return (("direction.terms", len(args[0])), ("direction.unconverged", int(not out[4])))


def _count_bfgs(args, out):
    return (("direction.bfgs.applied", len(out.applied)),
            ("direction.bfgs.skipped", len(out.skipped)))


def _count_armijo(args, out):
    return (("solver.backtracks", out[1]),)


def _count_run_bench(args, out):
    return (("bench.start_seconds",
             sum(r.seconds for recs in out.runs.values() for r in recs)),)


# (owner, attribute, span name, count hook): every wrapped entry point.
LAYERS = (
    (setopt.problem, "eval_F", "problem.eval_F", None),
    (setopt.problem, "eval_jacobians", "problem.eval_jacobians", None),
    (setopt.problem.ScalarizedComponents, "gradients", "problem.gradients", None),
    (setopt.expr, "eval", "expr.eval", None),
    (setopt.expr, "eval_dual", "expr.eval_dual", None),
    (setopt.setorder, "analyze", "setorder.analyze", _count_analyze),
    (setopt.direction, "solve_subproblem", "direction.solve_subproblem", None),
    (setopt.direction, "solve_minmax", "direction.solve_minmax", _count_minmax),
    (setopt.direction, "bfgs_update", "direction.bfgs_update", _count_bfgs),
    (setopt.solver, "armijo_backtrack", "solver.armijo_backtrack", _count_armijo),
    (setopt.solver, "run", "solver.run", None),
    (setopt.cone, "varsigma", "cone.varsigma", None),
    (setopt.bench, "run_bench", "bench.run_bench", _count_run_bench),
)

SPAN_NAMES = tuple(name for _, _, name, _ in LAYERS)


class Tracer:
    def __init__(self):
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []            # (span list, counts dict) per thread
        self._ambient = -1            # open run_bench span, parent of pool-thread roots
        self._originals = []

    def _thread_state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.spans = []
            local.counts = {}
            with self._lock:
                self._threads.append((local.spans, local.counts))
        return local

    def _wrap(self, fn, name_id, count):
        tracer = self
        ambient = SPAN_NAMES[name_id] == "bench.run_bench"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = tracer._thread_state()
            stack = local.stack
            sid = next(tracer._ids)
            parent = stack[-1] if stack else tracer._ambient
            if ambient:
                tracer._ambient = sid
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if ambient:
                    tracer._ambient = -1
                local.spans.append((sid, name_id, t0, t1, parent))
            if count is not None:
                counts = local.counts
                for key, value in count(args, out):
                    counts[key] = counts.get(key, 0) + value
            return out

        return wrapper

    def install(self):
        for name_id, (owner, attr, _, count) in enumerate(LAYERS):
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name_id, count))

    def uninstall(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def spans(self) -> dict:
        """All spans as arrays: id, name index, start, end, parent (-1: root)."""
        rows = [row for spans, _ in self._threads for row in spans]
        arr = np.asarray(rows, dtype=float).reshape(-1, 5)
        order = np.argsort(arr[:, 0], kind="stable")
        arr = arr[order]
        return {"id": arr[:, 0].astype(np.int64), "name": arr[:, 1].astype(np.int64),
                "start": arr[:, 2], "end": arr[:, 3], "parent": arr[:, 4].astype(np.int64)}

    def counts(self) -> dict:
        total = {}
        for _, counts in self._threads:
            for key, value in counts.items():
                total[key] = total.get(key, 0) + value
        return total


def self_times(spans: dict) -> np.ndarray:
    """Per-span self time: duration minus the union of its children's intervals.

    Children on the parent's own thread never overlap, so their durations
    add; only run_bench's pool-thread children need an interval union.
    """
    ids, parent = spans["id"], spans["parent"]
    start, end = spans["start"], spans["end"]
    dur = end - start
    n = len(ids)
    if n == 0:
        return dur
    pos = np.searchsorted(ids, parent)
    has_parent = parent >= 0
    covered = np.bincount(pos[has_parent], weights=dur[has_parent], minlength=n)
    run_bench_id = SPAN_NAMES.index("bench.run_bench")
    for i in np.flatnonzero(spans["name"] == run_bench_id):
        kids = np.flatnonzero(parent == ids[i])
        covered[i] = _union_length(start[kids], end[kids])
    return dur - covered


def _union_length(starts, ends) -> float:
    total, reach = 0.0, -np.inf
    for s, e in sorted(zip(starts.tolist(), ends.tolist())):
        if e > reach:
            total += e - max(s, reach)
            reach = e
    return total
