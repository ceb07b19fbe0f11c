"""Multi-start benchmark harness and file artifacts (trace CSV, stats JSON).

Start points are sampled with a generator seeded by (seed, start index), so
the sequence of starts is a pure function of the seed and never depends on
the worker count.  The stats JSON contains only deterministic quantities
(iteration statistics, status counts, configuration echo); wall-clock timing
goes to a separate informational file.

With jobs > 1 the caller and up to jobs - 1 children forked with os.fork
solve the starts together.  A ProblemSpec holds closures and cannot be
pickled, so the batch reaches the children by fork.  The task queue is one
pipe, written whole before the first fork: one task per token up to
PIPE_BUF / 4 tasks, and runs of consecutive tasks beyond that.  Every process
reads the next token until the pipe is empty; each child sends its RunRecords
back pickled on a pipe of its own, and each record's seconds is timed inside
the process that solved the start.
"""

from __future__ import annotations

import collections
import csv
import dataclasses
import json
import math
import os
import pickle
import select
import signal
import statistics
import struct
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import problem as problem_mod
from . import solver as solver_mod
from .errors import WorkerDied
from .problem import ProblemSpec
from .solver import CONVERGED, MAX_ITERATIONS, IterateTrace, SolverConfig

FORMAT_VERSION = "setopt/1"

METHOD_KEYS = {"qnm": "quasi_newton", "sd": "steepest_descent"}


# --- artifact writers ------------------------------------------------------

# The trace CSV's columns after k and x1..xn: (header, IterateRecord attribute).
TRACE_COLUMNS = (("u_norm", "u_norm"), ("phi", "phi"), ("t", "t"), ("q", "backtracks"),
                 ("varsigma", "varsigma"), ("gap", "gap"), ("skips", "bfgs_skips"),
                 ("millis", "millis"))


def write_json(payload: dict, path: str) -> None:
    """Sorted keys, indent 2 and a final newline; nothing is written if payload fails to encode."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def write_trace_csv(trace: IterateTrace, path: str) -> None:
    """One row per iteration; floats printed with shortest round-trip repr."""
    n = trace.x_final.shape[0]
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["k"] + [f"x{j}" for j in range(1, n + 1)] + [h for h, _ in TRACE_COLUMNS])
        for r in trace.records:
            wr.writerow([r.k] + [repr(float(v)) for v in r.x]
                        + [repr(getattr(r, attr)) for _, attr in TRACE_COLUMNS])


def read_trace_csv(path: str):
    """Parse a trace CSV back into a list of dicts (numeric fields exact).

    A cell of digits only is an int: a float's repr always holds a '.', an 'e',
    'inf' or 'nan'.
    """
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        header = next(rd)
        return [{key: int(cell) if cell.isdecimal() else float(cell)
                 for key, cell in zip(header, row)} for row in rd]


def write_solve_summary(trace: IterateTrace, cfg: SolverConfig, path: str) -> None:
    write_json({
        "format": FORMAT_VERSION,
        "problem": trace.problem,
        "method": trace.method,
        "status": trace.status,
        "message": trace.message,
        "iterations": trace.iterations,
        "x_final": [float(v) for v in trace.x_final],
        "u_norm_final": trace.records[-1].u_norm if trace.records else None,
        "varsigma_final": trace.records[-1].varsigma if trace.records else None,
        "config": dataclasses.asdict(cfg),
    }, path)


def write_plot_data(trace: IterateTrace, ps: ProblemSpec, image_path: str,
                    decision_path: str) -> None:
    """Per-iteration image points (k, i, y1..ym), F evaluated at each recorded
    iterate, and decision iterates."""
    with open(image_path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["k", "i"] + [f"y{j}" for j in range(1, ps.m + 1)])
        for r in trace.records:
            for i, y in enumerate(problem_mod.eval_F(ps, r.x), start=1):
                wr.writerow([r.k, i] + [repr(float(v)) for v in y])
    with open(decision_path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["k"] + [f"x{j}" for j in range(1, ps.n + 1)])
        for r in trace.records:
            wr.writerow([r.k] + [repr(float(v)) for v in r.x])


# --- start sampling --------------------------------------------------------

def sample_start(ps: ProblemSpec, seed: int, index: int, box=None) -> np.ndarray:
    """Uniform draw from the sample box; one generator per (seed, index)."""
    box = ps.sample_box if box is None else np.asarray(box, dtype=float)
    rng = np.random.default_rng([seed, index])
    return rng.uniform(box[:, 0], box[:, 1])


# --- per-run records and statistics ----------------------------------------

@dataclass(frozen=True)
class RunRecord:
    start_index: int
    x0: tuple
    status: str
    iterations: int
    seconds: float


@dataclass
class BenchResult:
    problem: str
    starts: int
    seed: int
    runs: dict = field(default_factory=dict)   # method key -> list[RunRecord]


def _stats(values: list) -> dict:
    return {"min": min(values), "max": max(values), "mean": statistics.fmean(values),
            "median": statistics.median(values), "sd": statistics.pstdev(values)}


def iteration_stats(counts) -> dict:
    counts = list(counts)
    return {**_stats(counts), "mode": min(statistics.multimode(counts))}


def time_stats(seconds) -> dict:
    """mode_ceil is the smallest modal whole second, plus one."""
    seconds = list(seconds)
    return {**_stats(seconds),
            "mode_ceil": min(statistics.multimode(math.floor(s) for s in seconds)) + 1}


def _in_stats(records) -> list:
    """The runs that enter the statistics: converged or out of iterations."""
    return [r for r in records if r.status in (CONVERGED, MAX_ITERATIONS)]


def _status_counts(records) -> dict:
    counts = collections.Counter(r.status for r in records)
    return {k: counts[k] for k in sorted(counts)}


def run_bench(ps: ProblemSpec, starts: int, methods, seed: int,
              cfg: SolverConfig, jobs: int = 1, box=None) -> BenchResult:
    """Run every method from the same sampled starts; fold in index order.

    With jobs > 1 the caller and up to jobs - 1 forked children share the
    starts of all methods; without os.fork the starts run in-process.
    """
    x0s = [sample_start(ps, seed, k, box) for k in range(starts)]
    run_cfgs = [dataclasses.replace(cfg, method=METHOD_KEYS[m], seed=seed) for m in methods]

    def solve(t: int) -> RunRecord:
        """Task t: start t % starts with method t // starts."""
        k = t % starts
        tick = time.perf_counter()
        trace = solver_mod.run(ps, x0s[k], run_cfgs[t // starts])
        secs = time.perf_counter() - tick
        return RunRecord(start_index=k, x0=tuple(float(v) for v in x0s[k]),
                         status=trace.status, iterations=trace.iterations, seconds=secs)

    count = starts * len(methods)
    workers = min(jobs, count)
    if workers > 1 and hasattr(os, "fork"):
        recs = _solve_forked(solve, count, workers)
    else:
        recs = [solve(t) for t in range(count)]
    result = BenchResult(problem=ps.name, starts=starts, seed=seed)
    for j, method_key in enumerate(methods):
        result.runs[method_key] = recs[j * starts:(j + 1) * starts]
    return result


# --- forked solving ----------------------------------------------------------

_TASK = struct.Struct("=I")


def _child(takes, out: int, solve) -> None:
    """A forked child's share: send [(task, result)] or the exception on `out`."""
    try:
        payload = pickle.dumps([(t, solve(t)) for t in takes()])
    except BaseException as exc:    # interrupts too: the caller raises what it gets
        for _ in takes():           # take the rest, so the other processes stop early
            pass
        try:
            payload = pickle.dumps(exc)
            pickle.loads(payload)
        except Exception:
            payload = pickle.dumps(RuntimeError(repr(exc)))
    view = memoryview(payload)
    while view:
        view = view[os.write(out, view):]


def _flush_std_streams() -> None:
    """Flush Python's stdout and stderr buffers, so that a child neither loses
    what it prints nor prints again what the caller had buffered."""
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, ValueError):    # None, or closed
            pass


def _reap(children: dict, pid: int):
    """Read a child's pipe to its end, reap the child, return what it sent."""
    back = children[pid]
    chunks = []
    while chunk := os.read(back, 1 << 16):
        chunks.append(chunk)
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    del children[pid]
    os.close(back)
    if status != 0 or not chunks:
        return WorkerDied(pid, status)
    return pickle.loads(b"".join(chunks))


def _solve_forked(solve, count: int, workers: int) -> list:
    """[solve(t) for t in range(count)], run here and in workers - 1 forked children.

    The whole task queue goes into one pipe before the first fork, in one
    write of at most PIPE_BUF bytes, and its write end is closed.  Each 4-byte
    token names the first of `chunk` consecutive tasks: one task per token up
    to PIPE_BUF / 4 tasks.  Every process reads the next token until end of
    file, so a slow child simply takes fewer.  Each child sends one pickled
    list of (task, result), or its exception, on a pipe of its own and leaves
    by os._exit; the caller places the results by task and reaps every child,
    also when it fails itself.
    """
    chunk = -(-count // (select.PIPE_BUF // _TASK.size))
    firsts = range(0, count, chunk)

    def takes():    # task numbers, token by token, until end of file
        while token := os.read(queue, _TASK.size):
            first = _TASK.unpack(token)[0]
            yield from range(first, min(first + chunk, count))

    children = {}    # pid -> read end of the child's result pipe
    results = [None] * count
    queue, feed = os.pipe()
    _flush_std_streams()
    try:
        with open(feed, "wb", buffering=0) as fh:    # one os.write, then the end is closed
            fh.write(struct.pack(f"={len(firsts)}I", *firsts))
        for _ in range(workers - 1):
            back, out = os.pipe()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    for fd in (back, *children.values()):
                        os.close(fd)
                    _child(takes, out, solve)
                    code = 0
                finally:
                    _flush_std_streams()
                    os._exit(code)
            os.close(out)
            children[pid] = back
        for t in takes():
            results[t] = solve(t)
        sent = [_reap(children, pid) for pid in list(children)]
    finally:
        os.close(queue)
        for pid, back in children.items():    # left only when this process failed
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(back)
    for payload in sent:
        if isinstance(payload, BaseException):
            raise payload
        for t, result in payload:
            results[t] = result
    return results


def stats_payload(result: BenchResult, cfg: SolverConfig) -> dict:
    """Deterministic statistics: identical bytes for identical (seed, config)."""
    per_method = {}
    for method_key, recs in result.runs.items():
        kept = [r.iterations for r in _in_stats(recs)]
        per_method[method_key] = {
            "iterations": iteration_stats(kept) if kept else None,
            "statuses": _status_counts(recs),
            "runs_in_stats": len(kept),
        }
    echo = dataclasses.asdict(cfg)
    echo.pop("method")
    return {
        "format": FORMAT_VERSION,
        "problem": result.problem,
        "starts": result.starts,
        "seed": result.seed,
        "methods": per_method,
        "config": echo,
    }


def timing_payload(result: BenchResult) -> dict:
    """Wall-clock statistics; informational only, machine-dependent."""
    per_method = {}
    for method_key, recs in result.runs.items():
        kept = [r.seconds for r in _in_stats(recs)]
        per_method[method_key] = time_stats(kept) if kept else None
    return {"format": FORMAT_VERSION, "problem": result.problem,
            "seconds": per_method}


def write_raw_csv(result: BenchResult, method_key: str, path: str) -> None:
    recs = result.runs[method_key]
    n = len(recs[0].x0) if recs else 0
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["start_index"] + [f"x0_{j}" for j in range(1, n + 1)]
                    + ["status", "iterations", "seconds"])
        for r in recs:
            wr.writerow([r.start_index] + [repr(v) for v in r.x0]
                        + [r.status, r.iterations, repr(r.seconds)])


def format_table(result: BenchResult) -> str:
    """Plain-text summary table: one block per method."""
    lines = [f"problem {result.problem}  starts {result.starts}  seed {result.seed}",
             f"{'method':<8}{'':<6}{'Min':>8}{'Max':>8}{'Mean':>9}{'Median':>9}{'Mode':>7}{'SD':>9}"]
    for method_key, recs in result.runs.items():
        kept = _in_stats(recs)
        if not kept:
            lines.append(f"{method_key:<8}  (no successful runs)")
            continue
        it = iteration_stats(r.iterations for r in kept)
        ts = time_stats(r.seconds for r in kept)
        lines.append(f"{method_key:<8}{'iter':<6}{it['min']:>8}{it['max']:>8}"
                     f"{it['mean']:>9.2f}{it['median']:>9.1f}{it['mode']:>7}{it['sd']:>9.2f}")
        lines.append(f"{'':<8}{'sec':<6}{ts['min']:>8.3f}{ts['max']:>8.3f}"
                     f"{ts['mean']:>9.3f}{ts['median']:>9.3f}{ts['mode_ceil']:>7}{ts['sd']:>9.3f}")
        counts = _status_counts(recs)
        lines.append(f"{'':<8}statuses: " + ", ".join(f"{k}={v}" for k, v in counts.items()))
    return "\n".join(lines) + "\n"
