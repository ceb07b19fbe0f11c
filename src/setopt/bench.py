"""Multi-start benchmark harness and file artifacts (trace CSV, stats JSON).

Start points are sampled with a generator seeded by (seed, start index), so
the sequence of starts is a pure function of the seed and never depends on
the worker count.  The stats JSON contains only deterministic quantities
(iteration statistics, status counts, configuration echo); wall-clock timing
goes to a separate informational file.

With jobs > 1 the starts are solved in forked worker processes.  A
ProblemSpec holds closures and cannot be pickled, so the batch reaches the
workers by fork; only (method, start index) tasks and RunRecords are sent.
"""

from __future__ import annotations

import collections
import csv
import dataclasses
import json
import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from . import solver as solver_mod
from .problem import ProblemSpec
from .solver import CONVERGED, MAX_ITERATIONS, IterateTrace, SolverConfig

FORMAT_VERSION = "setopt/1"

TRACE_HEADER_FIXED = ["k", "u_norm", "phi", "t", "q", "varsigma", "gap", "skips", "millis"]

METHOD_KEYS = {"qnm": "quasi_newton", "sd": "steepest_descent"}


# --- artifact writers ------------------------------------------------------

def trace_header(n: int) -> list:
    return ["k"] + [f"x{j}" for j in range(1, n + 1)] + TRACE_HEADER_FIXED[1:]


def write_trace_csv(trace: IterateTrace, path: str) -> None:
    """One row per iteration; floats printed with shortest round-trip repr."""
    n = trace.records[0].x.shape[0] if trace.records else 0
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(trace_header(n))
        for r in trace.records:
            row = [r.k] + [repr(float(v)) for v in r.x] + [
                repr(r.u_norm), repr(r.phi), repr(r.t), r.backtracks,
                repr(r.varsigma), repr(r.gap), r.bfgs_skips, repr(r.millis)]
            wr.writerow(row)


def read_trace_csv(path: str):
    """Parse a trace CSV back into a list of dicts (numeric fields exact)."""
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        header = next(rd)
        out = []
        for row in rd:
            rec = {}
            for key, cell in zip(header, row):
                rec[key] = int(cell) if key in ("k", "q", "skips") else float(cell)
            out.append(rec)
    return out


def write_solve_summary(trace: IterateTrace, cfg: SolverConfig, path: str) -> None:
    summary = {
        "format": FORMAT_VERSION,
        "problem": trace.problem,
        "method": trace.method,
        "status": trace.status,
        "message": trace.message,
        "iterations": trace.iterations,
        "x_final": [float(v) for v in trace.x_final],
        "u_norm_final": trace.records[-1].u_norm if trace.records else None,
        "varsigma_final": trace.records[-1].varsigma if trace.records else None,
        "config": _config_echo(cfg),
    }
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _config_echo(cfg: SolverConfig) -> dict:
    return {
        "beta": cfg.beta, "nu": cfg.nu, "eps_stop": cfg.eps_stop,
        "max_iter": cfg.max_iter, "max_backtracks": cfg.max_backtracks,
        "method": cfg.method, "seed": cfg.seed,
    }


def write_plot_data(trace: IterateTrace, image_path: str, decision_path: str) -> None:
    """Per-iteration image points (k, i, y1..ym) and decision iterates."""
    m = None
    with open(image_path, "w", newline="") as fh:
        wr = csv.writer(fh)
        for r in trace.records:
            if r.images is None:
                continue
            if m is None:
                m = r.images.shape[1]
                wr.writerow(["k", "i"] + [f"y{j}" for j in range(1, m + 1)])
            for i, y in enumerate(r.images, start=1):
                wr.writerow([r.k, i] + [repr(float(v)) for v in y])
    n = trace.records[0].x.shape[0] if trace.records else 0
    with open(decision_path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["k"] + [f"x{j}" for j in range(1, n + 1)])
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


def _mode_int(values) -> int:
    counts = collections.Counter(values)
    top = max(counts.values())
    return min(v for v, cnt in counts.items() if cnt == top)


def iteration_stats(counts) -> dict:
    counts = list(counts)
    return {
        "min": min(counts),
        "max": max(counts),
        "mean": statistics.fmean(counts),
        "median": statistics.median(counts),
        "mode": _mode_int(counts),
        "sd": statistics.pstdev(counts),
    }


def time_stats(seconds) -> dict:
    seconds = list(seconds)
    bins = [int(math.floor(s)) for s in seconds]
    return {
        "min": min(seconds),
        "max": max(seconds),
        "mean": statistics.fmean(seconds),
        "median": statistics.median(seconds),
        "mode_ceil": _mode_int(bins) + 1,
        "sd": statistics.pstdev(seconds),
    }


def _status_counts(records) -> dict:
    counts = collections.Counter(r.status for r in records)
    return {k: counts[k] for k in sorted(counts)}


_job = None   # (ps, x0s, cfg, seed): a pool worker's batch, set by `_adopt`


def _adopt(*job):
    global _job
    _job = job


def _solve_one(method_key: str, k: int, job=None) -> RunRecord:
    """Solve start k of the batch (this worker's batch when job is None)."""
    ps, x0s, cfg, seed = job or _job
    run_cfg = dataclasses.replace(cfg, method=METHOD_KEYS[method_key], seed=seed)
    tick = time.perf_counter()
    trace = solver_mod.run(ps, x0s[k], run_cfg)
    secs = time.perf_counter() - tick
    return RunRecord(start_index=k, x0=tuple(float(v) for v in x0s[k]),
                     status=trace.status, iterations=trace.iterations, seconds=secs)


def _forked_pool(workers: int, job):
    """A pool of `workers` forked processes that adopt `job`; None without fork."""
    # Imported here: a serial run need not pay their ~20 ms of import.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_adopt, initargs=job)


def run_bench(ps: ProblemSpec, starts: int, methods, seed: int,
              cfg: SolverConfig, jobs: int = 1, box=None) -> BenchResult:
    """Run every method from the same sampled starts; fold in index order.

    With jobs > 1, up to `jobs` forked worker processes share the starts of
    all methods; without the `fork` start method the starts run in-process.
    """
    x0s = [sample_start(ps, seed, k, box) for k in range(starts)]
    job = (ps, x0s, cfg, seed)
    tasks = [(m, k) for m in methods for k in range(starts)]
    workers = min(jobs, len(tasks))
    pool = _forked_pool(workers, job) if workers > 1 else None
    if pool is None:
        recs = [_solve_one(m, k, job) for m, k in tasks]
    else:
        with pool:
            recs = list(pool.map(_solve_one, *zip(*tasks)))
    result = BenchResult(problem=ps.name, starts=starts, seed=seed)
    for j, method_key in enumerate(methods):
        result.runs[method_key] = recs[j * starts:(j + 1) * starts]
    return result


def stats_payload(result: BenchResult, cfg: SolverConfig) -> dict:
    """Deterministic statistics: identical bytes for identical (seed, config)."""
    per_method = {}
    for method_key, recs in result.runs.items():
        kept = [r.iterations for r in recs
                if r.status in (CONVERGED, MAX_ITERATIONS)]
        per_method[method_key] = {
            "iterations": iteration_stats(kept) if kept else None,
            "statuses": _status_counts(recs),
            "runs_in_stats": len(kept),
        }
    echo = _config_echo(cfg)
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
        kept = [r.seconds for r in recs
                if r.status in (CONVERGED, MAX_ITERATIONS)]
        per_method[method_key] = time_stats(kept) if kept else None
    return {"format": FORMAT_VERSION, "problem": result.problem,
            "seconds": per_method}


def write_stats_json(result: BenchResult, cfg: SolverConfig, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(stats_payload(result, cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_timing_json(result: BenchResult, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(timing_payload(result), fh, indent=2, sort_keys=True)
        fh.write("\n")


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
        kept_it = [r.iterations for r in recs
                   if r.status in (CONVERGED, MAX_ITERATIONS)]
        kept_s = [r.seconds for r in recs
                  if r.status in (CONVERGED, MAX_ITERATIONS)]
        if not kept_it:
            lines.append(f"{method_key:<8}  (no successful runs)")
            continue
        it = iteration_stats(kept_it)
        ts = time_stats(kept_s)
        lines.append(f"{method_key:<8}{'iter':<6}{it['min']:>8}{it['max']:>8}"
                     f"{it['mean']:>9.2f}{it['median']:>9.1f}{it['mode']:>7}{it['sd']:>9.2f}")
        lines.append(f"{'':<8}{'sec':<6}{ts['min']:>8.3f}{ts['max']:>8.3f}"
                     f"{ts['mean']:>9.3f}{ts['median']:>9.3f}{ts['mode_ceil']:>7}{ts['sd']:>9.3f}")
        counts = _status_counts(recs)
        lines.append(f"{'':<8}statuses: " + ", ".join(f"{k}={v}" for k, v in counts.items()))
    return "\n".join(lines) + "\n"
