"""The four benchmark workloads: problems, start points and timed units.

A workload resolves its problems through the public API (`problem.builtin`,
`problem.load`, `ProblemSpec`), draws its own start points from the workload
seed, and splits its fixed work into units.  A unit is one call into the
program: `solver.run` from one start on the serial workloads, or one
`bench.run_bench` batch on `bench-jobs`.  Running a unit returns one
`StartResult` per start it solved.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

import setopt.bench
import setopt.cone
import setopt.problem
import setopt.solver

NAMES = ("builtin-multistart", "file-multistart", "large-p", "bench-jobs")

METHODS = (("qnm", "quasi_newton"), ("sd", "steepest_descent"))

# The work each workload holds at the nominal run length, sized so that its
# timed section takes about NOMINAL_SECONDS on a 2-core x86 host.  The serial
# workloads draw k*k stratified starts per (problem, method), the *_K values
# being k; bench-jobs runs BENCH_STARTS per (problem, method).
NOMINAL_SECONDS = 15.0
BUILTIN_K = 6
# About half of ex1's starts converge in one iteration and the rest take
# 2-20 (on ex2, 1 or 2-9), so their group medians sit on the edge of the
# one-iteration mode and need more starts than the other problems' do: with
# 18 per method, file-multistart's start_ms_p50 moved by a quartile spread of
# 0.11 from seed to seed.
PROBLEM_K = {"ex1": 8, "ex2": 8}
FILE_PROBLEMS = ("ex1", "ex2", "ex3", "ex4", "ex5")
# Twins that solve only their builtin's starts in every other stratum: they
# cost 90-190 ms per start, the others 1-60 ms.
FILE_HALF = ("ex3", "ex4")
LARGE_P = 200
LARGE_K = 6
BENCH_PROBLEMS = ("ex6", "ex7")
BENCH_STARTS = 80          # per problem and method

# The timed section runs in REPLICATES rounds, each a share of every
# (problem, method) group's starts; throughput pools every round but the
# slowest.  About 2% of ex4 starts (and about 0.2% of ex7 starts) stall the
# direction subproblem at max_inner inner iterations, ~1 s per outer iteration
# instead of ~2 ms.  Every other builtin-multistart run draws such a start,
# and over the whole run it moved throughput by up to 2x.  The median round,
# which ignores such a start as well, moved twice as much as the pooled rate
# from seed to seed on large-p, where each round holds only 18 starts.
REPLICATES = 4

# Every start stops after at most MAX_ITER outer iterations, so a run measures
# per-iteration cost rather than how many of its starts land where the solver
# is slow: on ex6-shaped problems a thin strip of the box takes 30-100
# iterations, and uncapped it moved large-p's iteration total by about 24%
# and builtin-multistart's latency tail by about 18% from seed to seed.
MAX_ITER = 20

SMOKE_LARGE_P = 24
SMOKE_MAX_ITER = 3
SMOKE_K = 1
SMOKE_REPLICATES = 2


@dataclass
class Problem:
    key: str                 # name in the workload's records, e.g. "ex4.prob"
    ps: setopt.problem.ProblemSpec
    starts: list             # x0 arrays per replicate; empty on bench-jobs


@dataclass
class StartResult:
    problem: str
    method: str
    x0: tuple
    status: str
    iterations: int
    seconds: float
    x_final: Optional[np.ndarray]
    u_norm_final: Optional[float]


@dataclass
class Unit:
    problem: Problem
    method: Optional[str]    # None: a run_bench batch over both methods
    start: Optional[np.ndarray]
    count: int               # starts the unit solves
    seed: int = 0            # run_bench's seed for a batch


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def stratified_starts(box: np.ndarray, k: int, seed: int, salt: int) -> list:
    """k**n starts: the box is cut into k equal slices per axis (k*k slices
    on a line) and one point is drawn uniformly inside each cell.

    Every start is uniform in the box; the stratification keeps the run's
    totals from swinging with the seed.  One generator per (seed, salt).
    """
    n = box.shape[0]
    if n == 1:
        cells = [(j,) for j in range(k * k)]
        per_axis = k * k
    elif n == 2:
        cells = [(a, b) for a in range(k) for b in range(k)]
        per_axis = k
    else:
        raise ValueError(f"stratified starts support n <= 2, got n={n}")
    rng = np.random.default_rng([seed, salt])
    lo, hi = box[:, 0], box[:, 1]
    width = (hi - lo) / per_axis
    jitter = rng.uniform(size=(len(cells), n))
    return [lo + width * (np.asarray(cell) + u) for cell, u in zip(cells, jitter)]


def large_p_spec(p: int) -> setopt.problem.ProblemSpec:
    """ex6's functions and cone with p offsets theta_i = 2*pi*(i-1)/p."""
    th = 2.0 * np.pi * np.arange(p) / p
    off1 = 0.25 * np.cos(th) * np.sin(th) ** 2
    off2 = 0.25 * np.cos(th) ** 2 * np.sin(th)
    K = setopt.cone.validate([[2.0, -6.0], [-6.0, 7.0]], [-1.0, -0.5])

    def values(x):
        x1, x2 = x
        e12 = math.exp(x1 + x2)
        return np.column_stack([
            x1 * x1 + math.sin(x1) + x1 * x1 * math.cos(x2) + off1 + e12 + x2 * x2,
            2.0 * x1 * x1 + x2 * x2 * math.cos(x1) + off2 + math.cos(x2) + e12 + 2.0 * x2 * x2,
        ])

    def jacobians(x):
        x1, x2 = x
        e12 = math.exp(x1 + x2)
        J = np.empty((p, 2, 2))
        J[:, 0, 0] = 2.0 * x1 + math.cos(x1) + 2.0 * x1 * math.cos(x2) + e12
        J[:, 0, 1] = -x1 * x1 * math.sin(x2) + e12 + 2.0 * x2
        J[:, 1, 0] = 4.0 * x1 - x2 * x2 * math.sin(x1) + e12
        J[:, 1, 1] = 2.0 * x2 * math.cos(x1) - math.sin(x2) + e12 + 4.0 * x2
        return J

    box = np.asarray([[-math.pi, math.pi], [-math.pi, math.pi]])
    return setopt.problem.ProblemSpec(f"ex6-p{p}", 2, 2, p, K, box, values, jacobians)


def _scaled_k(k: int, scale: float) -> int:
    return max(1, round(k * math.sqrt(scale)))


class Workload:
    """Set-up and units of one named workload at a given run length."""

    def __init__(self, name: str, seed: int, seconds: float, smoke: bool = False):
        if name not in NAMES:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
        self.name = name
        self.seed = seed
        scale = seconds / NOMINAL_SECONDS
        self.cfg = {key: setopt.solver.SolverConfig(
                        method=method, seed=seed, max_iter=SMOKE_MAX_ITER if smoke else MAX_ITER)
                    for key, method in METHODS}
        self.jobs = nproc() if name == "bench-jobs" else 1
        self.bench_starts = 0
        self.replicates = SMOKE_REPLICATES if smoke else REPLICATES

        def builtin_k(name_):
            return SMOKE_K if smoke else _scaled_k(PROBLEM_K.get(name_, BUILTIN_K), scale)

        if name == "builtin-multistart":
            self.problems = [
                self._with_starts(name_, setopt.problem.builtin(name_), builtin_k(name_), salt)
                for salt, name_ in enumerate(setopt.problem.BUILTIN_NAMES)]
        elif name == "file-multistart":
            # Each twin solves its builtin's starts, or those of every other stratum.
            self.problems = [
                self._with_starts(f"{name_}.prob",
                                  setopt.problem.load(setopt.problem.builtin_file(name_)),
                                  builtin_k(name_), salt, checkerboard=name_ in FILE_HALF)
                for salt, name_ in enumerate(FILE_PROBLEMS)]
        elif name == "large-p":
            p = SMOKE_LARGE_P if smoke else LARGE_P
            k = SMOKE_K if smoke else _scaled_k(LARGE_K, scale)
            self.problems = [self._with_starts(f"ex6-p{p}", large_p_spec(p), k, 0)]
        else:
            self.bench_starts = (1 if smoke else
                                 max(1, round(BENCH_STARTS * scale / self.replicates)))
            self.problems = [Problem(name_, setopt.problem.builtin(name_), [])
                             for name_ in BENCH_PROBLEMS]

    def _with_starts(self, key, ps, k, salt, checkerboard=False) -> Problem:
        """Stratified starts dealt into replicates in a seeded random order.

        With `checkerboard`, only the starts of cells whose coordinates sum
        to an even number are kept: half the starts, still spread over the box.
        """
        starts = stratified_starts(ps.sample_box, k, self.seed, salt)
        order = np.random.default_rng([self.seed, salt, 1]).permutation(len(starts))
        if checkerboard:
            per_axis = k * k if ps.n == 1 else k
            order = [j for j in order if (j // per_axis + j % per_axis) % 2 == 0]
        return Problem(key, ps, [[starts[j] for j in order[r::self.replicates]]
                                 for r in range(self.replicates)])

    def rounds(self) -> list:
        """The timed work as rounds of units, in the order it runs:
        replicate, then problem, then method, then start."""
        if self.name == "bench-jobs":
            rounds = [[Unit(prob, None, None, self.bench_starts * len(METHODS),
                            seed=self.seed * self.replicates + r) for prob in self.problems]
                      for r in range(self.replicates)]
        else:
            rounds = [[Unit(prob, key, x0, 1)
                       for prob in self.problems for key, _ in METHODS for x0 in prob.starts[r]]
                      for r in range(self.replicates)]
        return [units for units in rounds if units]

    def units(self) -> list:
        return [u for units in self.rounds() for u in units]

    def warmup_units(self) -> list:
        """One untimed start per (problem, method)."""
        if self.name == "bench-jobs":
            return [Unit(prob, key, setopt.bench.sample_start(prob.ps, self.seed, 0), 1)
                    for prob in self.problems for key, _ in METHODS]
        return [Unit(prob, key, prob.starts[0][0], 1)
                for prob in self.problems for key, _ in METHODS]

    def sizes(self) -> dict:
        starts = {prob.key: 0 for prob in self.problems}
        for u in self.units():
            starts[u.problem.key] += u.count
        return {"starts": starts, "p": {prob.key: prob.ps.p for prob in self.problems},
                "jobs": self.jobs, "replicates": len(self.rounds())}

    def run_unit(self, unit: Unit) -> list:
        """Solve one unit and return its per-start results."""
        if unit.method is not None:
            ps = unit.problem.ps
            tick = time.perf_counter()
            trace = setopt.solver.run(ps, unit.start, self.cfg[unit.method])
            secs = time.perf_counter() - tick
            return [_result(unit.problem.key, unit.method, unit.start, trace, secs)]
        with capture_runs() as runs:
            result = setopt.bench.run_bench(unit.problem.ps, self.bench_starts,
                                            [key for key, _ in METHODS], unit.seed,
                                            self.cfg["qnm"], jobs=self.jobs)
        finals = {(method, x0): trace for method, x0, trace in runs}
        out = []
        for key, method in METHODS:
            for rec in result.runs[key]:
                trace = finals.get((method, rec.x0))
                out.append(StartResult(
                    unit.problem.key, key, rec.x0, rec.status, rec.iterations, rec.seconds,
                    None if trace is None else trace.x_final,
                    None if trace is None else _last_u_norm(trace)))
        return out


def _last_u_norm(trace) -> Optional[float]:
    return trace.records[-1].u_norm if trace.records else None


def _result(key, method, x0, trace, secs) -> StartResult:
    return StartResult(key, method, tuple(float(v) for v in x0), trace.status,
                       trace.iterations, secs, trace.x_final, _last_u_norm(trace))


class capture_runs:
    """Keep what `solver.run` returns while run_bench calls it.

    run_bench reports only status, iterations and seconds per start; the
    output check also needs each final point.  The pass-through costs one
    list append per start.  Starts it does not see (for instance when
    run_bench solves in other processes) are solved again for the check.
    """

    def __enter__(self):
        original = self._original = setopt.solver.run
        runs = self.runs = []

        def run(ps, x0, cfg):
            trace = original(ps, x0, cfg)
            runs.append((cfg.method, tuple(float(v) for v in np.asarray(x0).ravel()), trace))
            return trace

        setopt.solver.run = run
        return self.runs

    def __exit__(self, *exc):
        setopt.solver.run = self._original
        return False
