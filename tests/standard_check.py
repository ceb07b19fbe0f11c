"""The standard check: fixed-seed runs whose statuses and iteration counts a
change must keep, and a digest of every bit of their traces.

Runs the seven builtins, their hand-coded references from `builtins_ref.py`,
`large_p_spec(200)` from `perfbench/workloads.py` and `ex3_n3.prob`, an n = 3
lift of ex3 for the inner solve at n >= 3, both methods, from the
15 starts `bench.sample_start(ps, s, k)` for each seed s in 3, 5 and 7, at the
default `SolverConfig`.  Per (problem, method) it prints two lines:

    <problem> <method> counts <status initial><iterations> per start
    <problem> <method> digest <sha256 of every trace's bits>

The count lines are what the ROADMAP's re-base protocol compares between two
commits; the digests show whether any bit of a trace moved.  Run it from the
repository root as

    python tests/standard_check.py > check.txt

It is not a test module, so pytest does not collect it.
"""

import dataclasses
import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

from builtins_ref import builtin_ref  # noqa: E402
from setopt import bench, problem, solver  # noqa: E402
from workloads import large_p_spec  # noqa: E402

SEEDS = (3, 5, 7)
STARTS = 15
METHODS = (("qnm", "quasi_newton"), ("sd", "steepest_descent"))


def problems():
    for name in problem.BUILTIN_NAMES:
        yield name, problem.builtin(name)
    for name in problem.BUILTIN_NAMES:
        yield f"{name}-ref", builtin_ref(name)
    yield "large-p", large_p_spec(200)
    yield "ex3-n3", problem.load(str(ROOT / "tests" / "ex3_n3.prob"))


def _feed(h, value):
    """Every bit of a field: arrays by dtype, shape and bytes, the rest by repr."""
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    else:
        h.update(repr(value).encode())
    h.update(b"|")


def digest(h, trace):
    for value in (trace.status, trace.message, trace.x_final):
        _feed(h, value)
    for rec in trace.records:
        for f in dataclasses.fields(rec):
            if f.name != "millis":
                _feed(h, getattr(rec, f.name))
    if trace.store is not None:
        for value in (trace.store.matrices, trace.store.applied, trace.store.skipped):
            _feed(h, value)


def main():
    runs = iterations = 0
    for name, ps in problems():
        for key, method in METHODS:
            cfg = solver.SolverConfig(method=method)
            counts, h = [], hashlib.sha256()
            for seed in SEEDS:
                for k in range(STARTS):
                    trace = solver.run(ps, bench.sample_start(ps, seed, k), cfg)
                    counts.append(f"{trace.status[0]}{trace.iterations}")
                    digest(h, trace)
                    runs += 1
                    iterations += trace.iterations
            print(f"{name} {key} counts {' '.join(counts)}")
            print(f"{name} {key} digest {h.hexdigest()}", flush=True)
    print(f"total {runs} runs {iterations} iterations")


if __name__ == "__main__":
    main()
