"""The standard check: fixed-seed runs whose statuses and iteration counts a
change must keep, and a digest of every bit of their traces.

Runs the seven builtins, their hand-coded references from `builtins_ref.py`,
`large_p_spec(200)` from `perfbench/workloads.py`, `ex3_n3.prob`, an n = 3
lift of ex3 for the inner solve at n >= 3, `ex6_p8.prob`, ex6 at p = 8, whose
partition set holds 4 selectors, and `selector_moves.prob`, a family whose
selector moves between iterates, both methods, from the 15 starts
`bench.sample_start(ps, s, k)` for each seed s in 3, 5 and 7, at the default
`SolverConfig`.  Per (problem, method) it prints three lines:

    <problem> <method> counts <status initial><iterations> per start
    <problem> <method> evals F <calls> J <calls> backtracks <sum>
    <problem> <method> digest <sha256 of every trace's bits>

The evals line counts the calls of the problem's values and Jacobian
functions, wrapped through `dataclasses.replace`, and sums the records'
backtracks.

After a builtin's lines comes one more,

    <builtin> stats <sha256 at jobs=1> <sha256 at jobs=2>

each the digest of the sorted JSON of `bench.stats_payload` for 20 starts of
both methods at seed 5: two equal hashes say that `bench --jobs` writes the
same `*_stats.json` bytes as a serial run.

Before the total comes one line for the code generator,

    expr <families> values <n> jacobians <n> errors <n> <sha256>

over families of 1 to 3 expressions drawn from the grammar of
`test_expr.py` by a seeded `random.Random`, for p = 1..6 and n = 3, each
generated by `expr.generate` and evaluated at two points: the counts of
value and Jacobian calls that returned and of DomainErrors, and the digest
of every returned array's bytes and every error's (index, line, column,
message).

Then comes one line for the inner solve,

    faces <n>:<size> <steps> ...

the calls of `direction._face_step` per (n, face size) over the runs of the
counts lines: face steps of 2 terms at n <= 2 take the closed form, and all
others numpy's eigh.  It is left out of `standard_counts.txt`.

After the total come the wide groups, `rosen5.prob` and `rosen10.prob`,
extended Rosenbrock families at n = 5 and 10 on which the two methods end
differently.  They run from the first 5 of each seed's starts, which keeps
the count pin fast (`sd` runs all 100 iterations there), and print the same
three lines per (problem, method), then their own faces and total lines,

    wide faces <n>:<size> <steps> ...
    wide total <runs> runs <iterations> iterations

so that the output of the groups above stays as it was when they were fixed.

The counts and evals lines are what the ROADMAP's re-base protocol compares
between two commits; the digests show whether any bit of a trace moved.  The
counts and evals lines, and the expr line without its digest, are committed
as `standard_counts.txt`, which `test_standard_counts.py` regenerates and
compares; a change that moves a count, or what the code generator returns
or raises, updates that file.
Run it from the repository root as

    python tests/standard_check.py > check.txt

and rewrite the committed counts with

    grep -E ' (counts|evals) |^expr ' check.txt | sed -E 's/ [0-9a-f]{64}$//' > tests/standard_counts.txt

It is not a test module, so pytest does not collect it.
"""

import collections
import dataclasses
import hashlib
import json
import random
import sys
from pathlib import Path
from unittest import mock

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

from builtins_ref import builtin_ref  # noqa: E402
from setopt import bench, direction, expr, problem, solver  # noqa: E402
from setopt.errors import DomainError  # noqa: E402
from workloads import large_p_spec  # noqa: E402

SEEDS = (3, 5, 7)
STARTS = 15
WIDE_STARTS = 5
METHODS = (("qnm", "quasi_newton"), ("sd", "steepest_descent"))
EXPR_FAMILIES = 1000
EXPR_POINTS = 2


def problems():
    for name in problem.BUILTIN_NAMES:
        yield name, problem.builtin(name)
    for name in problem.BUILTIN_NAMES:
        yield f"{name}-ref", builtin_ref(name)
    yield "large-p", large_p_spec(200)
    yield "ex3-n3", problem.load(str(ROOT / "tests" / "ex3_n3.prob"))
    yield "ex6-p8", problem.load(str(ROOT / "tests" / "ex6_p8.prob"))
    yield "selector-moves", problem.load(str(ROOT / "tests" / "selector_moves.prob"))


def wide_problems():
    for name in ("rosen5", "rosen10"):
        yield name, problem.load(str(ROOT / "tests" / f"{name}.prob"))


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
        _feed(h, trace.store.matrices)


def stats_hash(ps, jobs):
    cfg = solver.SolverConfig()
    payload = bench.stats_payload(bench.run_bench(ps, 20, ["qnm", "sd"], 5, cfg, jobs=jobs), cfg)
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


# test_expr.py's grammar: at most 10 leaves, and 4 in an x-free subtree
LEAVES = ("x1", "x2", "x3", "i", "pi", "0", "1", "2", "3", "0.5", "2.5")
X_FREE_LEAVES = ("i", "1", "2", "3", "0.5", "10")
CALLS = ("sin", "cos", "tan", "exp", "log", "sqrt", "abs")


def _split(rng, draw, leaves):
    left = rng.randint(1, leaves - 1)
    return draw(rng, left), draw(rng, leaves - left)


def x_free(rng, leaves=4):
    if leaves <= 1 or rng.random() < 0.4:
        return rng.choice(X_FREE_LEAVES)
    a, b = _split(rng, x_free, leaves)
    return f"({a} {rng.choice('+-*/^')} {b})"


def expression(rng, leaves=10):
    if leaves <= 1 or rng.random() < 0.3:
        return rng.choice(LEAVES)
    kind = rng.randrange(6)
    if kind == 0:
        a, b = _split(rng, expression, leaves)
        return f"({a} {rng.choice('+-*/^')} {b})"
    if kind == 1:
        return f"(-{expression(rng, leaves - 1)})"
    if kind == 2:
        return f"{rng.choice(CALLS)}({expression(rng, leaves - 1)})"
    if kind == 3:
        return "pow({}, {})".format(*_split(rng, expression, leaves))
    if kind == 4:
        return f"floor({x_free(rng)} / 3)"
    return f"mod({x_free(rng)}, {x_free(rng)})"


def expr_line():
    rng = random.Random(2023)
    h = hashlib.sha256()
    counts = {"values": 0, "jacobians": 0, "errors": 0}
    for _ in range(EXPR_FAMILIES):
        m, p = rng.randint(1, 3), rng.randint(1, 6)
        asts = [expr.parse(expression(rng), 3) for _ in range(m)]
        fns = expr.generate(asts, 3, np.arange(1, p + 1))
        for _ in range(EXPR_POINTS):
            x = np.array([rng.choice((0.0, 1.0, -1.0, 0.5)) if rng.random() < 0.5
                          else rng.uniform(-2.0, 2.0) for _ in range(3)])
            for what, fn in zip(("values", "jacobians"), fns):
                try:
                    _feed(h, fn(x))
                    counts[what] += 1
                except DomainError as exc:
                    _feed(h, (exc.index, exc.line, exc.column, str(exc)))
                    counts["errors"] += 1
    return (f"expr {EXPR_FAMILIES} values {counts['values']} jacobians {counts['jacobians']}"
            f" errors {counts['errors']} {h.hexdigest()}")


def group(name, ps, key, method, starts=STARTS):
    """The counts, evals and digest lines, the iteration total and the face steps per
    (n, face size) of one (problem, method)."""
    calls, faces, face_step = {"F": 0, "J": 0}, collections.Counter(), direction._face_step

    def counted_step(S, point):
        faces[len(point[0]), len(S)] += 1
        return face_step(S, point)

    def counted(fn, what):
        def call(x):
            calls[what] += 1
            return fn(x)
        return call

    ps = dataclasses.replace(ps, values_fn=counted(ps.values_fn, "F"),
                             jacobians_fn=counted(ps.jacobians_fn, "J"))
    cfg = solver.SolverConfig(method=method)
    counts, h, iterations, backtracks = [], hashlib.sha256(), 0, 0
    with mock.patch.object(direction, "_face_step", counted_step):
        for seed in SEEDS:
            for k in range(starts):
                trace = solver.run(ps, bench.sample_start(ps, seed, k), cfg)
                counts.append(f"{trace.status[0]}{trace.iterations}")
                digest(h, trace)
                iterations += trace.iterations
                backtracks += sum(r.backtracks for r in trace.records)
    return (f"{name} {key} counts {' '.join(counts)}",
            f"{name} {key} evals F {calls['F']} J {calls['J']} backtracks {backtracks}",
            f"{name} {key} digest {h.hexdigest()}", iterations, faces)


def count_lines():
    """The counts and evals lines, two per (problem, method), as main prints
    them: those of `problems()`, the expr line without its digest, then those
    of `wide_problems()`."""
    def lines(named, starts):
        return [line for name, ps in named for key, method in METHODS
                for line in group(name, ps, key, method, starts)[:2]]

    return (lines(problems(), STARTS) + [expr_line().rsplit(" ", 1)[0]]
            + lines(wide_problems(), WIDE_STARTS))


def print_groups(named, starts):
    """Print each (problem, method)'s three lines, and a builtin's stats line:
    the runs, the iterations and the face steps per (n, face size) of all."""
    runs = iterations = 0
    faces = collections.Counter()
    for name, ps in named:
        for key, method in METHODS:
            counts, evals, digest_line, group_iterations, group_faces = group(
                name, ps, key, method, starts)
            print(counts)
            print(evals)
            print(digest_line, flush=True)
            runs += len(SEEDS) * starts
            iterations += group_iterations
            faces += group_faces
        if name in problem.BUILTIN_NAMES:
            print(f"{name} stats {stats_hash(ps, 1)} {stats_hash(ps, 2)}", flush=True)
    return runs, iterations, faces


def print_totals(prefix, runs, iterations, faces):
    print(prefix + "faces " + " ".join(f"{n}:{size} {faces[n, size]}" for n, size in sorted(faces)))
    print(f"{prefix}total {runs} runs {iterations} iterations", flush=True)


def main():
    totals = print_groups(problems(), STARTS)
    print(expr_line(), flush=True)
    print_totals("", *totals)
    print_totals("wide ", *print_groups(wide_problems(), WIDE_STARTS))


if __name__ == "__main__":
    main()
