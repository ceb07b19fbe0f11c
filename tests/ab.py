"""In-process paired A/B: the working tree against a git revision, layer by layer.

    python tests/ab.py <rev> [--rounds N] [--starts K]
    python tests/ab.py --smoke

Unpacks `git archive <rev> src` into a temporary directory and loads it and
the working tree's src/setopt side by side in one process, as the packages
`ab_base` and `ab_head`, with BLAS pinned to one thread.  Each side loads
the seven builtins' problem files with its own problem.load, which generates
their evaluators.  The working tree's solver.run, from K starts per method
on the seven builtins and on perfbench's large_p_spec(200), captures the
inputs of every problem.eval_F, problem.eval_jacobians, setorder.analyze,
direction.solve_subproblem, direction.solve_minmax, solver.armijo_backtrack
and direction.bfgs_update call; eval_F's include the Armijo trials.  Each
side then replays the captured calls, layer by layer, and the whole starts,
on its own types.  bfgs_update writes into its store, so each of its calls first copies
the captured matrices into a store of its own, inside the timed call, and
returns the report with that store.  Within a round the two sides take turns
call by call, the side that goes first swaps from round to round, and the
garbage collector is off while a layer is timed.  The second caller of a
pair runs warmer, by several percent, so rounds come in pairs, one with
each side first, and a ratio is taken over a pair.

In the first round every call's outputs are compared bit for bit on both
sides (IterateRecord.millis aside; a HessianStore by n, p, Q and its
matrices; a loaded problem by the bytes of its F and J at its captured
starts).  Per layer the script prints the calls, each side's median time per
call, and the median over the round pairs of the head/base time ratio with a
bootstrap 95% interval of that median (paired runs after Kalibera & Jones
2013).  After the table it names, for each layer whose outputs differ, the
first call and field that differ and how many calls differ, and then exits 1.

A revision whose problem.builtin_file reads the package named "setopt"
resolves it to the working tree's src, so both sides read the same problem
files.  --smoke loads the working tree under both names, needs no git and
runs one start per method and problem for two round pairs: it checks the
harness, not a change.
"""

import os
import sys

if __name__ == "__main__":  # before numpy loads its BLAS
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import statistics  # noqa: E402
import struct  # noqa: E402
import subprocess  # noqa: E402
import tarfile  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import large_p_spec  # noqa: E402

LAYERS = ("problem.load", "problem.eval_F", "problem.eval_jacobians", "setorder.analyze",
          "direction.solve_subproblem", "direction.solve_minmax", "solver.armijo_backtrack",
          "direction.bfgs_update", "solver.run")
BUILTINS = ("ex1", "ex2", "ex3", "ex4", "ex5", "ex6", "ex7")
METHODS = ("quasi_newton", "steepest_descent")
SEED = 5
RESAMPLES = 10000


def load_package(src, name):
    """Import the setopt package under the directory src as `name`, submodules included."""
    root = Path(src) / "setopt"
    spec = importlib.util.spec_from_file_location(name, root / "__init__.py",
                                                  submodule_search_locations=[str(root)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def extract(rev, into):
    """Unpack `git archive <rev> src` under the directory into."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                         check=True, capture_output=True).stdout
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, **safe)


def problems(side):
    """The builtins and large_p_spec(200), each on the side's own types."""
    specs = {name: side.problem.builtin(name) for name in BUILTINS}
    lp = large_p_spec(200)
    specs["large-p"] = side.problem.ProblemSpec(
        lp.name, lp.n, lp.m, lp.p, side.cone.validate(lp.cone.A, lp.cone.e),
        lp.sample_box, lp.values_fn, lp.jacobians_fn)
    return specs


def capture(head, specs, starts):
    """Run head's solver from each start, recording every layer call's inputs as plain data."""
    calls = {layer: [] for layer in LAYERS}
    problem, setorder, direction, solver = head.problem, head.setorder, head.direction, head.solver
    originals = (problem.eval_F, problem.eval_jacobians, setorder.analyze,
                 direction.solve_subproblem, direction.solve_minmax, solver.armijo_backtrack,
                 direction.bfgs_update)
    (eval_F, eval_jacobians, analyze, solve_subproblem, solve_minmax, armijo_backtrack,
     bfgs_update) = originals
    calls["problem.load"] = [(name, head.problem.builtin_file(name)) for name in BUILTINS]
    run = None  # (problem, method) of the start in progress

    def eval_F_(ps, x):
        calls["problem.eval_F"].append((run[0], np.array(x)))
        return eval_F(ps, x)

    def eval_jacobians_(ps, x):
        calls["problem.eval_jacobians"].append((run[0], np.array(x)))
        return eval_jacobians(ps, x)

    def analyze_(c, F):
        calls["setorder.analyze"].append((run[0], np.array(F)))
        return analyze(c, F)

    def solve_subproblem_(grads, store, ms):
        matrices = None if store is None else store.matrices.copy()
        calls["direction.solve_subproblem"].append(
            (run[0], grads.copy(), matrices, (ms.minimal_indices, ms.classes, ms.w, ms.varsigma)))
        return solve_subproblem(grads, store, ms)

    def solve_minmax_(gs, Hs):
        calls["direction.solve_minmax"].append((run[0], np.array(gs), np.array(Hs)))
        return solve_minmax(gs, Hs)

    def armijo_backtrack_(ps, x, a, u, F, phi, cfg):
        calls["solver.armijo_backtrack"].append((*run, np.array(x), a, np.array(u), F.copy(), phi))
        return armijo_backtrack(ps, x, a, u, F, phi, cfg)

    def bfgs_update_(store, s, y_all):
        calls["direction.bfgs_update"].append(
            (run[0], store.matrices.copy(), np.array(s), np.array(y_all)))
        return bfgs_update(store, s, y_all)

    def patch(fns):
        (problem.eval_F, problem.eval_jacobians, setorder.analyze, direction.solve_subproblem,
         direction.solve_minmax, solver.armijo_backtrack, direction.bfgs_update) = fns

    patch((eval_F_, eval_jacobians_, analyze_, solve_subproblem_, solve_minmax_,
           armijo_backtrack_, bfgs_update_))
    try:
        for name, ps in specs.items():
            for method in METHODS:
                for k in range(starts):
                    run = name, method
                    x0 = head.bench.sample_start(ps, SEED, k)
                    calls["solver.run"].append((name, method, x0))
                    solver.run(ps, x0, solver.SolverConfig(method=method))
    finally:
        patch(originals)
    return calls


def replays(side, calls):
    """Per layer, the side's function and its argument tuples, built on the side's own types."""
    specs = problems(side)
    cfg = {method: side.solver.SolverConfig(method=method) for method in METHODS}

    def store(name, matrices):
        if matrices is None:
            return None
        ps = specs[name]
        s = side.direction.HessianStore(ps.n, ps.p, ps.cone.Q)
        s.matrices[...] = matrices
        return s

    def bfgs_update(name, matrices, s, y_all):
        """bfgs_update of a fresh copy of the captured store: the report and the store."""
        fresh = store(name, matrices)
        return side.direction.bfgs_update(fresh, s, y_all), fresh

    return {
        "problem.load": (side.problem.load, [(path,) for _, path in calls["problem.load"]]),
        "problem.eval_F": (side.problem.eval_F, [
            (specs[name], x) for name, x in calls["problem.eval_F"]]),
        "problem.eval_jacobians": (side.problem.eval_jacobians, [
            (specs[name], x) for name, x in calls["problem.eval_jacobians"]]),
        "setorder.analyze": (side.setorder.analyze, [
            (specs[name].cone, F) for name, F in calls["setorder.analyze"]]),
        "direction.solve_subproblem": (side.direction.solve_subproblem, [
            (grads, store(name, matrices), side.setorder.MinimalStructure(*ms))
            for name, grads, matrices, ms in calls["direction.solve_subproblem"]]),
        "direction.solve_minmax": (side.direction.solve_minmax, [
            (gs, Hs) for _, gs, Hs in calls["direction.solve_minmax"]]),
        "direction.bfgs_update": (bfgs_update, calls["direction.bfgs_update"]),
        "solver.armijo_backtrack": (side.solver.armijo_backtrack, [
            (specs[name], x, a, u, F, phi, cfg[method])
            for name, method, x, a, u, F, phi in calls["solver.armijo_backtrack"]]),
        "solver.run": (side.solver.run, [
            (specs[name], x0, cfg[method]) for name, method, x0 in calls["solver.run"]]),
    }


def play(first, second):
    """Each side's seconds and outputs over one layer's calls, the two sides called in
    turn, call by call, with the garbage collector off; a raised error is an output."""
    seconds, outputs = [0.0, 0.0], ([], [])
    gc.collect()
    gc.disable()
    try:
        for pair in zip(first[1], second[1]):
            for s, fn, args in ((0, first[0], pair[0]), (1, second[0], pair[1])):
                tick = time.perf_counter()
                try:
                    out = fn(*args)
                except Exception as exc:  # noqa: BLE001 - compared like a result
                    out = exc
                seconds[s] += time.perf_counter() - tick
                outputs[s].append(out)
    finally:
        gc.enable()
    return seconds, outputs


def attempt(fn, *args):
    """fn(*args), or the error it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared like a result
        return exc


def evaluations(calls, specs):
    """problem.load's outputs as what they compute: each loaded spec's F and J
    at its problem's captured starts (its functions are new objects on each side)."""
    starts = collections.defaultdict(list)
    for name, method, x0 in calls["solver.run"]:
        if method == METHODS[0]:    # the starts are the same for each method
            starts[name].append(x0)
    return [ps if isinstance(ps, BaseException) else
            [(attempt(ps.values_fn, x), attempt(ps.jacobians_fn, x)) for x in starts[name]]
            for (name, _), ps in zip(calls["problem.load"], specs)]


def interval(ratios):
    """A percentile bootstrap 95% interval of the median of the ratios, from a fixed seed."""
    rng = np.random.default_rng(0)
    medians = np.median(rng.choice(ratios, size=(RESAMPLES, len(ratios))), axis=1)
    low, high = np.quantile(medians, [0.025, 0.975])
    return float(low), float(high)


def row(layer, calls_n, base, head):
    """A layer's line of the table from each side's seconds per round: a round and the
    next, in the other order, make a pair, whose ratio cancels the gain of going second."""
    ratios = [(h0 + h1) / (b0 + b1)
              for b0, b1, h0, h1 in zip(base[::2], base[1::2], head[::2], head[1::2])]
    low, high = interval(ratios)
    return (f"{layer:28} {calls_n:6d} {statistics.median(base) / calls_n * 1e6:9.1f} "
            f"{statistics.median(head) / calls_n * 1e6:9.1f}  "
            f"{statistics.median(ratios):.3f} [{low:.3f}, {high:.3f}]")


def canon(value):
    """Every bit of an output, as nested tuples and dicts; IterateRecord.millis is a timing."""
    if isinstance(value, BaseException):
        return ("raises", type(value).__name__, str(value))
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, np.ascontiguousarray(value).tobytes())
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    if isinstance(value, (tuple, list)):
        return tuple(canon(v) for v in value)
    if dataclasses.is_dataclass(value):
        return {f.name: canon(getattr(value, f.name))
                for f in dataclasses.fields(value) if f.name != "millis"}
    if hasattr(value, "matrices"):  # a HessianStore, whatever else a revision keeps on it
        return {name: canon(getattr(value, name)) for name in ("n", "p", "Q", "matrices")}
    return value


def difference(a, b, path=""):
    """The path of the first place where two canon values differ, or None."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        parts = ((f"{path}.{k}", a[k], b[k]) for k in a)
    elif (isinstance(a, tuple) and isinstance(b, tuple) and len(a) == len(b)
          and a[:1] not in (("array",), ("float",), ("raises",))):
        parts = ((f"{path}[{i}]", x, y) for i, (x, y) in enumerate(zip(a, b)))
    else:
        return None if a == b else path or "."
    return next((d for p, x, y in parts if (d := difference(x, y, p)) is not None), None)


def compare(layer, problems, base_out, head_out):
    """None if every call of the layer has equal outputs on both sides; else a report
    naming how many calls differ, the first of them, its problem and its first field."""
    differ = [(k, where) for k, (a, b) in enumerate(zip(base_out, head_out))
              if (where := difference(canon(a), canon(b))) is not None]
    if not differ:
        return None
    k, where = differ[0]
    return (f"{layer}: {len(differ)} of {len(base_out)} calls differ; the first, call {k} "
            f"({problems[k]}), at output{where}:\n  base {base_out[k]!r}\n  head {head_out[k]!r}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", nargs="?", help="git revision of the base side")
    parser.add_argument("--rounds", type=int, default=15,
                        help="pairs of rounds, one with each side first")
    parser.add_argument("--starts", type=int, default=3, help="starts per method and problem")
    parser.add_argument("--smoke", action="store_true",
                        help="the working tree against itself: 2 round pairs of 1 start")
    args = parser.parse_args(argv)
    if args.smoke == (args.rev is not None):
        parser.error("give a revision or --smoke")
    rounds, starts = (2, 1) if args.smoke else (args.rounds, args.starts)
    with tempfile.TemporaryDirectory() as tmp:
        if args.smoke:
            base_src = ROOT / "src"
        else:
            extract(args.rev, tmp)
            base_src = Path(tmp) / "src"
        sides = {"base": load_package(base_src, "ab_base"),
                 "head": load_package(ROOT / "src", "ab_head")}
        calls = capture(sides["head"], problems(sides["head"]), starts)
        plays = {side: replays(package, calls) for side, package in sides.items()}

    times = {layer: {"base": [], "head": []} for layer in LAYERS}
    reports = []
    for r in range(2 * rounds):
        order = ("base", "head") if r % 2 == 0 else ("head", "base")
        for layer in LAYERS:
            seconds, outputs = play(*(plays[side][layer] for side in order))
            for side, t in zip(order, seconds):
                times[layer][side].append(t)
            if r == 0:  # base went first
                if layer == "problem.load":
                    outputs = [evaluations(calls, specs) for specs in outputs]
                report = compare(layer, [call[0] for call in calls[layer]], *outputs)
                if report is not None:
                    reports.append(report)

    print(f"base {'working tree' if args.smoke else args.rev}, head working tree; "
          f"{rounds} round pairs, {starts} starts per method and problem; "
          + (f"outputs differ in {len(reports)} layers" if reports
             else "outputs equal bit for bit"))
    print(f"{'layer':28} {'calls':>6} {'base us':>9} {'head us':>9}  head/base [95% interval]")
    for layer in LAYERS:
        print(row(layer, len(plays["head"][layer][1]), times[layer]["base"], times[layer]["head"]))
    if reports:
        sys.exit("\n".join(reports))


if __name__ == "__main__":
    main()
