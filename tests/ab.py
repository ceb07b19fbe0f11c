"""In-process paired A/B: the working tree against a git revision, layer by layer.

    python tests/ab.py <rev> [--rounds N] [--starts K]
    python tests/ab.py --smoke

Unpacks `git archive <rev> src` into a temporary directory and loads it and
the working tree's src/setopt side by side in one process, as the packages
`ab_base` and `ab_head`, with BLAS pinned to one thread.  The working tree's
solver.run, from K starts per method on the seven builtins and on
perfbench's large_p_spec(200), captures the inputs of every
setorder.analyze, direction.solve_subproblem and solver.armijo_backtrack
call.  Each side then replays the captured calls, layer by layer, and the
whole starts, on its own types.  Within a round the two sides take turns
call by call, the side that goes first swaps from round to round, and the
garbage collector is off while a layer is timed.  The second caller of a
pair runs warmer, by several percent, so rounds come in pairs, one with
each side first, and a ratio is taken over a pair.

In the first round every call's outputs must be equal bit for bit on both
sides (IterateRecord.millis aside); otherwise the script names the first
call and field that differ and exits 1.  Per layer it prints the calls, each
side's median time per call, and the median over the round pairs of the
head/base time ratio with its range (paired runs after Kalibera & Jones 2013).

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

LAYERS = ("setorder.analyze", "direction.solve_subproblem", "solver.armijo_backtrack",
          "solver.run")
BUILTINS = ("ex1", "ex2", "ex3", "ex4", "ex5", "ex6", "ex7")
METHODS = ("quasi_newton", "steepest_descent")
SEED = 5


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
    setorder, direction, solver = head.setorder, head.direction, head.solver
    analyze, solve_subproblem, armijo_backtrack = (
        setorder.analyze, direction.solve_subproblem, solver.armijo_backtrack)
    run = None  # (problem, method) of the start in progress

    def analyze_(c, F):
        calls["setorder.analyze"].append((run[0], np.array(F)))
        return analyze(c, F)

    def solve_subproblem_(grads, store, ms):
        matrices = None if store is None else store.matrices.copy()
        calls["direction.solve_subproblem"].append(
            (run[0], grads.copy(), matrices, (ms.minimal_indices, ms.classes, ms.w, ms.varsigma)))
        return solve_subproblem(grads, store, ms)

    def armijo_backtrack_(ps, x, a, u, F, phi, cfg):
        calls["solver.armijo_backtrack"].append((*run, np.array(x), a, np.array(u), F.copy(), phi))
        return armijo_backtrack(ps, x, a, u, F, phi, cfg)

    setorder.analyze, direction.solve_subproblem, solver.armijo_backtrack = (
        analyze_, solve_subproblem_, armijo_backtrack_)
    try:
        for name, ps in specs.items():
            for method in METHODS:
                for k in range(starts):
                    run = name, method
                    x0 = head.bench.sample_start(ps, SEED, k)
                    calls["solver.run"].append((name, method, x0))
                    solver.run(ps, x0, solver.SolverConfig(method=method))
    finally:
        setorder.analyze, direction.solve_subproblem, solver.armijo_backtrack = (
            analyze, solve_subproblem, armijo_backtrack)
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

    return {
        "setorder.analyze": (side.setorder.analyze, [
            (specs[name].cone, F) for name, F in calls["setorder.analyze"]]),
        "direction.solve_subproblem": (side.direction.solve_subproblem, [
            (grads, store(name, matrices), side.setorder.MinimalStructure(*ms))
            for name, grads, matrices, ms in calls["direction.solve_subproblem"]]),
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
    if hasattr(value, "__dict__"):  # a HessianStore
        return {name: canon(v) for name, v in vars(value).items()}
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
    """Exit 1 naming the first call of the layer whose outputs differ, and its problem."""
    for k, (a, b) in enumerate(zip(base_out, head_out)):
        where = difference(canon(a), canon(b))
        if where is not None:
            sys.exit(f"{layer}: call {k} ({problems[k]}) differs at output{where}:\n"
                     f"  base {a!r}\n  head {b!r}")


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
    for r in range(2 * rounds):
        order = ("base", "head") if r % 2 == 0 else ("head", "base")
        for layer in LAYERS:
            seconds, outputs = play(*(plays[side][layer] for side in order))
            for side, t in zip(order, seconds):
                times[layer][side].append(t)
            if r == 0:  # base went first
                compare(layer, [call[0] for call in calls[layer]], *outputs)

    print(f"base {'working tree' if args.smoke else args.rev}, head working tree; "
          f"{rounds} round pairs, {starts} starts per method and problem; "
          "outputs equal bit for bit")
    print(f"{'layer':28} {'calls':>6} {'base us':>9} {'head us':>9}  head/base [min, max]")
    for layer in LAYERS:
        calls_n = len(plays["head"][layer][1])
        t = times[layer]
        # a round and the next, in the other order, cancel the gain of going second
        ratios = [(h0 + h1) / (b0 + b1) for b0, b1, h0, h1 in zip(
            t["base"][::2], t["base"][1::2], t["head"][::2], t["head"][1::2])]
        print(f"{layer:28} {calls_n:6d} {statistics.median(t['base']) / calls_n * 1e6:9.1f} "
              f"{statistics.median(t['head']) / calls_n * 1e6:9.1f}  "
              f"{statistics.median(ratios):.3f} [{min(ratios):.3f}, {max(ratios):.3f}]")


if __name__ == "__main__":
    main()
