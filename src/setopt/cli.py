"""Command-line front end: solve | bench | plot-data | check.

Exit codes: 0 success, 2 solver hit the iteration cap, 3 numerical failure,
64 usage error, 74 file error.  SETOPT_OUT_DIR provides the default --out.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

import numpy as np

from . import bench as bench_mod
from . import direction as direction_mod
from . import oracle as oracle_mod
from . import problem as problem_mod
from . import setorder as setorder_mod
from . import solver as solver_mod
from .cone import gerstewitz
from .errors import DomainError, SetoptError, UnknownProblem
from .solver import CONVERGED, LINE_SEARCH_FAILURE, MAX_ITERATIONS, SolverConfig

EXIT_OK = 0
EXIT_MAXITER = 2
EXIT_NUMFAIL = 3
EXIT_USAGE = 64
EXIT_IO = 74


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # A value may start with a negative number (--x0 -1,2, --box -1:1), where
        # argparse's own pattern admits only a lone one (-1, -1.5).
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class CliError(Exception):
    def __init__(self, message, code=EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _out_dir(args) -> str:
    out = args.out or os.environ.get("SETOPT_OUT_DIR") or "."
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot create output directory {out}: {exc}", EXIT_IO)
    return out


def _parse_x0(text, n) -> np.ndarray:
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError:
        raise CliError(f"--x0 must be comma-separated decimals, got {text!r}")
    if len(vals) != n:
        raise CliError(f"--x0 has {len(vals)} components, problem needs {n}")
    if not np.all(np.isfinite(vals)):
        raise CliError(f"--x0 must be finite, got {text!r}")
    return np.asarray(vals)


def _parse_box(text, n) -> np.ndarray:
    rows = []
    for part in text.split(","):
        try:
            lo, hi = part.split(":")
            rows.append((float(lo), float(hi)))
        except ValueError:
            raise CliError(f"--box entries must look like lo:hi, got {part!r}")
    if len(rows) != n:
        raise CliError(f"--box has {len(rows)} intervals, problem needs {n}")
    box = np.asarray(rows)
    if not np.all(np.isfinite(box)):
        raise CliError(f"--box bounds must be finite, got {text!r}")
    if np.any(box[:, 0] >= box[:, 1]):
        raise CliError("--box intervals need lo < hi")
    return box


def _load_problem(name_or_path):
    """Resolve a problem; every failure while reading a file is a file error."""
    try:
        return problem_mod.get(name_or_path)
    except UnknownProblem as exc:
        raise CliError(str(exc), EXIT_USAGE)
    except (SetoptError, OSError) as exc:
        raise CliError(f"{type(exc).__name__}: {exc}", EXIT_IO)


def _config_from(args, method_key="qnm", **fixed) -> SolverConfig:
    method = bench_mod.METHOD_KEYS.get(method_key)
    if method is None:
        raise CliError(f"unknown method {method_key!r}; choose qnm or sd")
    try:
        return SolverConfig(beta=args.beta, nu=args.nu, eps_stop=args.eps,
                            max_iter=args.max_iter, method=method, **fixed)
    except ValueError as exc:
        raise CliError(str(exc))


def _add_solver_flags(sp, with_x0=True):
    sp.add_argument("--problem", required=True,
                    help="builtin name (ex1..ex7) or path to a problem file")
    if with_x0:
        sp.add_argument("--x0", required=True, help="start point, comma-separated")
        sp.add_argument("--method", default="qnm", help="qnm or sd")
    sp.add_argument("--beta", type=float, default=0.5)
    sp.add_argument("--nu", type=float, default=0.6)
    sp.add_argument("--eps", type=float, default=1e-3)
    sp.add_argument("--max-iter", type=int, default=100)
    sp.add_argument("--out", default=None, help="output directory (default $SETOPT_OUT_DIR or .)")


def build_parser() -> _Parser:
    parser = _Parser(prog="setopt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="run one solve and write trace + summary")
    _add_solver_flags(sp)

    bp = sub.add_parser("bench", help="multi-start benchmark with statistics")
    _add_solver_flags(bp, with_x0=False)
    bp.add_argument("--starts", type=int, default=100)
    bp.add_argument("--seed", type=int, default=0, help="seed of the sampled starts")
    bp.add_argument("--methods", default="qnm,sd", help="comma list from {qnm,sd}")
    bp.add_argument("--box", default=None, help="sample-box override lo:hi[,lo:hi...]")
    bp.add_argument("--jobs", type=int, default=1,
                    help="solving processes: this one and N-1 forked children (1 = in-process)")

    pp = sub.add_parser("plot-data", help="emit per-iteration image/decision CSVs")
    _add_solver_flags(pp)

    cp = sub.add_parser("check", help="validate a problem definition")
    cp.add_argument("--problem", required=True)
    cp.add_argument("--samples", type=int, default=50,
                    help="random points for the Jacobian audit")
    cp.add_argument("--seed", type=int, default=0)
    cp.add_argument("--oracle", action="append", default=[],
                    choices=["gerstewitz", "min", "subproblem", "weakmin"],
                    help="extra brute-force cross-checks (repeatable)")
    return parser


# --- subcommands -----------------------------------------------------------

def cmd_solve(args) -> int:
    ps = _load_problem(args.problem)
    cfg = _config_from(args, args.method)
    x0 = _parse_x0(args.x0, ps.n)
    out = _out_dir(args)
    trace = solver_mod.run(ps, x0, cfg)
    stem = os.path.join(out, f"{ps.name}_{args.method}")
    try:
        bench_mod.write_trace_csv(trace, stem + "_trace.csv")
        bench_mod.write_solve_summary(trace, cfg, stem + "_summary.json")
    except OSError as exc:
        raise CliError(str(exc), EXIT_IO)
    print(f"{trace.status}: {trace.iterations} iterations, "
          f"x_final = {np.array2string(trace.x_final, precision=6)}")
    if trace.message:
        print(trace.message)
    if trace.status == CONVERGED:
        return EXIT_OK
    if trace.status == MAX_ITERATIONS:
        return EXIT_MAXITER
    return EXIT_NUMFAIL


def cmd_bench(args) -> int:
    ps = _load_problem(args.problem)
    cfg = _config_from(args, seed=args.seed)
    if args.starts < 1:
        raise CliError(f"--starts must be at least 1, got {args.starts}")
    if args.jobs < 1:
        raise CliError(f"--jobs must be at least 1, got {args.jobs}")
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods or len(set(methods)) < len(methods):
        raise CliError(f"--methods needs distinct names from qnm, sd, got {args.methods!r}")
    for m in methods:
        if m not in bench_mod.METHOD_KEYS:
            raise CliError(f"unknown method {m!r} in --methods; choose from qnm, sd")
    box = _parse_box(args.box, ps.n) if args.box else None
    out = _out_dir(args)
    result = bench_mod.run_bench(ps, args.starts, methods, args.seed, cfg,
                                 jobs=args.jobs, box=box)
    stem = os.path.join(out, f"{ps.name}_bench")
    try:
        bench_mod.write_json(bench_mod.stats_payload(result, cfg), stem + "_stats.json")
        bench_mod.write_json(bench_mod.timing_payload(result), stem + "_timing.json")
        for m in methods:
            bench_mod.write_raw_csv(result, m, f"{stem}_{m}_raw.csv")
        table = bench_mod.format_table(result)
        with open(stem + "_table.txt", "w") as fh:
            fh.write(table)
    except OSError as exc:
        raise CliError(str(exc), EXIT_IO)
    print(table, end="")
    return EXIT_OK


def cmd_plotdata(args) -> int:
    ps = _load_problem(args.problem)
    if ps.m > 3:
        raise CliError(f"plot-data supports image dimension m <= 3, "
                       f"problem {ps.name} has m = {ps.m}")
    cfg = _config_from(args, args.method)
    x0 = _parse_x0(args.x0, ps.n)
    out = _out_dir(args)
    trace = solver_mod.run(ps, x0, cfg)
    stem = os.path.join(out, f"{ps.name}_{args.method}")
    try:
        bench_mod.write_plot_data(trace, ps, stem + "_images.csv", stem + "_decisions.csv")
    except OSError as exc:
        raise CliError(str(exc), EXIT_IO)
    print(f"{trace.status}: wrote {stem}_images.csv and {stem}_decisions.csv")
    return EXIT_OK if trace.status in (CONVERGED, MAX_ITERATIONS) else EXIT_NUMFAIL


def cmd_check(args) -> int:
    if args.samples < 1:
        raise CliError(f"--samples must be at least 1, got {args.samples}")
    if args.seed < 0:
        raise CliError(f"--seed must be at least 0, got {args.seed}")
    try:
        ps = problem_mod.get(args.problem)
    except (SetoptError, OSError) as exc:
        print(f"FAIL {type(exc).__name__}: {exc}")
        return 1
    print(f"ok    parse+cone: {ps.name} (n={ps.n}, m={ps.m}, p={ps.p}, Q={ps.cone.Q})")

    max_dev = 0.0
    for s in range(args.samples):
        x = bench_mod.sample_start(ps, args.seed, s)
        try:
            J = problem_mod.eval_jacobians(ps, x)
            for i in range(1, ps.p + 1):
                dev = float(np.max(np.abs(J[i - 1] - oracle_mod.fd_jacobian(ps, x, i))))
                max_dev = max(max_dev, dev)
        except DomainError as exc:
            print(f"FAIL DomainError at x={x}: {exc} "
                  f"(line {exc.line}, column {exc.column})")
            return 1
    scale = 1.0 + max(1.0, float(np.max(np.abs(ps.sample_box))))
    tol = 1e-4 * scale
    verdict = "ok   " if max_dev <= tol else "FAIL "
    print(f"{verdict} jacobian audit: max deviation {max_dev:.3e} over "
          f"{args.samples} samples (tol {tol:.1e})")
    failed = max_dev > tol

    rng = np.random.default_rng(args.seed)
    if "gerstewitz" in args.oracle:
        worst = 0.0
        for _ in range(200):
            y = rng.uniform(-5.0, 5.0, ps.m)
            worst = max(worst, abs(gerstewitz(ps.cone, y)
                                   - oracle_mod.gerstewitz_bisect(ps.cone, y, 1e-12)))
        ok = worst <= 1e-9
        print(f"{'ok   ' if ok else 'FAIL '} gerstewitz oracle: max |closed - bisect| = {worst:.3e}")
        failed = failed or not ok
    if "min" in args.oracle:
        ok = True
        for k in range(50):
            vals = rng.uniform(-3.0, 3.0, (rng.integers(2, 30), ps.m))
            if k % 2:                    # rows resampled with replacement: exact repeats
                vals = vals[rng.integers(0, len(vals), len(vals))]
            if setorder_mod.minimal_elements(ps.cone, vals) != oracle_mod.brute_min(ps.cone, vals):
                ok = False
                break
        what = "agrees on 50 random sets, 25 with repeated rows" if ok else "disagreement found"
        print(f"{'ok   ' if ok else 'FAIL '} minimal-element oracle: {what}")
        failed = failed or not ok
    if "subproblem" in args.oracle:
        n = min(ps.n, 2)
        ok = True
        for _ in range(5):
            T = int(rng.integers(1, 5))
            gs = rng.uniform(-2.0, 2.0, (T, n))
            Hs = []
            for _t in range(T):
                Mr = rng.uniform(-1.0, 1.0, (n, n))
                Hs.append(Mr @ Mr.T + np.eye(n))
            u, phi, _, gap, _ = direction_mod.solve_minmax(gs, np.asarray(Hs))
            grid = oracle_mod.GridSpec(lo=(-6.0,) * n, hi=(6.0,) * n, step=(0.01,) * n)
            gu, gphi = oracle_mod.grid_minmax(list(zip(gs, Hs)), grid)
            if abs(phi - gphi) > 1e-3 or gap > 1e-8:
                ok = False
                break
        print(f"{'ok   ' if ok else 'FAIL '} subproblem oracle: "
              f"{'agrees on random instances' if ok else 'disagreement found'}")
        failed = failed or not ok
    if "weakmin" in args.oracle:
        if ps.n > 2:
            print("skip  weakmin oracle: grid certifier supports n <= 2")
        else:
            x0 = ps.sample_box.mean(axis=1)
            trace = solver_mod.run(ps, x0, SolverConfig(seed=args.seed))
            step = max((ps.sample_box[:, 1] - ps.sample_box[:, 0]).max() / 200.0, 1e-4)
            grid = oracle_mod.GridSpec(lo=tuple(ps.sample_box[:, 0]),
                                       hi=tuple(ps.sample_box[:, 1]),
                                       step=(step,) * ps.n)
            verdict = oracle_mod.certify_weak_minimality(ps, trace.x_final, grid)
            ok = trace.status == CONVERGED and not verdict.violated
            print(f"{'ok   ' if ok else 'FAIL '} weakmin oracle: solve {trace.status}, "
                  f"certifier {verdict.label}")
            failed = failed or not ok

    return 1 if failed else EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"solve": cmd_solve, "bench": cmd_bench,
                "plot-data": cmd_plotdata, "check": cmd_check}
    try:
        return handlers[args.command](args)
    except CliError as exc:
        print(f"setopt {args.command}: {exc}", file=sys.stderr)
        return exc.code
    except SetoptError as exc:
        print(f"setopt {args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMFAIL


if __name__ == "__main__":
    sys.exit(main())
