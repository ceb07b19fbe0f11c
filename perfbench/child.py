"""One workload in its own process: set-up, warm-up, timed section, check.

    python perfbench/child.py --workload NAME --seed N --seconds S --trace 0|1
                              [--smoke] [--setup-only]

With --setup-only the process stops once the workload is set up and prints
the monotonic clock then and three timings of the host-speed reference
kernel, so that the parent can time a cold set-up and scale it.  Otherwise
it prints one JSON object: the run's metrics, attempted and failed starts,
whether every output checked, and details for the environment record.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import setopt.solver  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = ROOT / ".perfbench_out"

# start_ms_tail is the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10


def timed(workload, speed):
    """Per-replicate results, with each start's time scaled by the host
    speed around it, and per-replicate raw and scaled wall times."""
    rounds, walls, scaled = [], [], []
    for units in workload.rounds():
        speed.sample()
        done = []
        for unit in units:
            speed.maybe_sample()
            tick = time.perf_counter()
            out = workload.run_unit(unit)
            done.append((tick, time.perf_counter(), out))
        speed.sample()
        results, wall, wall_scaled = [], 0.0, 0.0
        for tick, tock, out in done:
            factor = speed.scale(tick, tock)
            wall += tock - tick
            wall_scaled += factor * (tock - tick)
            results.extend(dataclasses.replace(r, seconds=factor * r.seconds) for r in out)
        rounds.append(results)
        walls.append(wall)
        scaled.append(wall_scaled)
    return rounds, walls, scaled


def paired(workload, units, tracer, speed):
    """Solve each unit untraced and traced, alternating which goes first."""
    plain, traced = [], []
    wall = {False: 0.0, True: 0.0}
    for j, unit in enumerate(units):
        speed.maybe_sample()
        for with_trace in ((False, True) if j % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install()
            tick = time.perf_counter()
            try:
                out = workload.run_unit(unit)
            finally:
                wall[with_trace] += time.perf_counter() - tick
                if with_trace:
                    tracer.uninstall()
            (traced if with_trace else plain).extend(out)
    return plain, traced, wall[False], wall[True]


def fill_missing_finals(workload, results):
    """Solve again, serially, each converged start whose final point the
    timed section did not see, and keep the repeat only if it ended alike."""
    problems = {prob.key: prob for prob in workload.problems}
    for j, r in enumerate(results):
        if r.status == setopt.solver.CONVERGED and r.x_final is None:
            (again,) = workload.run_unit(workloads.Unit(problems[r.problem], r.method, r.x0, 1))
            if checks.same_outcomes([r], [again]):
                results[j] = again


def hd_median(values) -> float:
    """Harrell-Davis estimate of the median: a Beta((n+1)/2, (n+1)/2)-weighted
    mean of the order statistics.  Unlike the sample median it does not jump
    from one mode to the other when a group's starts split between a
    one-iteration mode and a many-iteration mode."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a = (n + 1) / 2.0
    t = np.linspace(0.0, 1.0, 20001)[1:-1]
    log_pdf = (a - 1.0) * (np.log(t) + np.log1p(-t))
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]))])
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, t, cdf, left=0.0, right=1.0))
    return float(weights @ x)


def typical(results, per_start) -> float:
    """Geometric mean over (problem, method) groups of each group's median.

    Per-start figures differ up to 100-fold between groups, so a pooled
    median sits where one group ends and the next begins, and a pooled mean
    follows the seed's mix of cheap and costly starts; a group median also
    ignores the rare start whose direction subproblem stalls."""
    groups = {}
    for r in results:
        groups.setdefault((r.problem, r.method), []).append(per_start(r))
    return math.exp(statistics.fmean(math.log(hd_median(v)) for v in groups.values()))


def tail(seconds):
    """(ms, percentile, n): the highest percentile with ten samples beyond it.

    A single order statistic, not a Harrell-Davis estimate: that gives the
    top few starts some weight, and a stalled start (5-15 s, see
    workloads.REPLICATES) among them doubled builtin-multistart's tail."""
    n = len(seconds)
    if n <= TAIL_BEYOND:
        return None, None, n
    ordered = sorted(seconds)
    return 1e3 * ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def iterations(results) -> int:
    return sum(r.iterations for r in results)


def throughput(rounds, scaled) -> float:
    """Starts per second over every replicate but the slowest."""
    by_rate = sorted(zip(rounds, scaled), key=lambda rw: len(rw[0]) / rw[1])
    kept = by_rate[1:] if len(by_rate) > 1 else by_rate
    return sum(len(rnd) for rnd, _ in kept) / sum(w for _, w in kept)


def end_to_end(rounds, walls, scaled, rss_mib):
    """Throughput leaves out the slowest replicate; the rest pools every start.
    Times are scaled by host speed; `walls` are the raw replicate times."""
    results = [r for rnd in rounds for r in rnd]
    secs = [r.seconds for r in results]
    tail_ms, pct, n = tail(secs)
    out = {
        "starts_per_s": (throughput(rounds, scaled), "1/s"),
        "ms_per_iter": (typical(results, lambda r: 1e3 * r.seconds / max(r.iterations, 1)),
                        "ms"),
        "start_ms_p50": (typical(results, lambda r: 1e3 * r.seconds), "ms"),
        "iterations_total": (iterations(results), "count"),
        "converged_share": (sum(r.status == setopt.solver.CONVERGED for r in results)
                            / len(results), "ratio"),
        "peak_rss_mb": (rss_mib, "MiB"),
    }
    if tail_ms is not None:
        out["start_ms_tail"] = (tail_ms, "ms")
    slowest = max(results, key=lambda r: r.seconds)
    return out, {"start_ms_tail_percentile": pct, "start_ms_tail_n": n,
                 "replicate_wall_s": walls,
                 "replicate_scaled_s": scaled,
                 "slowest_start": {"ms": 1e3 * slowest.seconds, "problem": slowest.problem,
                                   "method": slowest.method, "x0": slowest.x0,
                                   "iterations": slowest.iterations}}


def per_layer(spans, counts, its, traced_wall, plain_wall, scale):
    """Per-layer figures of the traced run; times are scaled by host speed."""
    names = spans["name"]
    self_s = tracer_mod.self_times(spans)
    dur = spans["end"] - spans["start"]

    def calls(*layers):
        return int(sum((names == tracer_mod.SPAN_NAMES.index(x)).sum() for x in layers))

    def self_ms(*layers):
        return 1e3 * scale * float(sum(self_s[names == tracer_mod.SPAN_NAMES.index(x)].sum()
                                       for x in layers))

    def ratio(num, den):
        return num / den if den else 0.0

    roots = spans["parent"] < 0
    run_id = tracer_mod.SPAN_NAMES.index("solver.run")
    applied = counts.get("direction.bfgs.applied", 0)
    skipped = counts.get("direction.bfgs.skipped", 0)
    return {
        "problem.eval_F.calls_per_iter": (calls("problem.eval_F") / its, "count"),
        "problem.eval_F.ms_per_iter": (self_ms("problem.eval_F") / its, "ms"),
        "problem.eval_jacobians.calls_per_iter": (calls("problem.eval_jacobians") / its, "count"),
        "problem.eval_jacobians.ms_per_iter": (self_ms("problem.eval_jacobians") / its, "ms"),
        "problem.gradients.calls_per_iter": (calls("problem.gradients") / its, "count"),
        "problem.gradients.ms_per_iter": (self_ms("problem.gradients") / its, "ms"),
        "expr.walks_per_iter": (calls("expr.eval", "expr.eval_dual") / its, "count"),
        "expr.ms_per_iter": (self_ms("expr.eval", "expr.eval_dual") / its, "ms"),
        "setorder.analyze.ms_per_call": (ratio(self_ms("setorder.analyze"),
                                               calls("setorder.analyze")), "ms"),
        "setorder.analyze.ms_per_iter": (self_ms("setorder.analyze") / its, "ms"),
        "setorder.w_mean": (ratio(counts.get("setorder.w", 0), calls("setorder.analyze")),
                            "count"),
        "direction.solve_subproblem.ms_per_iter": (self_ms("direction.solve_subproblem") / its,
                                                   "ms"),
        "direction.solve_minmax.ms_per_iter": (self_ms("direction.solve_minmax") / its, "ms"),
        "direction.solve_minmax.calls_per_iter": (calls("direction.solve_minmax") / its,
                                                  "count"),
        "direction.terms_mean": (ratio(counts.get("direction.terms", 0),
                                       calls("direction.solve_minmax")), "count"),
        "direction.solve_minmax.unconverged_ratio": (
            ratio(counts.get("direction.unconverged", 0), calls("direction.solve_minmax")),
            "ratio"),
        "direction.bfgs_update.ms_per_iter": (self_ms("direction.bfgs_update") / its, "ms"),
        "direction.bfgs_update.applied_ratio": (ratio(applied, applied + skipped), "ratio"),
        "solver.armijo_backtrack.ms_per_iter": (self_ms("solver.armijo_backtrack") / its, "ms"),
        "solver.backtracks_per_iter": (counts.get("solver.backtracks", 0) / its, "count"),
        "solver.run.self_ms_per_iter": (self_ms("solver.run") / its, "ms"),
        "cone.varsigma.ms_per_iter": (self_ms("cone.varsigma") / its, "ms"),
        "bench.run_bench.concurrency": (float(dur[names == run_id].sum()) / traced_wall,
                                        "ratio"),
        "bench.run_bench.self_ms": (self_ms("bench.run_bench"), "ms"),
        "trace.overhead_ratio": (traced_wall / plain_wall, "ratio"),
        "trace.coverage": (float(dur[roots].sum()) / traced_wall, "ratio"),
    }


def write_spans(spans, name, seed):
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{name}-seed{seed}.npz"
    with open(path, "wb") as fh:
        np.savez_compressed(fh, names=np.asarray(tracer_mod.SPAN_NAMES), **spans)
    return str(path.relative_to(ROOT))


def numpy_env() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__,
            "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    # The traced run solves every start twice, so it holds half the starts.
    seconds = args.seconds / 2 if args.trace else args.seconds
    workload = workloads.Workload(args.workload, args.seed, seconds, smoke=args.smoke)
    if args.setup_only:
        ready = time.perf_counter()
        hostspeed.kernel()
        print(json.dumps({"ready": ready,
                          "reference_ms": [hostspeed.reference_ms() for _ in range(3)]}))
        return 0

    phase = {"start": time.perf_counter()}
    for unit in workload.warmup_units():
        workload.run_unit(unit)
    hostspeed.kernel()
    gc.collect()
    speed = hostspeed.SpeedLog()
    phase["warmup"] = time.perf_counter()

    metrics, detail = {}, {}
    if args.trace:
        tracer = tracer_mod.Tracer()
        results, traced, plain_wall, traced_wall = paired(workload, workload.units(), tracer,
                                                          speed)
        spans = tracer.spans()
        metrics = per_layer(spans, tracer.counts(), iterations(traced), traced_wall, plain_wall,
                            speed.run_scale())
        detail["spans_file"] = write_spans(spans, args.workload, args.seed)
        detail["spans"] = int(len(spans["id"]))
        repeat_ok = checks.same_outcomes(results, traced)
    else:
        rounds, walls, scaled = timed(workload, speed)
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics, detail = end_to_end(rounds, walls, scaled, rss_mib)
        results = [r for rnd in rounds for r in rnd]
        repeat_ok = True
    phase["timed"] = time.perf_counter()

    fill_missing_finals(workload, results)
    problems = {prob.key: prob.ps for prob in workload.problems}
    ok = checks.check(results, problems, workload.cfg["qnm"].eps_stop, workloads.nproc())
    failed = sum(checks.is_failed(r, good) for r, good in zip(results, ok))
    phase["check"] = time.perf_counter()
    detail.update({
        "failed_share": failed / len(results),
        "statuses": {s: sum(r.status == s for r in results) for s in checks.STATUSES},
        "traced_repeat_matches": repeat_ok,
        "sizes": workload.sizes(),
        "reference_kernel": speed.summary(),
        "env": numpy_env(),
        "phase_s": {name: t - prev for (_, prev), (name, t) in
                    zip(list(phase.items()), list(phase.items())[1:])},
    })
    print(json.dumps({
        "correct": all(ok) and repeat_ok,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
