"""Benchmark entry point: one workload per call, or every workload in smoke mode.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run it from the root of a checkout; the program is imported from `src/`.
The workload runs in a child process of its own.  With --trace 0 the last
line of standard output is the end-to-end result, with --trace 1 the
per-layer result of a separate traced run; the line before it is the
environment record.  The exit code is 0 only when the run completed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
# workloads.NAMES; this process does not import the program, so it keeps a copy.
WORKLOADS = ("builtin-multistart", "file-multistart", "large-p", "bench-jobs")

# setup_s is the median of this many cold launches per run.
SETUP_LAUNCHES = 7
# hostspeed.REFERENCE_MS; this process does not import numpy, so it keeps a copy.
REFERENCE_MS = 15.0
CHILD_TIMEOUT_S = 170

# BLAS runs on one thread per process: its worker threads would otherwise
# compete with bench-jobs' pool threads and with other load on the host.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({key: "1" for key in THREAD_ENV})
    return env


def child_cmd(workload, seed, seconds, trace, smoke, setup_only=False) -> list:
    cmd = [sys.executable, str(CHILD), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    return cmd


def run_child(cmd, env) -> str:
    # A process group of its own, so that a timeout also stops the pool workers.
    with subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"child timed out after {CHILD_TIMEOUT_S} s: "
                             f"{' '.join(cmd)}") from None
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}: {' '.join(cmd)}\n{stderr}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"child printed nothing: {' '.join(cmd)}")
    return lines[-1]


def cold_setup_seconds(workload, seed, seconds, smoke, env) -> tuple:
    """Fresh interpreter to set-up done, once per launch, and the host-speed
    reference kernel's times that each launch measured right after."""
    raw, kernel_ms = [], []
    for _ in range(1 if smoke else SETUP_LAUNCHES):
        launched = time.perf_counter()
        out = json.loads(run_child(child_cmd(workload, seed, seconds, 0, smoke, setup_only=True),
                                   env))
        raw.append(out["ready"] - launched)
        kernel_ms.extend(out["reference_ms"])
    return raw, kernel_ms


def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(args, env) -> dict:
    return {
        "python": sys.version.split()[0],
        "threads_env": {key: env.get(key) for key in THREAD_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_workload(args) -> tuple:
    env = child_env()
    setup = kernel_ms = []
    if not args.trace:
        setup, kernel_ms = cold_setup_seconds(args.workload, args.seed, args.seconds, args.smoke,
                                              env)
    child = json.loads(run_child(
        child_cmd(args.workload, args.seed, args.seconds, args.trace, args.smoke), env))
    detail = child.pop("detail")
    if setup:
        # One scale for the run: the launches take about two seconds together,
        # and a single kernel timing in a fresh process is too rough for each.
        scale = REFERENCE_MS / statistics.median(kernel_ms)
        child["metrics"]["setup_s"] = {"value": scale * statistics.median(setup), "unit": "s"}
        detail["setup_s_launches"] = setup
        detail["setup_kernel_ms"] = kernel_ms
    record = {"env": {**environment(args, env), **detail.pop("env")}, "detail": detail}
    return record, child


def expected_metrics(trace: int) -> set:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def smoke() -> int:
    """Every workload at tiny size, untraced and traced: outputs and metric names."""
    bad = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=1, seconds=1.0, trace=trace,
                                      smoke=True)
            record, result = run_workload(args)
            want = expected_metrics(trace)
            if not trace and record["detail"]["start_ms_tail_n"] <= 10:
                want.discard("start_ms_tail")     # too few starts for a tail
            got = set(result["metrics"])
            problems = []
            if got != want:
                problems.append(f"metrics differ: missing {sorted(want - got)}, "
                                f"extra {sorted(got - want)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"outputs: {result}")
            print(f"{workload} trace={trace}: {'; '.join(problems) or 'ok'}", flush=True)
            bad += bool(problems)
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at tiny size and check the metric names")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "setopt" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'setopt'} is missing",
              file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required unless --smoke is given")
        record, result = run_workload(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
