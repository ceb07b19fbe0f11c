"""Paired end-to-end benchmark runs: the working tree against a git revision.

    python tests/pairs.py <rev> --workload W [--pairs N] [--seed S]

Unpacks `git archive <rev>` into a temporary directory and runs
`perfbench/run.py --workload W --seed S`, at its default length, N times in
that checkout (the base) and N times in the working tree (the head).  The runs
come in pairs, and the side that runs first alternates: the base in pairs 1,
3, 5, ..., the head in the others (paired runs after Kalibera & Jones 2013).

Per end-to-end metric of BENCHMARK.json it prints each side's median and
quartiles, the head's change in the median, the pairs the head won, reading
which way is better from BENCHMARK.json, and whether the gap between the
medians exceeds the spread between the base's quartiles.  A run that exits
non-zero, or that is not correct or failed an operation, is named, and the
script exits 1.
"""

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def extract(rev, into):
    """Unpack `git archive <rev>` under the directory into."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                         check=True, capture_output=True).stdout
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, **safe)


def bench(checkout, workload, seed):
    """One perfbench run in the checkout: its result record, the last line it prints."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed)], cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def firsts(pairs):
    """Which side runs first in each pair: the base, then the head, in turn."""
    return ["base" if k % 2 == 0 else "head" for k in range(pairs)]


def quartiles(values):
    """(first quartile, median, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def faults(runs):
    """A line for each run that did not complete, was not correct or failed an operation."""
    return [f"{side} run {k + 1}: {run.get('error') or run}"
            for side, side_runs in runs.items() for k, run in enumerate(side_runs)
            if "error" in run or not run["correct"] or run["failed"]]


def summary(spec, base, head):
    """Per end-to-end metric of the spec, present in every run, one line comparing the sides.

    base and head are the result records of the pairs, in order: run k of each side
    forms pair k.  A pair is won when the head's value is strictly better.
    """
    pairs = len(base)
    lines = [f"{'metric':18} {'unit':6} {'base median [quartiles]':>34} "
             f"{'head median [quartiles]':>34} {'change':>8} {'won':>7}  resolved"]
    for metric in spec["end_to_end"]:
        name = metric["name"]
        if not all(name in run["metrics"] for run in base + head):
            continue
        b = [run["metrics"][name]["value"] for run in base]
        h = [run["metrics"][name]["value"] for run in head]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        won = sum(sign * (y - x) < 0.0 for x, y in zip(b, h))
        (b1, bm, b3), (h1, hm, h3) = quartiles(b), quartiles(h)
        change = f"{(hm - bm) / bm:+.1%}" if bm else "-"
        resolved = "yes" if abs(hm - bm) > b3 - b1 else "no"
        lines.append(f"{name:18} {metric['unit']:6} {f'{bm:.5g} [{b1:.5g}, {b3:.5g}]':>34} "
                     f"{f'{hm:.5g} [{h1:.5g}, {h3:.5g}]':>34} {change:>8} "
                     f"{f'{won}/{pairs}':>7}  {resolved}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision of the base side")
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10, help="pairs of runs")
    parser.add_argument("--seed", type=int, default=1, help="perfbench's --seed, every run")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    runs = {"base": [], "head": []}
    with tempfile.TemporaryDirectory() as tmp:
        extract(args.rev, tmp)
        checkouts = {"base": tmp, "head": ROOT}
        for k, first in enumerate(firsts(args.pairs)):
            for side in (first, "head" if first == "base" else "base"):
                runs[side].append(bench(checkouts[side], args.workload, args.seed))
            print(f"pair {k + 1}/{args.pairs} done, {first} first", file=sys.stderr, flush=True)
    bad = faults(runs)
    print(f"{args.workload}: base {args.rev}, head working tree; {args.pairs} pairs at seed "
          f"{args.seed}, alternating, base first in pair 1")
    if bad:
        print("\n".join(bad))
        return 1
    print("\n".join(summary(spec, runs["base"], runs["head"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
