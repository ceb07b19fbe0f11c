"""Digests of the CLI's artifacts: one sha256 per deterministic file that
`solve`, `plot-data` and `bench` write for the builtins ex1..ex7.

Each builtin is solved with `solve` and `plot-data` for both methods from one
x0, the first start that `bench` samples at seed 11, and benched with
`bench --starts 12 --seed 5` at `--jobs` 1 and 2.  Every command writes into
a directory of its own, and the output holds one line per command,

    <builtin> <command> exit <code>

followed by one line per file it wrote,

    <directory>/<file> <sha256>

Wall-clock parts are left out before hashing: the `millis` column of a trace
CSV, the `seconds` column of a raw CSV, the `sec` lines of a table, and every
value of a `*_timing.json`, which is reduced to its keys.  Two commits print
the same lines iff their CLI writes the same bytes.  The digests depend on the
platform's floating point, so this is not a test module: run it on both
commits on one machine, from the repository root, and diff the outputs:

    python tests/artifact_check.py > artifacts.txt
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from setopt import bench, cli, problem  # noqa: E402

X0_SEED = 11


def _without_column(text, column):
    rows = list(csv.reader(io.StringIO(text)))
    keep = [k for k, head in enumerate(rows[0] if rows else []) if head != column]
    return "\n".join(",".join(row[k] for k in keep) for row in rows)


def _keys(value):
    """A JSON value with every leaf replaced by None."""
    return {k: _keys(v) for k, v in value.items()} if isinstance(value, dict) else None


def canonical(path):
    """The file's text without its wall-clock parts."""
    text = path.read_text()
    if path.name.endswith("_trace.csv"):
        return _without_column(text, "millis")
    if path.name.endswith("_raw.csv"):
        return _without_column(text, "seconds")
    if path.name.endswith("_table.txt"):
        return "".join(line for line in text.splitlines(True) if line.split()[:1] != ["sec"])
    if path.name.endswith("_timing.json"):
        return json.dumps(_keys(json.loads(text)), sort_keys=True)
    return text


def commands(name):
    """(directory, argv) of every command run on the builtin `name`."""
    x0 = bench.sample_start(problem.builtin(name), X0_SEED, 0)
    x0 = ",".join(repr(float(v)) for v in x0)
    for command in ("solve", "plot-data"):
        for method in ("qnm", "sd"):
            yield f"{name}-{command}-{method}", [command, "--problem", name, "--x0", x0,
                                                 "--method", method]
    for jobs in (1, 2):
        yield f"{name}-bench-jobs{jobs}", ["bench", "--problem", name, "--starts", "12",
                                           "--seed", "5", "--jobs", str(jobs)]


def main():
    with tempfile.TemporaryDirectory() as tmp:
        for name in problem.BUILTIN_NAMES:
            for directory, argv in commands(name):
                out = Path(tmp) / directory
                os.mkdir(out)
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(argv + ["--out", str(out)])
                print(f"{name} {argv[0]} exit {code}")
                for path in sorted(out.iterdir()):
                    digest = hashlib.sha256(canonical(path).encode()).hexdigest()
                    print(f"{directory}/{path.name} {digest}")


if __name__ == "__main__":
    main()
