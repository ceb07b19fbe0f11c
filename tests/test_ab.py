"""The in-process A/B harness, tests/ab.py, and the package-relative problem files it loads."""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import ab
from setopt import direction, solver

ROOT = Path(__file__).resolve().parent.parent


def test_builtin_reads_the_problem_file_of_its_own_package(tmp_path):
    """A copy of the package imported under another name reads its own ex1.prob."""
    shutil.copytree(ROOT / "src" / "setopt", tmp_path / "setopt",
                    ignore=shutil.ignore_patterns("__pycache__"))
    prob = tmp_path / "setopt" / "problems" / "ex1.prob"
    prob.write_text(prob.read_text().replace("name=ex1 ", "name=ex1-copy "))
    try:
        copy = ab.load_package(tmp_path, "setopt_copy")
        assert Path(copy.problem.builtin_file("ex1")) == prob
        assert copy.problem.builtin("ex1").name == "ex1-copy"
    finally:
        for name in [k for k in sys.modules if k.split(".")[0] == "setopt_copy"]:
            del sys.modules[name]


def test_smoke_run_finds_equal_outputs():
    """--smoke replays the working tree against itself: every layer is timed and every
    output is equal bit for bit."""
    out = subprocess.run([sys.executable, str(ROOT / "tests" / "ab.py"), "--smoke"],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert "outputs equal bit for bit" in out.stdout.splitlines()[0]
    rows = {line.split()[0]: line.split() for line in out.stdout.splitlines()[2:]}
    assert set(rows) == set(ab.LAYERS)
    assert all(int(row[1]) > 0 for row in rows.values())


def test_one_ulp_or_a_signed_zero_is_a_difference_and_millis_is_not():
    sol = direction.SubproblemSolution(a=(1, 3), u=np.array([0.0, 1.0]), phi=-0.5, gap=0.0)

    def differs(**change):
        return ab.difference(ab.canon(sol), ab.canon(direction.SubproblemSolution(
            **{**vars(sol), **change})))

    assert differs() is None
    assert differs(u=np.array([-0.0, 1.0])) == ".u"
    assert differs(phi=np.nextafter(-0.5, 0.0)) == ".phi"
    assert differs(gap=-0.0) == ".gap"
    assert differs(a=(1, 2)) == ".a[1]"
    rec = solver.IterateRecord(0, np.zeros(1), 1, 1, (1,), np.zeros(1), 0.0, 0.0, 1.0, 0, 0.0,
                               0.0, 0, millis=1.0)
    assert ab.difference(ab.canon(rec), ab.canon(solver.IterateRecord(
        **{**vars(rec), "millis": 2.0}))) is None
