"""The in-process A/B harness, tests/ab.py, and the package-relative problem files it loads."""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import ab
from setopt import direction, problem, solver

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


def test_a_store_compares_by_its_matrices_and_shape_alone():
    """A revision's store may carry more attributes; only n, p, Q and matrices are outputs."""
    store, older = direction.HessianStore(2, 3, 2), direction.HessianStore(2, 3, 2)
    older.applied = 5                       # as stores before the counters were dropped
    assert ab.difference(ab.canon(store), ab.canon(older)) is None
    older.matrices[2, 1, 0, 0] = np.nextafter(1.0, 2.0)
    assert ab.difference(ab.canon(store), ab.canon(older)) == ".matrices"


def test_differing_calls_are_counted_and_the_first_named():
    base = [np.zeros(2), np.ones(2), np.ones(2), 1.0]
    head = [np.zeros(2), np.array([1.0, -0.0]), np.ones(2), np.nextafter(1.0, 0.0)]
    report = ab.compare("demo", ["ex1", "ex2", "ex3", "ex4"], base, head)
    assert report.splitlines()[0] == (
        "demo: 2 of 4 calls differ; the first, call 1 (ex2), at output.:")
    assert ab.compare("demo", ["ex1"], base[:1], head[:1]) is None


def test_a_loaded_problem_compares_by_its_values_and_jacobians(tmp_path):
    """problem.load's outputs are the specs' F and J at their problem's starts, one
    per start whatever the methods: a signed zero of J is a difference."""
    specs = []
    for k, f in enumerate(("-x2", "-(x1 - x1) - x2")):     # J[0, 0, 0] +0.0 and -0.0
        path = tmp_path / f"f{k}.prob"
        path.write_text(f"[meta]\nname=t\nn=2\nm=1\np=1\n[box]\n-1 1\n-1 1\n[functions]\n{f}\n")
        specs.append(problem.load(str(path)))
    x0 = np.array([0.5, 1.0])
    calls = {"problem.load": [("t", "t.prob")],
             "solver.run": [("t", method, x0) for method in ab.METHODS]}
    (base,), (head,) = ab.evaluations(calls, specs[:1]), ab.evaluations(calls, specs[1:])
    assert len(base) == 1 and np.array_equal(base[0][0], head[0][0])
    assert ab.compare("problem.load", ["t"], [base], ab.evaluations(calls, specs[:1])) is None
    assert ab.compare("problem.load", ["t"], [base], [head]).splitlines()[0] == (
        "problem.load: 1 of 1 calls differ; the first, call 0 (t), at output[0][1]:")


def test_the_interval_is_a_bootstrap_of_the_median_ratio():
    """On canned ratios: equal ratios give a point, and the 95% interval of the
    median holds the median, inside the ratios' range, the same on each call."""
    assert ab.interval([0.9] * 15) == (0.9, 0.9)
    ratios = [0.80, 0.84, 0.86, 0.88, 0.89, 0.90, 0.91, 0.92, 0.93, 0.95, 0.97, 1.00, 1.02,
              1.05, 1.30]
    low, high = ab.interval(ratios)
    assert min(ratios) < low <= np.median(ratios) <= high < max(ratios)
    assert ab.interval(ratios) == (low, high)
    # a layer's row: a pair of rounds is one ratio, whichever side went first
    base, head = [2e-3, 2e-3] * 15, [1e-3, 1e-3] * 15
    assert ab.row("demo", 10, base, head).split() == [
        "demo", "10", "200.0", "100.0", "0.500", "[0.500,", "0.500]"]
