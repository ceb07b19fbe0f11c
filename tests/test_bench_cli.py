import contextlib
import dataclasses
import json
import os
import pickle
import signal
import statistics
import subprocess
import sys
import time
import types

import numpy as np
import pytest

from setopt import bench, cli, problem, solver
from setopt.errors import WorkerDied


def cfg():
    return solver.SolverConfig()


# --- artifacts -------------------------------------------------------------

def test_trace_csv_roundtrip(tmp_path):
    trace = solver.run(problem.builtin("ex1"), [2.3], cfg())
    path = str(tmp_path / "trace.csv")
    bench.write_trace_csv(trace, path)
    rows = bench.read_trace_csv(path)
    assert len(rows) == trace.iterations
    for row, rec in zip(rows, trace.records):
        assert row["k"] == rec.k
        assert row["x1"] == rec.x[0]          # exact: repr round-trip
        assert row["u_norm"] == rec.u_norm
        assert row["phi"] == rec.phi
        assert row["varsigma"] == rec.varsigma
        assert row["gap"] == rec.gap
        assert row["t"] == rec.t
        assert row["q"] == rec.backtracks
        assert row["skips"] == rec.bfgs_skips
        assert row["millis"] == rec.millis
        assert all(type(row[key]) is int for key in ("k", "q", "skips"))


def test_solve_summary(tmp_path):
    trace = solver.run(problem.builtin("ex5"), [4.0], cfg())
    path = str(tmp_path / "summary.json")
    bench.write_solve_summary(trace, cfg(), path)
    data = json.loads(open(path).read())
    assert data["status"] == "Converged"
    assert data["problem"] == "ex5"
    assert data["config"]["beta"] == 0.5


def test_plot_data(tmp_path):
    ps = problem.builtin("ex1")
    trace = solver.run(ps, [2.3], solver.SolverConfig())
    img = str(tmp_path / "img.csv")
    dec = str(tmp_path / "dec.csv")
    bench.write_plot_data(trace, ps, img, dec)
    lines = open(img).read().splitlines()
    assert lines[0] == "k,i,y1,y2"
    assert len(lines) == 1 + 50 * trace.iterations    # p=50 rows per iteration
    assert len(open(dec).read().splitlines()) == 1 + trace.iterations


# --- start sampling and statistics -----------------------------------------

def test_sample_start_deterministic_and_in_box():
    ps = problem.builtin("ex4")
    a = bench.sample_start(ps, 7, 3)
    b = bench.sample_start(ps, 7, 3)
    assert np.array_equal(a, b)
    assert np.all(a >= ps.sample_box[:, 0]) and np.all(a <= ps.sample_box[:, 1])
    assert not np.array_equal(a, bench.sample_start(ps, 7, 4))
    assert not np.array_equal(a, bench.sample_start(ps, 8, 3))


def test_iteration_stats_fields():
    s = bench.iteration_stats([3, 5, 5, 9, 2])
    assert s["min"] == 2 and s["max"] == 9
    assert s["mean"] == pytest.approx(4.8)
    assert s["median"] == 5
    assert s["mode"] == 5
    assert s["sd"] == pytest.approx(statistics.pstdev([3, 5, 5, 9, 2]))
    assert s["min"] <= s["median"] <= s["max"]
    assert s["min"] <= s["mean"] <= s["max"]


def test_mode_tie_breaks_smallest():
    assert bench.iteration_stats([4, 4, 7, 7, 1])["mode"] == 4


def test_degenerate_single_start():
    s = bench.iteration_stats([6])
    assert s["min"] == s["max"] == s["mean"] == s["median"] == s["mode"] == 6
    assert s["sd"] == 0.0


def test_bench_stats_rederivable_from_raw(tmp_path):
    ps = problem.builtin("ex3")
    result = bench.run_bench(ps, 8, ["qnm"], 7, cfg())
    raw = str(tmp_path / "raw.csv")
    bench.write_raw_csv(result, "qnm", raw)
    lines = open(raw).read().splitlines()
    iters = [int(row.split(",")[-2]) for row in lines[1:]]
    payload = bench.stats_payload(result, cfg())
    assert payload["methods"]["qnm"]["iterations"] == bench.iteration_stats(iters)


def test_bench_jobs_independent():
    ps = problem.builtin("ex3")
    c = cfg()
    p1 = bench.stats_payload(bench.run_bench(ps, 10, ["qnm", "sd"], 7, c, jobs=1), c)
    p8 = bench.stats_payload(bench.run_bench(ps, 10, ["qnm", "sd"], 7, c, jobs=8), c)
    assert json.dumps(p1, sort_keys=True) == json.dumps(p8, sort_keys=True)


def _lambda_spec(values=None):
    """ex5 rebuilt from lambdas, which cannot be pickled."""
    base = problem.builtin("ex5")
    return problem.ProblemSpec("lambda-ex5", base.n, base.m, base.p, base.cone,
                               base.sample_box, values or (lambda x: base.values_fn(x)),
                               lambda x: base.jacobians_fn(x))


def test_pool_solves_unpicklable_spec_like_in_process():
    ps = _lambda_spec()
    with pytest.raises(Exception):
        pickle.dumps(ps)
    serial = bench.run_bench(ps, 6, ["qnm", "sd"], 3, cfg(), jobs=1)
    for jobs in (2, 3):
        pooled = bench.run_bench(ps, 6, ["qnm", "sd"], 3, cfg(), jobs=jobs)
        assert list(pooled.runs) == list(serial.runs) == ["qnm", "sd"]
        for key in serial.runs:
            assert ([dataclasses.replace(r, seconds=0.0) for r in pooled.runs[key]]
                    == [dataclasses.replace(r, seconds=0.0) for r in serial.runs[key]])


def test_pool_solves_in_worker_processes(tmp_path):
    log = tmp_path / "pids"
    log.touch()
    base = problem.builtin("ex5")
    caller = str(os.getpid())

    def values(x):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        # The caller's first start waits until a child has taken one.
        deadline = time.monotonic() + 10.0
        while (str(os.getpid()) == caller and set(log.read_text().split()) == {caller}
               and time.monotonic() < deadline):
            time.sleep(0.001)
        return base.values_fn(x)

    def pids():
        found = set(log.read_text().split())
        log.write_text("")
        return found

    # the caller solves too: two processes for jobs=2
    bench.run_bench(_lambda_spec(values), 10, ["qnm", "sd"], 3, cfg(), jobs=2)
    solvers = pids()
    assert caller in solvers and len(solvers) == 2
    # never more processes than tasks
    bench.run_bench(_lambda_spec(values), 3, ["qnm"], 3, cfg(), jobs=8)
    assert len(pids()) <= 3
    _assert_no_child_left()


def test_pool_worker_exception_reaches_caller():
    def values(x):
        raise LookupError("no such image")

    with pytest.raises(LookupError, match="no such image"):
        bench.run_bench(_lambda_spec(values), 4, ["qnm"], 3, cfg(), jobs=2)


# --- forked solving: failures and scale --------------------------------------

def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def _deadline(seconds):
    """Turn a hang into a TimeoutError raised in the caller."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _stub_run(tmp_path, in_child):
    """A stand-in for solver.run.  The caller's calls wait until a child has
    started one; a child's calls run `in_child()` first."""
    flag = tmp_path / "child-started"
    caller = os.getpid()

    def run(ps, x0, run_cfg):
        if os.getpid() == caller:
            deadline = time.monotonic() + 10.0
            while not flag.exists() and time.monotonic() < deadline:
                time.sleep(0.001)
        else:
            flag.touch()
            in_child()
        return types.SimpleNamespace(status=solver.CONVERGED, iterations=1)

    return run


def test_pool_child_exception_reaches_caller(tmp_path, monkeypatch):
    def fail():
        raise LookupError("only in a child")

    monkeypatch.setattr(solver, "run", _stub_run(tmp_path, fail))
    with _deadline(30), pytest.raises(LookupError, match="only in a child"):
        bench.run_bench(problem.builtin("ex5"), 20, ["qnm"], 3, cfg(), jobs=2)
    _assert_no_child_left()


def test_pool_child_that_dies_is_a_typed_error(tmp_path, monkeypatch):
    monkeypatch.setattr(solver, "run", _stub_run(tmp_path, lambda: os._exit(3)))
    with _deadline(30), pytest.raises(WorkerDied, match="status 3") as ei:
        bench.run_bench(problem.builtin("ex5"), 20, ["qnm"], 3, cfg(), jobs=2)
    assert ei.value.status == 3 and str(ei.value.pid) in str(ei.value)
    assert ei.value.pid != os.getpid()
    _assert_no_child_left()


def test_pool_caller_exception_reaps_every_child(monkeypatch):
    caller = os.getpid()

    def run(ps, x0, run_cfg):
        if os.getpid() == caller:
            raise KeyError("in the caller's share")
        time.sleep(0.01)
        return types.SimpleNamespace(status=solver.CONVERGED, iterations=1)

    monkeypatch.setattr(solver, "run", run)
    with _deadline(30), pytest.raises(KeyError, match="in the caller's share"):
        bench.run_bench(problem.builtin("ex5"), 50, ["qnm", "sd"], 3, cfg(), jobs=3)
    _assert_no_child_left()


def test_pool_unpicklable_child_exception_arrives_as_its_repr(tmp_path, monkeypatch):
    class LocalError(Exception):     # a local class cannot be pickled
        pass

    def fail():
        raise LocalError("cannot travel")

    monkeypatch.setattr(solver, "run", _stub_run(tmp_path, fail))
    with _deadline(30), pytest.raises(RuntimeError, match=r"LocalError\('cannot travel'\)"):
        bench.run_bench(problem.builtin("ex5"), 20, ["qnm"], 3, cfg(), jobs=2)
    _assert_no_child_left()


@pytest.mark.parametrize("child_dies, starts, methods",
                         [(False, 10000, ["qnm", "sd"]), (True, 10000, ["qnm", "sd"]),
                          (False, 1025, ["qnm"])],    # 1025: the last token holds one task
                         ids=["False", "True", "1025"])
def test_pool_runs_more_tasks_than_a_pipe_holds(child_dies, starts, methods, monkeypatch):
    caller = os.getpid()

    def run(ps, x0, run_cfg):
        if child_dies and os.getpid() != caller:
            os._exit(3)
        return types.SimpleNamespace(status=solver.CONVERGED, iterations=int(x0[0]))

    monkeypatch.setattr(bench, "sample_start", lambda ps, seed, k, box=None: np.array([k]))
    monkeypatch.setattr(solver, "run", run)
    ps = problem.builtin("ex5")
    if child_dies:
        with _deadline(30), pytest.raises(WorkerDied, match="status 3"):
            bench.run_bench(ps, starts, methods, 3, cfg(), jobs=3)
    else:
        with _deadline(30):
            result = bench.run_bench(ps, starts, methods, 3, cfg(), jobs=3)
        for key in methods:
            assert [(r.start_index, r.iterations) for r in result.runs[key]] == \
                [(k, k) for k in range(starts)]
    _assert_no_child_left()


def _run_python(code):
    """Run `code` in a fresh interpreter whose stdout, a pipe, is block-buffered."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**env, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_pooled_run_imports_no_multiprocessing():
    out = _run_python(
        "import sys; from setopt import bench, problem, solver; "
        "bench.run_bench(problem.builtin('ex5'), 4, ['qnm'], 3, solver.SolverConfig(), jobs=2); "
        "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    assert out.strip() == "[]"


def test_pool_prints_what_children_print_once():
    # a child leaves by os._exit, which flushes no buffer
    out = _run_python(
        "import os, time; from setopt import bench, problem, solver\n"
        "caller = os.getpid(); run = solver.run\n"
        "def noisy(ps, x0, cfg):\n"
        "    if os.getpid() != caller: print('child', end=';')\n"
        "    else: time.sleep(0.005)\n"
        "    return run(ps, x0, cfg)\n"
        "solver.run = noisy\n"
        "print('before', end=';')\n"
        "bench.run_bench(problem.builtin('ex5'), 40, ['qnm'], 3, solver.SolverConfig(), jobs=2)\n")
    assert out.count("before;") == 1 and "child;" in out


def test_run_bench_keeps_every_knob(monkeypatch):
    seen = []
    original = solver.run

    def spy(ps, x0, run_cfg):
        seen.append(run_cfg)
        return original(ps, x0, run_cfg)

    monkeypatch.setattr(solver, "run", spy)
    knobs = solver.SolverConfig(beta=0.3, nu=0.7, eps_stop=2e-3, max_iter=40, max_backtracks=30)
    result = bench.run_bench(problem.builtin("ex5"), 2, ["qnm", "sd"], 4, knobs)
    assert [r.method for r in seen] == ["quasi_newton"] * 2 + ["steepest_descent"] * 2
    for run_cfg in seen:
        assert run_cfg.seed == 4
        assert dataclasses.replace(run_cfg, method=knobs.method, seed=knobs.seed) == knobs
    echo = bench.stats_payload(result, knobs)["config"]
    assert {k: echo[k] for k in ("beta", "nu", "eps_stop", "max_iter", "max_backtracks")} == \
        {"beta": 0.3, "nu": 0.7, "eps_stop": 2e-3, "max_iter": 40, "max_backtracks": 30}


def test_config_echo_holds_the_seed_the_starts_were_solved_at():
    """run_bench solves every start at its seed argument, whatever cfg.seed holds."""
    result = bench.run_bench(problem.builtin("ex5"), 2, ["qnm"], 5, cfg())
    assert cfg().seed == 0
    assert bench.stats_payload(result, cfg())["config"]["seed"] == result.seed == 5


def test_config_echo_lists_every_setting(tmp_path):
    """Every SolverConfig field is echoed."""
    fields = {f.name for f in dataclasses.fields(solver.SolverConfig)}
    ps = problem.builtin("ex5")
    echo = bench.stats_payload(bench.run_bench(ps, 1, ["qnm"], 0, cfg()), cfg())["config"]
    assert set(echo) | {"method"} == fields
    bench.write_solve_summary(solver.run(ps, [4.0], cfg()), cfg(), str(tmp_path / "summary.json"))
    assert set(json.loads((tmp_path / "summary.json").read_text())["config"]) == fields


def test_qnm_beats_sd_on_ex3():
    ps = problem.builtin("ex3")
    result = bench.run_bench(ps, 20, ["qnm", "sd"], 7, cfg())
    payload = bench.stats_payload(result, cfg())
    assert (payload["methods"]["qnm"]["iterations"]["median"]
            <= payload["methods"]["sd"]["iterations"]["median"])


def test_format_table():
    ps = problem.builtin("ex5")
    result = bench.run_bench(ps, 5, ["qnm"], 1, cfg())
    table = bench.format_table(result)
    assert "Median" in table and "qnm" in table and "statuses" in table


# --- CLI -------------------------------------------------------------------

def test_cli_solve_ok(tmp_path, capsys):
    code = cli.main(["solve", "--problem", "ex1", "--x0", "2.3",
                     "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "ex1_qnm_trace.csv").exists()
    header = open(tmp_path / "ex1_qnm_trace.csv").readline().strip()
    assert header == "k,x1,u_norm,phi,t,q,varsigma,gap,skips,millis"


def test_cli_solve_bad_beta(tmp_path, capsys):
    code = cli.main(["solve", "--problem", "ex1", "--x0", "2.3",
                     "--beta", "1.5", "--out", str(tmp_path)])
    assert code == 64
    assert "(0,1)" in capsys.readouterr().err


def test_cli_solve_unknown_problem(capsys):
    assert cli.main(["solve", "--problem", "nosuch", "--x0", "1"]) == 64


def test_cli_solve_bad_x0(tmp_path, capsys):
    assert cli.main(["solve", "--problem", "ex3", "--x0", "1.0",
                     "--out", str(tmp_path)]) == 64


@pytest.mark.parametrize("x0", ["inf,1", "nan,1", "1,-inf"])
def test_cli_solve_non_finite_x0_is_a_usage_error(x0, tmp_path, capsys):
    assert cli.main(["solve", "--problem", "ex3", "--x0", x0, "--out", str(tmp_path)]) == 64
    assert "--x0 must be finite" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("box", ["nan:1", "0:inf", "nan:nan"])
def test_cli_bench_non_finite_box_is_a_usage_error(box, tmp_path, capsys):
    code = cli.main(["bench", "--problem", "ex1", "--starts", "2", "--box", box,
                     "--out", str(tmp_path)])
    assert code == 64
    assert "--box bounds must be finite" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_cli_bench_negative_seed_is_a_usage_error(tmp_path, capsys):
    code = cli.main(["bench", "--problem", "ex1", "--starts", "2", "--seed", "-1",
                     "--out", str(tmp_path)])
    assert code == 64
    assert "seed must be at least 0" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("eps", ["nan", "inf"])
def test_cli_solve_non_finite_eps_is_a_usage_error(eps, tmp_path, capsys):
    code = cli.main(["solve", "--problem", "ex1", "--x0", "2.3", "--eps", eps,
                     "--out", str(tmp_path)])
    assert code == 64
    assert "eps_stop" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["solve", "--trace-images"], ["solve", "--seed", "1"],
                                  ["plot-data", "--seed", "1"]])
def test_cli_flags_without_effect_are_usage_errors(argv, tmp_path):
    with pytest.raises(SystemExit) as ei:
        cli.main(argv + ["--problem", "ex1", "--x0", "2.3", "--out", str(tmp_path)])
    assert ei.value.code == 64
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("verb", ["solve", "plot-data"])
def test_cli_x0_may_start_with_a_negative_number(verb, tmp_path):
    for x0 in ("-1,2", "-.5,-2", "-1e-1,3"):
        assert cli.main([verb, "--problem", "ex3", "--x0", x0, "--out", str(tmp_path)]) == 0
    assert cli.main([verb, "--problem", "ex1", "--x0", "-1", "--out", str(tmp_path)]) == 0


def test_cli_bench_box_may_start_with_a_negative_number(tmp_path):
    assert cli.main(["bench", "--problem", "ex3", "--starts", "2", "--methods", "sd",
                     "--box", "-1:1,-2:-1", "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "ex3_bench_sd_raw.csv").read_text().splitlines()[1:]
    x0 = np.array([[float(v) for v in row.split(",")[1:3]] for row in rows])
    assert np.all((-1 <= x0[:, 0]) & (x0[:, 0] <= 1) & (-2 <= x0[:, 1]) & (x0[:, 1] <= -1))


def test_cli_bench_seed_selects_the_starts(tmp_path):
    seeds = {}
    for seed in ("3", "4"):
        d = tmp_path / seed
        assert cli.main(["bench", "--problem", "ex5", "--starts", "3", "--methods", "qnm",
                         "--seed", seed, "--out", str(d)]) == 0
        stats = json.loads((d / "ex5_bench_stats.json").read_text())
        assert stats["seed"] == stats["config"]["seed"] == int(seed)
        rows = (d / "ex5_bench_qnm_raw.csv").read_text().splitlines()[1:]
        seeds[seed] = [row.split(",")[1] for row in rows]     # x0_1 of each start
    assert seeds["3"] != seeds["4"]


def test_cli_bench_deterministic(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        code = cli.main(["bench", "--problem", "ex5", "--starts", "6",
                         "--seed", "7", "--jobs", "2", "--out", str(d)])
        assert code == 0
    assert (d1 / "ex5_bench_stats.json").read_bytes() == \
        (d2 / "ex5_bench_stats.json").read_bytes()


def test_cli_plotdata_refuses_m4(tmp_path, capsys):
    prob = tmp_path / "wide.prob"
    prob.write_text("[meta]\nname=wide n=1 m=4 p=2\n[box]\n-1 1\n"
                    "[functions]\nx1^2\nx1+i\n2*x1\nx1-i\n")
    code = cli.main(["plot-data", "--problem", str(prob), "--x0", "0.5",
                     "--out", str(tmp_path)])
    assert code == 64
    assert "m <= 3" in capsys.readouterr().err


def test_cli_plotdata_ok(tmp_path):
    code = cli.main(["plot-data", "--problem", "ex1", "--x0", "2.3",
                     "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "ex1_qnm_images.csv").exists()


@pytest.mark.parametrize("verb, files", [("solve", ["trace.csv"]),
                                         ("plot-data", ["images.csv", "decisions.csv"])])
def test_cli_run_without_records_writes_full_headers(verb, files, tmp_path, capsys):
    """ex1's first evaluation overflows at x0 = 800, so the run has no
    records; each CSV still has the header of a converged run."""
    for x0, out, code in (("2.3", "converged", 0), ("800", "overflow", 3)):
        assert cli.main([verb, "--problem", "ex1", "--x0", x0,
                         "--out", str(tmp_path / out)]) == code
    for name in files:
        header = (tmp_path / "converged" / f"ex1_qnm_{name}").read_text().splitlines()[0]
        assert (tmp_path / "overflow" / f"ex1_qnm_{name}").read_text().splitlines() == [header]


def test_cli_check_passes(capsys):
    path = problem.builtin_file("ex1")
    assert cli.main(["check", "--problem", path, "--samples", "5"]) == 0
    out = capsys.readouterr().out
    assert "jacobian audit" in out


def test_cli_check_bad_cone(tmp_path, capsys):
    prob = tmp_path / "bad.prob"
    prob.write_text("[meta] name=bad n=1 m=2 p=1\n[cone] rows=2\n1 0\n-1 0\n"
                    "e=1 1\n[box]\n-1 1\n[functions]\nx1\nx1^2\n")
    assert cli.main(["check", "--problem", str(prob)]) == 1
    assert "RankDeficient" in capsys.readouterr().out


def test_cli_check_domain_error(tmp_path, capsys):
    prob = tmp_path / "dom.prob"
    prob.write_text("[meta]\nname=dom n=1 m=1 p=1\n[box]\n-1 1\n"
                    "[functions]\nlog(x1)\n")
    assert cli.main(["check", "--problem", str(prob), "--samples", "20"]) == 1
    assert "DomainError" in capsys.readouterr().out


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as ei:
        cli.main(["solve"])   # missing required flags
    assert ei.value.code == 64


@pytest.mark.parametrize("methods", [",", " , ", "qnm,qnm", "sd,qnm,sd"])
def test_cli_bench_methods_empty_or_repeated_is_a_usage_error(methods, tmp_path, capsys):
    code = cli.main(["bench", "--problem", "ex5", "--starts", "2", "--methods", methods,
                     "--out", str(tmp_path)])
    assert code == 64
    assert "--methods" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_cli_check_samples_below_one_is_a_usage_error(samples, capsys):
    assert cli.main(["check", "--problem", "ex1", "--samples", samples]) == 64
    out, err = capsys.readouterr()
    assert "--samples" in err and "ok" not in out


def test_cli_check_negative_seed_is_a_usage_error(capsys):
    assert cli.main(["check", "--problem", "ex1", "--seed", "-1"]) == 64
    out, err = capsys.readouterr()
    assert "--seed must be at least 0" in err and "ok" not in out


def test_cli_check_directory_is_a_load_failure(tmp_path, capsys):
    assert cli.main(["check", "--problem", str(tmp_path)]) == 1
    assert capsys.readouterr().out.startswith("FAIL IsADirectoryError: ")


def test_cli_json_files_are_sorted_indented_and_end_in_a_newline(tmp_path, capsys):
    assert cli.main(["solve", "--problem", "ex5", "--x0", "4.0", "--out", str(tmp_path)]) == 0
    assert cli.main(["bench", "--problem", "ex5", "--starts", "3", "--out", str(tmp_path)]) == 0
    paths = sorted(tmp_path.glob("*.json"))
    assert [p.name for p in paths] == ["ex5_bench_stats.json", "ex5_bench_timing.json",
                                       "ex5_qnm_summary.json"]
    for path in paths:
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", path.name


def test_env_out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("SETOPT_OUT_DIR", str(tmp_path / "envout"))
    assert cli.main(["solve", "--problem", "ex5", "--x0", "4.0"]) == 0
    assert (tmp_path / "envout" / "ex5_qnm_trace.csv").exists()


BAD_FILES = {
    "rows": ("[meta] name=b n=1 m=2 p=1\n[cone] rows=x\n1 0\n0 1\ne=1 1\n"
             "[box]\n-1 1\n[functions]\nx1\nx1^2\n", "FormatError"),
    "box": ("[meta] name=b n=1 m=1 p=1\n[box]\n0 abc\n[functions]\nx1\n", "FormatError"),
    "parse": ("[meta] name=b n=1 m=1 p=1\n[box]\n-1 1\n[functions]\nx1 +\n", "ParseError"),
    "cone": ("[meta] name=b n=1 m=2 p=1\n[cone] rows=2\n1 0\n-1 0\ne=1 1\n"
             "[box]\n-1 1\n[functions]\nx1\nx1^2\n", "RankDeficient"),
    "utf8": (b"\xff\xfe[meta] name=b n=1 m=1 p=1\n[box]\n-1 1\n[functions]\nx1\n", "FormatError"),
}


@pytest.mark.parametrize("case", sorted(BAD_FILES))
def test_cli_bad_problem_file_is_a_file_error(case, tmp_path, capsys):
    text, error = BAD_FILES[case]
    prob = tmp_path / f"{case}.prob"
    prob.write_bytes(text if isinstance(text, bytes) else text.encode())
    code = cli.main(["solve", "--problem", str(prob), "--x0", "0.5", "--out", str(tmp_path)])
    assert code == 74
    assert error in capsys.readouterr().err


@pytest.mark.parametrize("p", ["1000000000000", "100000000000000000000"])
def test_cli_p_too_large_for_an_index_vector_is_a_file_error(p, tmp_path, capsys):
    prob = tmp_path / "huge.prob"
    prob.write_text(f"[meta] name=huge n=1 m=1 p={p}\n[box]\n-1 1\n[functions]\nx1*i\n")
    code = cli.main(["solve", "--problem", str(prob), "--x0", "0", "--out", str(tmp_path)])
    assert code == 74
    assert f"FormatError: [meta] p={p} " in capsys.readouterr().err
    assert cli.main(["check", "--problem", str(prob)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"FAIL FormatError: [meta] p={p} ")


def test_python_dash_m_entry_point(tmp_path):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "setopt",
                           "solve", "--problem", "ex5", "--x0", "4.0", "--out", str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert (tmp_path / "ex5_qnm_summary.json").exists()


@pytest.mark.parametrize("name", ["ex5", "ex4"])         # Q = 2 and Q = 3
def test_cli_check_oracles_agree_on_a_builtin(name, capsys):
    code = cli.main(["check", "--problem", name, "--samples", "3", "--oracle", "gerstewitz",
                     "--oracle", "min", "--oracle", "subproblem"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert len(lines) == 5 and all(line.startswith("ok ") for line in lines)
    assert "minimal-element oracle: agrees on 50 random sets, 25 with repeated rows" in lines[3]
