import dataclasses
import json
import os
import sys

import numpy as np
import pytest

from setopt import bench, cone, direction, problem, setorder, solver
from setopt.errors import LineSearchFailure

from conftest import make_scalar_problem


def paper_cfg(**kw):
    return solver.SolverConfig(**{"beta": 0.5, "nu": 0.6, "eps_stop": 1e-3,
                                  "max_iter": 100, **kw})


def test_config_validation():
    with pytest.raises(ValueError):
        solver.SolverConfig(beta=1.5)
    with pytest.raises(ValueError):
        solver.SolverConfig(nu=0.0)
    with pytest.raises(ValueError):
        solver.SolverConfig(method="newton")
    with pytest.raises(ValueError, match="max_iter"):
        solver.SolverConfig(max_iter=0)
    with pytest.raises(ValueError, match="max_backtracks"):
        solver.SolverConfig(max_backtracks=-1)
    with pytest.raises(ValueError, match="seed must be at least 0"):
        solver.SolverConfig(seed=-1)
    assert solver.SolverConfig(max_backtracks=0).max_backtracks == 0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, value", [("max_iter", 2.5), ("max_backtracks", 1.5),
                                         ("max_iter", "5"), ("max_iter", 5.0), ("seed", 2.5)])
def test_config_counts_must_be_integers(name, value):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        solver.SolverConfig(**{name: value})


def test_config_counts_accept_numpy_integers(tmp_path):
    cfg = solver.SolverConfig(max_iter=np.int64(3), max_backtracks=np.int32(0))
    assert solver.run(problem.builtin("ex1"), [1.0], cfg).iterations <= 3
    # numpy numbers are stored as plain ones, so the artifact writers can echo them
    cfg = solver.SolverConfig(beta=np.float32(0.5), nu=np.float64(0.6), eps_stop=np.float32(1e-3),
                              max_iter=np.int64(5), max_backtracks=np.int32(60), seed=np.int32(3))
    assert {type(v) for v in dataclasses.asdict(cfg).values()} == {float, int, str}
    ps = problem.builtin("ex1")
    bench.write_solve_summary(solver.run(ps, [1.0], cfg), cfg, str(tmp_path / "summary.json"))
    result = bench.run_bench(ps, 2, ["qnm"], 3, cfg)
    bench.write_json(bench.stats_payload(result, cfg), str(tmp_path / "stats.json"))
    echo = json.loads((tmp_path / "summary.json").read_text())["config"]
    assert echo == dataclasses.asdict(cfg)
    assert json.loads((tmp_path / "stats.json").read_text())["config"]["seed"] == 3


@pytest.mark.parametrize("eps", [float("nan"), float("inf")])
def test_config_eps_stop_must_be_finite_and_positive(eps):
    with pytest.raises(ValueError, match="eps_stop"):
        solver.SolverConfig(eps_stop=eps)


@pytest.mark.parametrize("name, x0", [("ex6", [np.inf, 1.0]), ("ex3", [np.nan, 1.0]),
                                      ("ex1", [-np.inf])])
def test_run_rejects_a_non_finite_start(name, x0):
    with pytest.raises(ValueError, match="finite"):
        solver.run(problem.builtin(name), x0, solver.SolverConfig())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("method", solver.METHODS)
def test_overflow_far_from_the_box_ends_numerical_error(method):
    """ex7's squared distances overflow on lanes at 1e160: typed, with no numpy warning."""
    ps = problem.builtin("ex7")
    trace = solver.run(ps, ps.sample_box.mean(axis=1) + 1e160, paper_cfg(method=method))
    assert trace.status == solver.NUMERICAL_ERROR
    assert "is not finite" in trace.message and trace.iterations == 0


@pytest.mark.parametrize("method, iterations", [("quasi_newton", 3), ("steepest_descent", 8)])
def test_ex4_inner_solves_converge(monkeypatch, method, iterations):
    """ex4's subproblems repeat each of 3 terms 10 times; every inner solve converges."""
    flags = []
    original = direction.solve_minmax

    def spy(*args, **kwargs):
        out = original(*args, **kwargs)
        flags.append(out[4])
        return out

    monkeypatch.setattr(direction, "solve_minmax", spy)
    ps = problem.builtin("ex4")
    trace = solver.run(ps, bench.sample_start(ps, 1, 25), paper_cfg(method=method, max_iter=20))
    assert (trace.status, trace.iterations) == (solver.CONVERGED, iterations)
    assert len(flags) == iterations and all(flags)


@pytest.mark.filterwarnings("error")
def test_singular_subproblem_ends_the_run_with_a_numerical_error(monkeypatch):
    """A store of zero matrices makes H(lam) singular at the first subproblem."""
    class ZeroStore(direction.HessianStore):
        def __init__(self, n, p, Q):
            super().__init__(n, p, Q)
            self.matrices[:] = 0.0

    monkeypatch.setattr(direction, "HessianStore", ZeroStore)
    ps = problem.builtin("ex1")
    trace = solver.run(ps, bench.sample_start(ps, 7, 0), paper_cfg())
    assert trace.status == solver.NUMERICAL_ERROR
    assert trace.message == "averaged matrix H(lam) is singular"
    assert trace.iterations == 0


def test_armijo_hand_example():
    """f = x^2 at x = 1 with H = 1: u = -2 and phi = 2u + u^2/2 = -2.

    t = 1 gives f(-1) = 1 > 1 - 0.5*2; t = 0.6 gives f(-0.2) = 0.04 <= 1 - 0.5*0.6*2.
    """
    ps = make_scalar_problem(lambda t: t * t, lambda t: 2.0 * t)
    cfg = paper_cfg()
    t, q, _, _ = solver.armijo_backtrack(ps, [1.0], (1,), [-2.0], problem.eval_F(ps, [1.0]),
                                         -2.0, cfg)
    assert q == 1 and t == pytest.approx(0.6)


def test_armijo_linear_accepts_full_step():
    c = 3.0
    ps = make_scalar_problem(lambda t: c * t, lambda t: c)
    # H = 1: u = -c and phi = -c^2/2
    t, q, _, _ = solver.armijo_backtrack(ps, [0.0], (1,), [-c], problem.eval_F(ps, [0.0]),
                                         -0.5 * c * c, paper_cfg())
    assert q == 0 and t == 1.0


def test_armijo_failure_on_ascent_direction():
    ps = make_scalar_problem(lambda t: t * t, lambda t: 2.0 * t)
    with pytest.raises(LineSearchFailure):
        # u points uphill yet we feed a fake negative phi; the backtrack cap
        # is kept low enough that the 1e-12 slack cannot absorb the violation
        solver.armijo_backtrack(ps, [1.0], (1,), [2.0], problem.eval_F(ps, [1.0]),
                                -2.0, paper_cfg(max_backtracks=20))


def test_armijo_failure_names_the_first_violating_component():
    """Of two selected components only the second fails the one trial allowed.

    At t = 1 and phi = -1: -1 <= 0 - 0.5 holds, 0.81 <= 0.01 - 0.5 does not.
    """
    def values(x):
        return np.array([[-x[0]], [(x[0] - 0.1) ** 2]])

    def jacobians(x):
        return np.array([[[-1.0]], [[2.0 * (x[0] - 0.1)]]])

    ps = problem.ProblemSpec("two", 1, 1, 2, cone.nonnegative_orthant(1),
                             np.array([[-1.0, 1.0]]), values, jacobians)
    x = np.zeros(1)
    with pytest.raises(LineSearchFailure) as info:
        solver.armijo_backtrack(ps, x, (1, 2), [1.0], values(x), -1.0,
                                paper_cfg(max_backtracks=0))
    assert info.value.violating_component == 2
    assert str(info.value) == "no Armijo step within 0 backtracks (component j=2 of the selector)"


def first_order_backtracks(ps, x, a, u, F, J, cfg):
    """q of the first-order test f_j(x + t*u) <=_K f_j(x) + beta*t*J_j u on
    every j of a, written out; max_backtracks + 1 if no trial passes."""
    for q in range(cfg.max_backtracks + 1):
        t = cfg.nu ** q
        F_trial = problem.eval_F(ps, x + t * u)
        if all(cone.leq(ps.cone, F_trial[i - 1], F[i - 1] + cfg.beta * t * J[i - 1] @ u,
                        tol=solver.TOL_ARMIJO) for i in a):
            return q
    return cfg.max_backtracks + 1


# ex5 is left out: every run of it stops at its first iterate, with no step
@pytest.mark.parametrize("name", ["ex1", "ex2", "ex3", "ex4", "ex6", "ex7", "large-p"])
def test_phi_test_backtracks_no_more_than_the_first_order_test(name):
    """theta_t(u) <= phi with H_t SPD gives g_t'u < phi, so at the same
    iterate every step the first-order test accepts, the phi test accepts."""
    if name == "large-p":
        sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
        from workloads import large_p_spec
        ps = large_p_spec(200)
    else:
        ps = problem.builtin(name)
    cfg = paper_cfg()
    steps = 0
    for method in solver.METHODS:
        for k in range(3):
            trace = solver.run(ps, bench.sample_start(ps, 3, k), paper_cfg(method=method))
            for r in trace.records:
                if r.t == 0.0:
                    continue
                F, J = problem.eval_F(ps, r.x), problem.eval_jacobians(ps, r.x)
                q = solver.armijo_backtrack(ps, r.x, r.a, r.u, F, r.phi, cfg)[1]
                assert q == r.backtracks
                assert q <= first_order_backtracks(ps, r.x, r.a, r.u, F, J, cfg)
                steps += 1
    assert steps > 0


def test_ex7_counts_do_not_depend_on_the_armijo_slack(monkeypatch):
    """ex7's images reach about 2e3, and a Newton step of its quadratics lands
    on the beta = 1/2 boundary of the first-order test, where a rounding of
    3e-13 decided t = 1.  The phi test keeps a margin of beta*t*|phi| there."""
    ps = problem.builtin("ex7")
    starts = [np.array([-47.036068827724094, 8.14046340434038])]
    starts += [bench.sample_start(ps, s, k) for s in (3, 5, 7) for k in range(15)]
    outcomes = []
    for tol in (0.0, 1e-12, 1e-9):
        monkeypatch.setattr(solver, "TOL_ARMIJO", tol)
        outcomes.append([(trace.status, trace.iterations)
                         for method in solver.METHODS for x0 in starts
                         for trace in [solver.run(ps, x0, paper_cfg(method=method))]])
    assert outcomes[0] == outcomes[1] == outcomes[2]
    assert all(status == solver.CONVERGED for status, _ in outcomes[0])


@pytest.mark.parametrize("method", solver.METHODS)
@pytest.mark.parametrize("max_iter, status", [(100, solver.CONVERGED),
                                              (2, solver.MAX_ITERATIONS)])
def test_run_evaluates_each_point_once(method, max_iter, status):
    """F once at x0 and once per Armijo trial; J once per iterate that uses it.

    Every iterate's J feeds its subproblem; qnm also needs J at the last
    accepted point for the BFGS secant pair, sd does not.
    """
    base = problem.builtin("ex3")
    f_at, j_at = [], []

    def values(x):
        f_at.append(x.tobytes())
        return base.values_fn(x)

    def jacobians(x):
        j_at.append(x.tobytes())
        return base.jacobians_fn(x)

    ps = dataclasses.replace(base, values_fn=values, jacobians_fn=jacobians)
    x0 = np.array([2.0, 2.0])
    trace = solver.run(ps, x0, paper_cfg(method=method, max_iter=max_iter))
    assert trace.status == status
    steps = [r for r in trace.records if r.t > 0.0]
    assert len(steps) == trace.iterations - (status == solver.CONVERGED)

    assert f_at[0] == x0.tobytes()
    assert len(f_at) == 1 + sum(r.backtracks + 1 for r in steps)
    assert len(set(f_at)) == len(f_at)

    points = [r.x.tobytes() for r in trace.records]
    if method == "quasi_newton" and status == solver.MAX_ITERATIONS:
        points.append(trace.x_final.tobytes())
    assert j_at == points


def test_scalar_quadratic_reduces_to_bfgs():
    ps = make_scalar_problem(lambda t: t * t, lambda t: 2.0 * t)
    trace = solver.run(ps, [5.0], paper_cfg())
    assert trace.status == solver.CONVERGED
    assert abs(trace.x_final[0]) <= 1e-2
    assert trace.records[-1].u_norm < 1e-3


def test_ex1_envelope_from_paper_start():
    ps = problem.builtin("ex1")
    trace = solver.run(ps, [2.3], paper_cfg())
    assert trace.status == solver.CONVERGED
    assert trace.iterations <= 100
    xs = [r.x[0] for r in trace.records]
    assert all(1.5 <= x <= 2.5 for x in xs)
    sigmas = [r.varsigma for r in trace.records]
    assert all(b < a for a, b in zip(sigmas, sigmas[1:]))


def test_ex5_envelope():
    ps = problem.builtin("ex5")
    trace = solver.run(ps, [4.0], paper_cfg())
    assert trace.status == solver.CONVERGED
    assert 2.335 <= trace.x_final[0] <= 4.401
    sigmas = [r.varsigma for r in trace.records]
    assert all(b <= a + 1e-12 for a, b in zip(sigmas, sigmas[1:]))


@pytest.mark.parametrize("name", ["ex1", "ex3", "ex4", "ex6"])
def test_descent_recursion_and_phi_negative(name):
    ps = problem.builtin(name)
    trace = solver.run(ps, bench.sample_start(ps, 2, 0), paper_cfg())
    assert trace.status == solver.CONVERGED
    recs = trace.records
    for prev, nxt in zip(recs, recs[1:]):
        assert prev.phi < 0.0
        assert nxt.varsigma <= prev.varsigma + paper_cfg().beta * prev.t * prev.phi + 1e-10


def test_set_descent_against_armijo_model():
    ps = problem.builtin("ex3")
    trace = solver.run(ps, [1.0, -1.5], paper_cfg())
    assert trace.status == solver.CONVERGED
    for prev, nxt in zip(trace.records, trace.records[1:]):
        F_next = problem.eval_F(ps, nxt.x)
        for i in prev.a:
            model = problem.eval_F(ps, prev.x)[i - 1] + 0.5 * prev.t * prev.phi * ps.cone.e
            assert any(cone.leq(ps.cone, v, model, tol=1e-9) for v in F_next)


def test_stopping_soundness_and_determinism():
    ps = problem.builtin("ex4")
    cfg = paper_cfg(seed=3)
    t1 = solver.run(ps, [1.0, 1.0], cfg)
    t2 = solver.run(ps, [1.0, 1.0], cfg)
    assert t1.status == solver.CONVERGED
    assert t1.records[-1].u_norm < cfg.eps_stop
    assert t1.iterations == t2.iterations
    for a, b in zip(t1.records, t2.records):
        assert np.array_equal(a.x, b.x) and a.u_norm == b.u_norm and a.t == b.t


def test_steepest_descent_mode_runs():
    ps = problem.builtin("ex3")
    trace = solver.run(ps, [1.0, -1.5], paper_cfg(method="steepest_descent"))
    assert trace.status == solver.CONVERGED
    assert trace.store is None
    assert all(r.bfgs_skips == 0 for r in trace.records)


def test_max_iterations_status():
    ps = problem.builtin("ex6")
    trace = solver.run(ps, [2.0, -2.0], paper_cfg(max_iter=2))
    assert trace.status in (solver.MAX_ITERATIONS, solver.CONVERGED)
    if trace.status == solver.MAX_ITERATIONS:
        assert trace.iterations == 2


def test_hessian_store_spd_after_run():
    ps = problem.builtin("ex4")
    trace = solver.run(ps, [-3.0, 2.0], paper_cfg())
    assert trace.status == solver.CONVERGED
    assert trace.store.spd_check()
    assert trace.store.min_eigenvalue() > 0.0


def test_boundedness_probe():
    ps = problem.builtin("ex3")
    trace = solver.run(ps, [2.0, 2.0], paper_cfg())
    bound = solver.direction_bound(trace, ps)
    assert bound is not None
    assert max(r.u_norm for r in trace.records) <= bound + 1e-9


@pytest.mark.parametrize("name", ["ex3", "ex6"])
def test_direction_bound_from_recorded_points(name):
    """C in 2*C*L/rho is the largest Jacobian spectral norm over the recorded x."""
    ps = problem.builtin(name)
    trace = solver.run(ps, bench.sample_start(ps, 2, 0), paper_cfg())
    C = max(float(np.linalg.norm(problem.eval_jacobians(ps, r.x), 2, axis=(1, 2)).max())
            for r in trace.records)
    expect = 2.0 * C * ps.cone.lipschitz / trace.store.min_eigenvalue()
    assert solver.direction_bound(trace, ps) == expect


def test_stationarity_report_quadratic():
    ps = make_scalar_problem(lambda t: t * t, lambda t: 2.0 * t)
    rep = solver.stationarity_report(ps, [0.0], None, paper_cfg())
    assert rep.phi == 0.0 and rep.u_norm == 0.0
    assert rep.min_equals_wmin and rep.w == 1


def test_stationarity_report_nonstationary():
    ps = make_scalar_problem(lambda t: t * t, lambda t: 2.0 * t)
    rep = solver.stationarity_report(ps, [2.0], None, paper_cfg())
    assert rep.phi < 0.0 and rep.u_norm > 0.0


def test_stationarity_at_converged_terminal():
    ps = problem.builtin("ex5")
    cfg = paper_cfg()
    trace = solver.run(ps, [4.0], cfg)
    rep = solver.stationarity_report(ps, trace.x_final, trace.store, cfg)
    assert rep.u_norm <= cfg.eps_stop
    assert abs(rep.phi) <= cfg.eps_stop * (1.0 + ps.cone.lipschitz)


def test_rate_probe_soft_diagnostic():
    """Local-rate probe on the strongly convex instances.

    A full step (t = 1) late in the run is expected but not guaranteed by any
    theorem at these tolerances, so a miss is reported as a warning only.
    """
    import warnings

    for name in ("ex3", "ex4"):
        trace = solver.run(problem.builtin(name), [1.0, -1.5], paper_cfg())
        assert trace.status == solver.CONVERGED
        stepped = [r for r in trace.records if r.t > 0.0]
        assert stepped, "no accepted steps recorded"
        if stepped[-1].t != 1.0:
            warnings.warn(f"{name}: last accepted step t={stepped[-1].t:g}, not 1.0")
        # the contraction ratios over the tail should not blow up
        xs = [r.x for r in trace.records]
        x_bar = trace.x_final
        dists = [np.linalg.norm(x - x_bar) for x in xs[-6:-1]]
        ratios = [b / a for a, b in zip(dists, dists[1:]) if a > 0]
        assert all(r <= 1.5 for r in ratios)


@pytest.mark.parametrize("name, least", [("ex4", 19), ("ex6", 20)])
def test_late_steps_are_unit_steps(name, least):
    """The hard counterpart of the soft probe above: from 20 seeded starts run
    to eps_stop = 1e-9, the last three accepted steps are t = 1 on at least
    the measured number of starts."""
    ps = problem.builtin(name)
    cfg = paper_cfg(eps_stop=1e-9, max_iter=200)
    unit_tails = 0
    for k in range(20):
        trace = solver.run(ps, bench.sample_start(ps, 3, k), cfg)
        assert trace.status == solver.CONVERGED
        steps = [r.t for r in trace.records if r.t > 0.0]
        unit_tails += steps[-3:] == [1.0, 1.0, 1.0]
    assert unit_tails >= least


@pytest.mark.parametrize("name", ["ex3", "ex4"])
def test_late_contraction_is_superlinear(name):
    """The hard counterpart of the soft probe's contraction ratios: from 20
    seeded starts run to eps_stop = 1e-9, the smaller of the last two ratios
    |x_{k+1} - x_bar| / |x_k - x_bar| is below 0.05 (measured: at most 0.031
    on ex3, 0.025 on ex4), and the selector and w are constant over the last
    4 records.  The terminal record's x is x_bar, so its ratio, 0 by
    construction, is left out."""
    ps = problem.builtin(name)
    cfg = paper_cfg(eps_stop=1e-9, max_iter=200)
    for k in range(20):
        trace = solver.run(ps, bench.sample_start(ps, 3, k), cfg)
        assert trace.status == solver.CONVERGED
        dists = [np.linalg.norm(r.x - trace.x_final) for r in trace.records[:-1]]
        ratios = [b / a for a, b in zip(dists, dists[1:])]
        assert min(ratios[-2:]) < 0.05, (k, ratios)
        assert len({(r.a, r.w) for r in trace.records[-4:]}) == 1, k


@pytest.mark.parametrize("name", ["ex3", "ex4"])
def test_dennis_more_quantity_is_small_at_the_last_update(name, monkeypatch):
    """The Dennis-More quantity |(B_t - hess h_t(x_k)) s_k| / |s_k| at the last
    BFGS update of 20 seeded starts run to eps_stop = 1e-9, the largest over the
    selector's terms with lam_t > 1e-12, lam from solve_minmax on the B_k the
    update starts from.  Measured: ex4 at most 0.013 on every start; ex3 a
    median of 0.009 and a maximum of 0.17, with 4 starts above 0.05."""
    ps = problem.builtin(name)
    cfg = paper_cfg(eps_stop=1e-9, max_iter=200)
    before = []    # (B_k, s_k) of each update of the current start
    update = direction.bfgs_update

    def spy(store, s, y_all):
        before.append((store.matrices.copy(), np.array(s)))
        return update(store, s, y_all)

    def grads(x):
        return problem.scalarized_gradients(ps.cone, problem.eval_jacobians(ps, x))

    monkeypatch.setattr(direction, "bfgs_update", spy)
    quantities = []
    for k in range(20):
        before.clear()
        trace = solver.run(ps, bench.sample_start(ps, 3, k), cfg)
        assert trace.status == solver.CONVERGED
        B, s = before[-1]
        x = trace.records[len(before) - 1].x
        sel = np.array(trace.records[len(before) - 1].a) - 1
        B = B.take(sel, 0).reshape(-1, ps.n, ps.n)
        lam = direction.solve_minmax(grads(x).take(sel, 0).reshape(-1, ps.n), B)[2]
        eps = 1e-6    # central differences of the scalarized gradients
        hess = np.stack([(grads(x + eps * e) - grads(x - eps * e)) / (2 * eps)
                         for e in np.eye(ps.n)], axis=-1).take(sel, 0).reshape(-1, ps.n, ps.n)
        quantities.append(max(np.linalg.norm((B[t] - hess[t]) @ s) / np.linalg.norm(s)
                              for t in np.flatnonzero(lam > 1e-12)))
    if name == "ex4":
        assert max(quantities) < 0.05, quantities
    else:
        assert np.median(quantities) < 0.05, quantities


def test_overflow_in_a_builtin_ends_the_start_as_a_numerical_error():
    # exp(x1), at column 4 of ex1's first function, overflows
    trace = solver.run(problem.builtin("ex1"), [800.0], solver.SolverConfig())
    assert trace.status == solver.NUMERICAL_ERROR
    assert "1:4: overflow" in trace.message
