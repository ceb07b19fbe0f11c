"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; each test prints exactly one `[PASS]`/`[FAIL]` line.
"""

import json
import os
import statistics
import time
from contextlib import contextmanager

import numpy as np
import pytest

from setopt import bench, cli, cone, direction, oracle, problem, setorder, solver


@contextmanager
def report(num, desc):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {desc}")
        raise
    print(f"[PASS] criterion {num}: {desc}")


def paper_cfg(**kw):
    return solver.SolverConfig(**{"beta": 0.5, "nu": 0.6, "eps_stop": 1e-3,
                                  "max_iter": 100, **kw})


def test_criterion_1_function_fidelity():
    with report(1, "function values match the published traces within 5e-4"):
        tick = time.perf_counter()
        F1 = problem.eval_F(problem.builtin("ex1"), [2.3])
        assert F1[9] == pytest.approx([23.8454, -0.0901], abs=5e-4)
        assert F1[24] == pytest.approx([23.0660, -1.5080], abs=5e-4)
        assert F1[49] == pytest.approx([22.8153, 0.4762], abs=5e-4)
        F5 = problem.eval_F(problem.builtin("ex5"), [4.0])
        expect = [[85.5982, -0.7345], [86.0982, -1.0209],
                  [86.5982, -1.3073], [87.0982, -1.5937]]
        assert F5 == pytest.approx(np.asarray(expect), abs=5e-4)
        assert time.perf_counter() - tick < 1.0


def _acceptance_cones():
    return [cone.nonnegative_orthant(2), cone.nonnegative_orthant(3),
            problem.builtin("ex5").cone, problem.builtin("ex6").cone]


def test_criterion_2_gerstewitz_properties():
    with report(2, "scalarizing-functional property suite on 1e4 vectors per cone"):
        tick = time.perf_counter()
        for c in _acceptance_cones():
            rng = np.random.default_rng(101)
            Y = rng.uniform(-10.0, 10.0, (10_000, c.m))
            Z = rng.uniform(-10.0, 10.0, (10_000, c.m))
            gy = cone.gerstewitz_batch(c, Y)
            gz = cone.gerstewitz_batch(c, Z)
            # 1. sublinearity
            assert np.all(cone.gerstewitz_batch(c, Y + Z) <= gy + gz + 1e-10)
            # 2. positive homogeneity
            lam = rng.uniform(0.1, 9.0, 10_000)
            assert np.allclose(cone.gerstewitz_batch(c, lam[:, None] * Y),
                               lam * gy, rtol=1e-12, atol=1e-10)
            # 3. translativity along e
            t = Z[:, 0]
            assert np.allclose(cone.gerstewitz_batch(c, Y + t[:, None] * c.e),
                               gy + t, atol=1e-10)
            # 4. monotonicity: y <= y + k for any cone element k
            K_elems = np.linalg.solve(c.A, rng.uniform(0.0, 5.0, (10_000, c.m)).T).T
            assert np.all(gy <= cone.gerstewitz_batch(c, Y + K_elems) + 1e-10)
            # 5. sublevel-set representability: G(y) <= 0  <=>  -y in K
            assert np.array_equal(np.all(Y @ (-c.A.T) >= 0.0, axis=1), gy <= 0.0)
            # 6. Lipschitz continuity with the module's constant
            assert np.all(np.abs(gy - gz)
                          <= c.lipschitz * np.linalg.norm(Y - Z, axis=1) + 1e-10)
            # closed form vs bisection oracle
            for y in Y[:250]:
                assert cone.gerstewitz(c, y) == pytest.approx(
                    oracle.gerstewitz_bisect(c, y, tol=1e-12), abs=1e-10)
        assert time.perf_counter() - tick < 10.0


def test_criterion_3_dominance_oracle_equivalence():
    with report(3, "Min/WMin match brute-force filters on 500 random sets"):
        cones = _acceptance_cones()
        rng = np.random.default_rng(303)
        for trial in range(500):
            c = cones[trial % len(cones)]
            p = int(rng.integers(1, 201))
            vals = rng.uniform(-5.0, 5.0, (p, c.m))
            if trial % 3 == 0 and p > 1:    # inject duplicates
                vals[rng.integers(0, p)] = vals[rng.integers(0, p)]
            assert setorder.minimal_elements(c, vals) == oracle.brute_min(c, vals)
            assert (setorder.weakly_minimal_elements(c, vals)
                    == oracle.brute_wmin(c, vals))


def test_criterion_4_subproblem_oracle_equivalence():
    with report(4, "min-max direction solver matches the grid oracle on 100 instances"):
        rng = np.random.default_rng(404)
        for trial in range(100):
            n = 1 + trial % 2
            T = int(rng.integers(1, 7))
            gs = rng.uniform(-2.0, 2.0, (T, n))
            Hs = np.empty((T, n, n))
            for t in range(T):
                M = rng.uniform(-1.0, 1.0, (n, n))
                Hs[t] = M @ M.T + np.eye(n)
            u, phi, lam, gap, ok = direction.solve_minmax(gs, Hs)
            assert ok and gap <= 1e-10
            step = 1e-3 if n == 1 else 2e-2
            grid = oracle.GridSpec(lo=(-5.0,) * n, hi=(5.0,) * n, step=(step,) * n)
            terms = list(zip(gs, Hs))
            gu, gphi = oracle.grid_minmax(terms, grid, refinements=3)
            assert phi == pytest.approx(gphi, abs=1e-4)
            # u agreement: value-only search can only localize u to the
            # strong-convexity radius sqrt(2*delta/c) around the optimum
            c_min = min(np.linalg.eigvalsh(H).min() for H in Hs)
            delta = abs(oracle.minmax_value(terms, gu) - phi) + gap
            assert np.linalg.norm(u - gu) <= 1e-4 + 2.0 * np.sqrt(2.0 * delta / c_min)


def test_criterion_5_bfgs_integrity(monkeypatch):
    with report(5, "all quasi-Newton matrices stay SPD; applied updates satisfy the secant equation"):
        original = direction.bfgs_update

        def checked(store, s, y_all):
            rep = original(store, s, y_all)
            s_arr = np.asarray(s, dtype=float).ravel()
            for (i, q) in rep.applied:
                y = np.asarray(y_all)[i - 1, q - 1]
                resid = store.matrices[i - 1, q - 1] @ s_arr - y
                assert (np.linalg.norm(resid)
                        <= 1e-10 * (1.0 + np.linalg.norm(y)))
            return rep

        monkeypatch.setattr(direction, "bfgs_update", checked)
        for name in problem.BUILTIN_NAMES:
            ps = problem.builtin(name)
            trace = solver.run(ps, bench.sample_start(ps, 5, 0), paper_cfg())
            assert trace.store is not None
            assert trace.store.spd_check()
            assert trace.store.min_eigenvalue() > 0.0


def test_criterion_6_descent_recursion():
    with report(6, "merit recursion and strict descent certificate on every iteration"):
        cfg = paper_cfg()
        for name in problem.BUILTIN_NAMES:
            ps = problem.builtin(name)
            for k in range(3):
                trace = solver.run(ps, bench.sample_start(ps, 6, k), cfg)
                if trace.status != solver.CONVERGED:
                    continue
                recs = trace.records
                for prev, nxt in zip(recs, recs[1:]):
                    assert prev.phi < 0.0
                    assert (nxt.varsigma
                            <= prev.varsigma + cfg.beta * prev.t * prev.phi + 1e-10)


def test_criterion_7_convergence_at_desk_scale():
    with report(7, ">=90% convergence from 20 seeded starts; ex5 terminals in [2.335, 4.401]"):
        tick = time.perf_counter()
        cfg = paper_cfg()
        for name in ("ex1", "ex3", "ex4", "ex5"):
            ps = problem.builtin(name)
            converged = 0
            for k in range(20):
                trace = solver.run(ps, bench.sample_start(ps, 7, k), cfg)
                if trace.status == solver.CONVERGED:
                    converged += 1
                    if name == "ex5":
                        assert 2.335 <= trace.x_final[0] <= 4.401
            assert converged >= 18, f"{name}: only {converged}/20 converged"
        assert time.perf_counter() - tick < 120.0


def test_criterion_8_qnm_vs_sd_trend():
    with report(8, "median quasi-Newton iterations <= median steepest-descent iterations"):
        cfg = paper_cfg()
        for name in ("ex1", "ex2", "ex3", "ex4"):
            result = bench.run_bench(problem.builtin(name), 20, ("qnm", "sd"),
                                     seed=8, cfg=cfg)
            med = {m: statistics.median(r.iterations for r in recs)
                   for m, recs in result.runs.items()}
            assert med["qnm"] <= med["sd"], f"{name}: {med}"


def test_criterion_9_stationarity_certification():
    with report(9, "terminal points certified stationary and weakly minimal at grid resolution"):
        cfg = paper_cfg()
        # |Phi| certification at every converged terminal from seeded starts
        for name in ("ex1", "ex5"):
            ps = problem.builtin(name)
            converged = 0
            for k in range(20):
                trace = solver.run(ps, bench.sample_start(ps, 9, k), cfg)
                if trace.status == solver.CONVERGED:
                    rep = solver.stationarity_report(ps, trace.x_final,
                                                     trace.store, cfg)
                    assert abs(rep.phi) <= 1e-3 * (1.0 + ps.cone.lipschitz)
                    converged += 1
            assert converged
        # weak-minimality grid certifier at the canonical-start terminals,
        # scanned over the local envelope (the guarantee is local)
        for name, x0, lo, hi in (("ex1", [2.3], (1.5,), (2.5,)),
                                 ("ex5", [4.0], (2.335,), (4.401,))):
            ps = problem.builtin(name)
            trace = solver.run(ps, x0, cfg)
            assert trace.status == solver.CONVERGED
            grid = oracle.GridSpec(lo=lo, hi=hi, step=(1e-3,))
            verdict = oracle.certify_weak_minimality(ps, trace.x_final, grid)
            assert verdict.label == "NoneFoundAtResolution"


def test_criterion_10_deterministic_bench(tmp_path, monkeypatch):
    with report(10, "stats JSON byte-identical for --jobs 1 and --jobs 8"):
        payloads = []
        for jobs in ("1", "8"):
            out = tmp_path / f"jobs{jobs}"
            out.mkdir()
            monkeypatch.setenv("SETOPT_OUT_DIR", str(out))
            rc = cli.main(["bench", "--problem", "ex3", "--starts", "12",
                           "--seed", "7", "--jobs", jobs])
            assert rc == 0
            payloads.append((out / "ex3_bench_stats.json").read_bytes())
        assert payloads[0] == payloads[1]
        data = json.loads(payloads[0])
        assert data["seed"] == 7
