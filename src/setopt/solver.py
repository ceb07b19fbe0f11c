"""Outer iteration: quasi-Newton and steepest-descent solves with cone Armijo
line search, stopping tests, and per-iteration tracing.

Both methods share one loop; steepest descent fixes every subproblem matrix
at the identity and performs no curvature updates.  The selector a that an
iterate's subproblem picks is a tuple of 1-based family indices; the Armijo
test reads the selector's rows of F, tested against beta*t*phi, with phi the
subproblem value: f_j(x + t*u) <=_K f_j(x) + beta*t*phi*e for every j.

This is the test of Fliege, Grana Drummond & Svaiter (SIAM J. Optim. 2009)
and Povalej (J. Comput. Appl. Math. 2014), on the value of the min-max
subproblem.  Since theta_t(u) = g_t'u + u'H_t u/2 <= phi with H_t SPD,
g_t'u < phi: every step the first-order test f_j(x + t*u) <=_K f_j(x) +
beta*t*J_j u accepts, this test accepts too, so the existence of an Armijo
step at a non-stationary iterate carries over.  The solver does not use that
first-order reading of the paper's test: at beta = 1/2 it rejects the unit
step of any active term whose curvature is above the lam-weighted mean, so
few quasi-Newton steps were unit steps.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import direction as direction_mod
from . import problem as problem_mod
from . import setorder as setorder_mod
from .direction import HessianStore
from .errors import LineSearchFailure, SetoptError
from .problem import ProblemSpec

METHODS = ("quasi_newton", "steepest_descent")

CONVERGED = "Converged"
MAX_ITERATIONS = "MaxIterations"
LINE_SEARCH_FAILURE = "LineSearchFailure"
NUMERICAL_ERROR = "NumericalError"


@dataclass
class SolverConfig:
    beta: float = 0.5
    nu: float = 0.6
    eps_stop: float = 1e-3
    max_iter: int = 100
    max_backtracks: int = 60
    method: str = "quasi_newton"
    seed: int = 0

    def __post_init__(self):
        for name in ("beta", "nu"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in the open interval (0,1), "
                                 f"got {getattr(self, name)}")
        if not 0.0 < self.eps_stop < np.inf:
            raise ValueError(f"eps_stop must be finite and positive, got {self.eps_stop}")
        for name, least in (("max_iter", 1), ("max_backtracks", 0), ("seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")
            setattr(self, name, int(value))
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        self.beta, self.nu, self.eps_stop = float(self.beta), float(self.nu), float(self.eps_stop)


@dataclass
class IterateRecord:
    k: int
    x: np.ndarray
    w: int
    partition_count: int
    a: tuple
    u: np.ndarray
    u_norm: float
    phi: float
    t: float                          # accepted step (0 on the terminal record)
    backtracks: int
    varsigma: float
    gap: float
    bfgs_skips: int
    millis: float


@dataclass
class IterateTrace:
    problem: str
    method: str
    records: list = field(default_factory=list)
    status: str = ""
    message: str = ""
    x_final: Optional[np.ndarray] = None
    store: Optional[HessianStore] = None

    @property
    def iterations(self) -> int:
        return len(self.records)


# slack of the cone Armijo test, absorbing rounding in F(x + t*u)
TOL_ARMIJO = 1e-12


def armijo_backtrack(ps: ProblemSpec, x, a: tuple, u, F, phi: float, cfg: SolverConfig):
    """Smallest backtrack count q such that t = nu^q satisfies the cone
    Armijo inequality f_j(x + t*u) <=_K f_j(x) + beta*t*phi*e for every
    component j of the selector a.

    F is the full image set at x, whose rows of a's 1-based indices are read,
    and phi < 0 the subproblem value at x.  Returns (t, q, x_trial, F_trial)
    with x_trial = x + t*u and F_trial the full image set there.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    sel = np.array(a) - 1
    f_sel = F.take(sel, 0)                             # (w, m)
    At = ps.cone.A.T
    for q in range(cfg.max_backtracks + 1):
        t = cfg.nu ** q
        x_trial = x + t * u
        F_trial = problem_mod.eval_F(ps, x_trial)
        diff = (f_sel - F_trial.take(sel, 0)) @ At + cfg.beta * t * phi * ps.cone.Ae   # (w, Q)
        if (diff >= -TOL_ARMIJO).all():
            return t, q, x_trial, F_trial
    bad = int(np.flatnonzero(~(diff >= -TOL_ARMIJO).all(axis=1))[0]) + 1
    raise LineSearchFailure(
        f"no Armijo step within {cfg.max_backtracks} backtracks "
        f"(component j={bad} of the selector)", violating_component=bad)


@np.errstate(over="ignore", invalid="ignore")
def run(ps: ProblemSpec, x0, cfg: SolverConfig) -> IterateTrace:
    """Execute the main loop from x0 and record a full iterate trace.

    F and J are evaluated at most once per accepted point; F and the
    scalarized gradients of J are carried forward.  numpy overflows and
    invalid values pass silently here: eval_F and eval_jacobians type a
    non-finite result as a DomainError, which ends the run.
    """
    x = np.asarray(x0, dtype=float).ravel().copy()
    if x.shape[0] != ps.n:
        raise ValueError(f"x0 has length {x.shape[0]}, expected {ps.n}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"x0 must be finite, got {x}")
    c = ps.cone
    qn = cfg.method == "quasi_newton"
    store = direction_mod.HessianStore(ps.n, ps.p, c.Q) if qn else None
    trace = IterateTrace(problem=ps.name, method=cfg.method, store=store)

    try:
        F = problem_mod.eval_F(ps, x)
        grads = None
        for k in range(cfg.max_iter):
            tick = time.perf_counter()
            if grads is None:
                grads = problem_mod.scalarized_gradients(c, problem_mod.eval_jacobians(ps, x))
            ms = setorder_mod.analyze(c, F)
            sol = direction_mod.solve_subproblem(grads, store, ms)
            u_norm = float(np.linalg.norm(sol.u))
            rec = IterateRecord(
                k=k, x=x.copy(), w=ms.w,
                partition_count=ms.partition_count(), a=sol.a,
                u=sol.u.copy(), u_norm=u_norm, phi=sol.phi, t=0.0,
                backtracks=0, varsigma=ms.varsigma, gap=sol.gap, bfgs_skips=0, millis=0.0)

            if u_norm < cfg.eps_stop:
                rec.millis = (time.perf_counter() - tick) * 1e3
                trace.records.append(rec)
                trace.status = CONVERGED
                break

            t, q, x_new, F_new = armijo_backtrack(ps, x, sol.a, sol.u, F, sol.phi, cfg)
            grads_new = None
            skips = 0
            if qn:
                grads_new = problem_mod.scalarized_gradients(
                    c, problem_mod.eval_jacobians(ps, x_new))
                report = direction_mod.bfgs_update(store, x_new - x, grads_new - grads)
                skips = report.mask.size - int(np.count_nonzero(report.mask))
            rec.t = t
            rec.backtracks = q
            rec.bfgs_skips = skips
            rec.millis = (time.perf_counter() - tick) * 1e3
            trace.records.append(rec)
            x, F, grads = x_new, F_new, grads_new
        else:
            trace.status = MAX_ITERATIONS
    except LineSearchFailure as exc:
        trace.status = LINE_SEARCH_FAILURE
        trace.message = str(exc)
    except SetoptError as exc:
        trace.status = NUMERICAL_ERROR
        trace.message = str(exc)

    trace.x_final = x.copy()
    return trace


@dataclass
class StationarityReport:
    phi: float
    u_norm: float
    min_equals_wmin: bool
    w_locally_constant: Optional[bool]   # heuristic 8-point probe; None if n unsupported
    w: int


def stationarity_report(ps: ProblemSpec, x, store: Optional[HessianStore],
                        cfg: SolverConfig) -> StationarityReport:
    """Diagnostics of a point, computed after a run: the descent certificate,
    the regularity test Min = WMin on F(x) and a probe of w near x."""
    x = np.asarray(x, dtype=float).ravel()
    c = ps.cone
    F = problem_mod.eval_F(ps, x)
    ms = setorder_mod.analyze(c, F)
    grads = problem_mod.scalarized_gradients(c, problem_mod.eval_jacobians(ps, x))
    sol = direction_mod.solve_subproblem(grads, store, ms)
    min_eq_wmin = ms.minimal_indices == setorder_mod.weakly_minimal_elements(c, F)

    # Heuristic: compare w at 8 deterministic points on the sphere of radius 1e-4.
    rng = np.random.default_rng(cfg.seed)
    same = True
    for _ in range(8):
        d = rng.standard_normal(ps.n)
        d = d / np.linalg.norm(d)
        try:
            probe = setorder_mod.analyze(c, problem_mod.eval_F(ps, x + 1e-4 * d))
        except SetoptError:
            same = None
            break
        if probe.w != ms.w:
            same = False
            break
    return StationarityReport(phi=sol.phi, u_norm=float(np.linalg.norm(sol.u)),
                              min_equals_wmin=min_eq_wmin, w_locally_constant=same, w=ms.w)


def direction_bound(trace: IterateTrace, ps: ProblemSpec) -> Optional[float]:
    """Post-hoc bound (2*C*L)/rho on ||u_k|| from the run's own constants.

    C, the largest spectral norm of a Jacobian over the recorded iterates, is
    computed here from each record's x after the run; the loop never reads it.
    """
    if trace.store is None or not trace.records:
        return None
    rho = trace.store.min_eigenvalue()
    if rho <= 0.0:
        return None
    C = max(float(np.linalg.norm(problem_mod.eval_jacobians(ps, r.x), 2, axis=(1, 2)).max())
            for r in trace.records)
    return 2.0 * C * ps.cone.lipschitz / rho
