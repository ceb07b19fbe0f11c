"""Brute-force reference implementations for the test suite and `check` verb.

Everything here is deliberately slow and literal: bisection instead of the
closed form, O(p^2) pairwise dominance tests, exhaustive grid scans, every
support of the min-max subproblem.  The fast library code is validated
against these.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import problem as problem_mod
from .cone import ConeSpec, in_cone
from .errors import BracketFailure, EmptyInput, GridTooLarge, NumericalBreakdown
from .problem import ProblemSpec

GRID_GUARD = 10_000_000
# exact_minmax keeps a support whose primal and dual values agree to this (relative).
DUALITY_TOL = 1e-12


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned evaluation grid: per-dimension lo, hi and step."""

    lo: tuple
    hi: tuple
    step: tuple

    def __post_init__(self):
        if not (len(self.lo) == len(self.hi) == len(self.step)):
            raise ValueError("lo, hi, step must have equal length")
        for lo, hi, st in zip(self.lo, self.hi, self.step):
            if not lo < hi:
                raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
            if not st > 0.0:
                raise ValueError(f"step must be positive, got {st}")
        if self.count > GRID_GUARD:
            raise GridTooLarge(
                f"grid has {self.count} points, guard is {GRID_GUARD}")

    @property
    def axes(self):
        return tuple(
            np.arange(lo, hi + 0.5 * st, st)
            for lo, hi, st in zip(self.lo, self.hi, self.step))

    @property
    def count(self) -> int:
        out = 1
        for lo, hi, st in zip(self.lo, self.hi, self.step):
            out *= int(math.floor((hi - lo) / st + 0.5)) + 1
        return out

    def points(self) -> np.ndarray:
        """All grid points, shape (count, d), last axis fastest."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)


def grid1d(lo: float, hi: float, step: float) -> GridSpec:
    return GridSpec(lo=(lo,), hi=(hi,), step=(step,))


def gerstewitz_bisect(c: ConeSpec, y, tol: float = 1e-12) -> float:
    """Bisection on the defining condition te in y + K.

    The predicate t |-> (te - y in K) is monotone in t, so the smallest such
    t is found by shrinking [-B, B] with B = 1 + L||y||.
    """
    y = np.asarray(y, dtype=float).ravel()
    B = 1.0 + c.lipschitz * float(np.linalg.norm(y))

    def inside(t):
        return in_cone(c, t * c.e - y)

    lo, hi = -B, B
    if inside(lo) or not inside(hi):
        raise BracketFailure(
            f"bracket [-{B:g}, {B:g}] does not straddle the boundary; "
            "cone data is inconsistent")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if inside(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _as_set(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[None, :]
    if values.size == 0:
        raise EmptyInput("empty image set")
    return values


def brute_min(c: ConeSpec, values, tol: float = 0.0) -> tuple:
    """Minimal elements by the literal pairwise definition (1-based indices).

    i is dominated when some v_j differs from v_i and v_i - v_j lies in K
    up to tol, (A (v_i - v_j))_q >= -tol for all q; each i tests every j at once.
    """
    values = _as_set(values)
    out = []
    for i, v in enumerate(values):
        in_K = np.all((v - values) @ c.A.T >= -tol, axis=1)
        equal = np.all(values == v, axis=1)              # j == i among them
        if not np.any(in_K & ~equal):
            out.append(i + 1)
    return tuple(out)


def brute_wmin(c: ConeSpec, values, tol: float = 0.0) -> tuple:
    """Weakly minimal elements by the literal pairwise definition.

    i is dominated when some j != i has v_i - v_j in int(K) beyond tol,
    (A (v_i - v_j))_q > tol for all q.
    """
    values = _as_set(values)
    out = []
    for i, v in enumerate(values):
        in_int_K = np.all((v - values) @ c.A.T > tol, axis=1)
        in_int_K[i] = False
        if not np.any(in_int_K):
            out.append(i + 1)
    return tuple(out)


def _minmax_values(gs, Hs, U):
    """max_t [g_t'u + 1/2 u'H_t u] for every row u of U."""
    lin = U @ gs.T                                      # (N, T)
    quad = 0.5 * np.einsum("ni,tij,nj->nt", U, Hs, U)
    return np.max(lin + quad, axis=1)


def minmax_value(terms, u) -> float:
    """The max-of-quadratics objective at one point."""
    if not terms:
        raise EmptyInput("no quadratic terms")
    gs = np.asarray([g for g, _ in terms], dtype=float)
    Hs = np.asarray([H for _, H in terms], dtype=float)
    return float(_minmax_values(gs, Hs, np.asarray(u, dtype=float)[None, :])[0])


def grid_minmax(terms, grid: GridSpec, refinements: int = 2):
    """Exhaustive min over the grid of the max-of-quadratics objective.

    The coarse scan is followed by 10x local grid refinements and a seeded
    shrinking-ball random polish.  The polish matters when the minimum sits
    on a kink ridge of the max: there a lattice rewards lateral proximity to
    the ridge (linear) over longitudinal progress (quadratic), so the lattice
    argmin alone can stall several cells away from the optimum.
    """
    if not terms:
        raise EmptyInput("no quadratic terms")
    gs = np.asarray([g for g, _ in terms], dtype=float)
    Hs = np.asarray([H for _, H in terms], dtype=float)
    best_u, best_phi = None, math.inf
    cur = grid
    for _ in range(refinements + 1):
        pts = cur.points()
        vals = _minmax_values(gs, Hs, pts)
        k = int(np.argmin(vals))
        if vals[k] < best_phi:
            best_phi = float(vals[k])
            best_u = pts[k].copy()
        lo = tuple(u - 3.0 * st for u, st in zip(best_u, cur.step))
        hi = tuple(u + 3.0 * st for u, st in zip(best_u, cur.step))
        cur = GridSpec(lo=lo, hi=hi, step=tuple(st / 10.0 for st in cur.step))

    rng = np.random.default_rng(0)
    n = best_u.shape[0]
    radius = 100.0 * max(cur.step)
    for _ in range(14):
        cand = best_u[None, :] + radius * rng.standard_normal((400, n))
        vals = _minmax_values(gs, Hs, cand)
        k = int(np.argmin(vals))
        if vals[k] < best_phi:
            best_phi = float(vals[k])
            best_u = cand[k].copy()
        radius *= 0.5
    return best_u, best_phi


def _face_optimum(gs, Hs, S):
    """Maximize the concave dual phi(lam) = min_u sum_t lam_t theta_t(u) over the
    face lam_S > 0, sum lam_S = 1, by damped Newton steps from its barycenter.

    Along the face, phi's gradient is theta_s - theta_{S[0]} and its Hessian
    -(v_s - v_{S[0]})' H(lam)^{-1} (v_r - v_{S[0]}) with v_t = g_t + H_t u(lam),
    so a stationary point solves the equal-theta KKT system of the face.
    Returns lam_S and u(lam).
    """
    g, H = gs[list(S)], Hs[list(S)]

    def at(lam):
        H_lam = np.tensordot(lam, H, axes=1)
        u = np.linalg.solve(H_lam, -(lam @ g))
        theta = g @ u + 0.5 * np.einsum("i,tij,j->t", u, H, u)
        return u, theta, g + H @ u, H_lam, float(lam @ theta)

    lam = np.full(len(S), 1.0 / len(S))
    u, theta, v, H_lam, phi = at(lam)
    for _ in range(100 if len(S) > 1 else 0):
        D = v[1:] - v[0]
        try:
            step = np.linalg.solve(D @ np.linalg.solve(H_lam, D.T), theta[1:] - theta[0])
        except np.linalg.LinAlgError:
            break                                       # affinely dependent v_S
        d = np.concatenate([[-step.sum()], step])
        # stay inside the face; ascend, or, where the rise is below rounding,
        # even out theta on S
        for halvings in range(40):
            trial = lam + 0.5 ** halvings * d
            if trial.min() > 0.0 and ((nxt := at(trial))[4] > phi
                                      or np.ptp(nxt[1]) < np.ptp(theta)):
                break
        else:
            break                                       # no progress at working precision
        lam, (u, theta, v, H_lam, phi) = trial, nxt
    return lam, u


def exact_minmax(gs, Hs):
    """Minimum of max_t [g_t'u + 1/2 u'H_t u] for SPD H_t, by enumerating supports.

    Every support S of at most n + 1 distinct terms gets its face's dual
    optimum lam_S and u(lam_S).  A candidate is kept when it is primal-dual
    feasible: lam >= 0 on the simplex and the primal value max_t theta_t(u)
    equals the dual value sum_S lam_t theta_t(u) to DUALITY_TOL (relative), so by weak
    duality it is optimal.  Some optimal lam has an affinely independent
    support of at most n + 1 terms (Caratheodory), so a candidate exists.
    Returns (u, phi, lam) of the kept candidate of least primal value.
    """
    gs = np.asarray(gs, dtype=float)
    Hs = np.asarray(Hs, dtype=float)
    if gs.size == 0:
        raise EmptyInput("no quadratic terms")
    T, n = gs.shape
    distinct = []
    for t in range(T):
        if not any(np.array_equal(gs[t], gs[s]) and np.array_equal(Hs[t], Hs[s]) for s in distinct):
            distinct.append(t)
    best = None
    for k in range(1, min(n + 1, len(distinct)) + 1):
        for S in itertools.combinations(distinct, k):
            lam_S, u = _face_optimum(gs, Hs, S)
            theta = gs @ u + 0.5 * np.einsum("i,tij,j->t", u, Hs, u)
            primal, dual = float(theta.max()), float(lam_S @ theta[list(S)])
            if primal - dual <= DUALITY_TOL * (1.0 + abs(primal)) and (best is None or primal < best[1]):
                lam = np.zeros(T)
                lam[list(S)] = lam_S
                best = (u, primal, lam)
    if best is None:
        raise NumericalBreakdown("no support of at most n + 1 terms passed the duality check")
    return best


@dataclass(frozen=True)
class WeakMinimalityVerdict:
    violated: bool
    witness: tuple = None   # a violating x, when found

    @property
    def label(self) -> str:
        return "Violated" if self.violated else "NoneFoundAtResolution"


def certify_weak_minimality(ps: ProblemSpec, x_bar, grid: GridSpec) -> WeakMinimalityVerdict:
    """Scan the grid for an x whose image set strictly dominates F(x_bar).

    Strict set dominance here means every vector in F(x_bar) lies in
    F(x) + int(K); the verdict is relative to the grid resolution.
    """
    c = ps.cone
    F_bar = problem_mod.eval_F(ps, x_bar)               # (p, m)
    AB = F_bar @ c.A.T                                  # (p, Q)
    for x in grid.points():
        AF = problem_mod.eval_F(ps, x) @ c.A.T          # (p, Q)
        # F_bar[j] in F(x) + int(K)  <=>  some i with A(F_bar[j]-F(x)[i]) > 0
        diff = AB[None, :, :] - AF[:, None, :]          # (p, p_bar, Q)
        strict = np.all(diff > 0.0, axis=2)             # (p, p_bar)
        if np.all(np.any(strict, axis=0)):
            return WeakMinimalityVerdict(violated=True, witness=tuple(x))
    return WeakMinimalityVerdict(violated=False)


def fd_jacobian(ps: ProblemSpec, x, i: int, h: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of f^i at x, shape (m, n); an i that is not
    an integer in 1..p raises ValueError."""
    if not isinstance(i, numbers.Integral) or not 1 <= i <= ps.p:
        raise ValueError(f"family index i must be an integer in 1..{ps.p}, got {i!r}")
    x = np.asarray(x, dtype=float).ravel()
    J = np.empty((ps.m, ps.n))
    for j in range(ps.n):
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        fp = problem_mod.eval_F(ps, xp)[i - 1]
        fm = problem_mod.eval_F(ps, xm)[i - 1]
        J[:, j] = (fp - fm) / (2.0 * h)
    return J
