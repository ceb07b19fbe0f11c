"""Descent-direction machinery: BFGS approximations and the inner min-max solve.

One symmetric positive definite matrix is maintained per cone-scalarized
scalar component h^{i,q}; the direction subproblem for a selector a becomes

    min_u max_t [ g_t' u + 1/2 u' H_t u ],    t = (j, q) over w*Q terms,

which is solved through its concave dual over the simplex: maximize
phi(lam) = -1/2 g(lam)' H(lam)^{-1} g(lam) with g(lam), H(lam) the weighted
averages.  Ascent combines Frank-Wolfe vertex selection with corrective
Newton steps on the current support; the duality gap certifies the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NumericalBreakdown, SingularSystem
from .problem import ScalarizedComponents
from .setorder import MinimalStructure, PartitionElement, partition_iter


class HessianStore:
    """p*Q symmetric positive definite n x n matrices, BFGS-updated."""

    def __init__(self, n: int, p: int, Q: int):
        self.n = n
        self.p = p
        self.Q = Q
        self.matrices = np.broadcast_to(np.eye(n), (p, Q, n, n)).copy()
        self.applied = 0
        self.skipped = 0

    def spd_check(self, tol_sym: float = 1e-12) -> bool:
        """True iff every matrix is symmetric (to tol) and admits a Cholesky factor."""
        B = self.matrices
        if np.max(np.abs(B - B.transpose(0, 1, 3, 2))) > tol_sym:
            return False
        try:
            np.linalg.cholesky(B.reshape(-1, self.n, self.n))
        except np.linalg.LinAlgError:
            return False
        return True

    def min_eigenvalue(self) -> float:
        eigs = np.linalg.eigvalsh(self.matrices.reshape(-1, self.n, self.n))
        return float(eigs.min())


def init_store(n: int, p: int, Q: int) -> HessianStore:
    """All matrices start at the identity."""
    return HessianStore(n, p, Q)


@dataclass
class UpdateReport:
    applied: list   # (i, q) pairs, 1-based
    skipped: list


def _dots(a, b) -> np.ndarray:
    """Row-wise dot products over the last axis.

    Stacked (1 x n) @ (n x 1) products run one BLAS dot per row, so each
    entry rounds exactly like the unbatched ``a_k @ b_k``.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def bfgs_update(store: HessianStore, s, y_all, c_curv: float = 1e-8) -> UpdateReport:
    """Cautious BFGS update of every (i, q) matrix.

    An update is applied only when s'y >= c_curv * ||s|| * ||y|| with s'y > 0;
    otherwise the matrix is left unchanged.  Applied updates satisfy the
    secant equation B_new s = y exactly.  All (i, q) pairs are tested and
    updated in one batched step; a breakdown leaves the store untouched.
    """
    s = np.asarray(s, dtype=float).ravel()
    y_all = np.asarray(y_all, dtype=float)
    s_norm = np.linalg.norm(s)
    if s_norm == 0.0:
        raise NumericalBreakdown("BFGS update with a zero step")
    sy = _dots(y_all, s)                                   # (p, Q)
    y_norm = np.sqrt(_dots(y_all, y_all))
    apply = ~((sy <= 0.0) | (sy < c_curv * s_norm * y_norm))
    pairs = np.argwhere(apply) + 1                         # 1-based (i, q), row-major
    B = store.matrices[apply]                              # (k, n, n)
    Bs = B @ s
    sBs = _dots(Bs, s)
    bad = np.flatnonzero(sBs <= 0.0)
    if bad.size:
        i, q = pairs[bad[0]]
        raise NumericalBreakdown(
            f"s'Bs = {sBs[bad[0]]:g} <= 0 for component ({i},{q}); store corrupted")
    y = y_all[apply]
    store.matrices[apply] = (B - Bs[:, :, None] * Bs[:, None, :] / sBs[:, None, None]
                             + y[:, :, None] * y[:, None, :] / sy[apply][:, None, None])
    applied = [(int(i), int(q)) for i, q in pairs]
    skipped = [(int(i), int(q)) for i, q in np.argwhere(~apply) + 1]
    store.applied += len(applied)
    store.skipped += len(skipped)
    return UpdateReport(applied=applied, skipped=skipped)


@dataclass
class SubproblemSolution:
    a: PartitionElement
    u: np.ndarray
    phi: float
    lam: np.ndarray
    gap: float
    converged: bool


def _dual_point(lam, gs, Hs):
    """u(lam), per-term values theta_t(u), and the dual value phi(lam)."""
    H = np.einsum("t,tij->ij", lam, Hs)
    g = lam @ gs
    try:
        u = -np.linalg.solve(H, g)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem("averaged matrix H(lam) is singular") from exc
    theta = gs @ u + 0.5 * np.einsum("tij,i,j->t", Hs, u, u)
    return u, theta, float(lam @ theta)


def _dual_value(lam, gs, Hs) -> float:
    H = np.einsum("t,tij->ij", lam, Hs)
    g = lam @ gs
    try:
        return -0.5 * float(g @ np.linalg.solve(H, g))
    except np.linalg.LinAlgError as exc:
        raise SingularSystem("averaged matrix H(lam) is singular") from exc


def _newton_step(lam, support, u, theta, gs, Hs):
    """Equality-constrained Newton direction for the dual, on the support face."""
    H = np.einsum("t,tij->ij", lam, Hs)
    V = gs[support] + np.einsum("tij,j->ti", Hs[support], u)   # rows v_t = g_t + H_t u
    try:
        W = np.linalg.solve(H, V.T)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem("averaged matrix H(lam) is singular") from exc
    M = V @ W                                                  # curvature of -phi on the face
    k = len(support)
    ridge = 1e-14 * (1.0 + np.trace(M))
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = M + ridge * np.eye(k)
    kkt[:k, k] = 1.0
    kkt[k, :k] = 1.0
    rhs = np.concatenate([theta[support], [0.0]])
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    d = np.zeros_like(lam)
    d[support] = sol[:k]
    return d


def _line_search_max(lam, d, gs, Hs, phi0, gap0):
    """Backtrack along d keeping lam feasible.

    A step is accepted if it strictly improves the dual value, or — near the
    optimum, where the dual is flat to machine precision — if it shrinks the
    duality gap without measurably worsening the dual value.
    """
    neg = d < 0.0
    if np.any(neg):
        alpha_max = min(1.0, float(np.min(-lam[neg] / d[neg])))
    else:
        alpha_max = 1.0
    if alpha_max <= 0.0:
        return None
    flat = 1e-12 * (1.0 + abs(phi0))
    alpha = alpha_max
    for _ in range(40):
        trial = np.clip(lam + alpha * d, 0.0, None)
        ssum = trial.sum()
        if ssum > 0.0:
            trial = trial / ssum
            _, theta, val = _dual_point(trial, gs, Hs)
            gap = float(theta.max() - val)
            if val > phi0 + flat or (val >= phi0 - flat and gap < 0.5 * gap0):
                return trial
        alpha *= 0.5
    return None


def solve_minmax(gs, Hs, tol_sub: float = 1e-10, max_inner: int = 500,
                 lam0: Optional[np.ndarray] = None):
    """Solve min_u max_t [g_t'u + 1/2 u'H_t u] for SPD H_t.

    Returns (u, phi, lam, gap, converged) where phi = max_t theta_t(u) <= 0
    (u = 0 is substituted whenever the recovered point is not better than 0)
    and gap is the final duality gap max_t theta_t(u) - phi(lam).
    """
    gs = np.asarray(gs, dtype=float)
    Hs = np.asarray(Hs, dtype=float)
    T, n = gs.shape
    if lam0 is not None and np.asarray(lam0).shape == (T,) and np.min(lam0) >= 0.0 and np.sum(lam0) > 0.0:
        lam = np.asarray(lam0, dtype=float) / np.sum(lam0)
    else:
        lam = np.full(T, 1.0 / T)

    best = None  # (gap, phi_dual, lam, u, theta)
    converged = False
    for _ in range(max_inner):
        u, theta, phi_dual = _dual_point(lam, gs, Hs)
        gap = float(theta.max() - phi_dual)
        if theta.max() >= 0.0:
            # u = 0 (value 0) will be substituted; its gap is 0 - phi(lam)
            gap = min(gap, max(0.0, -phi_dual))
        if best is None or gap < best[0]:
            best = (gap, phi_dual, lam.copy(), u, theta)
        if gap <= tol_sub:
            converged = True
            break
        support = sorted(set(np.flatnonzero(lam > 0.0).tolist()) | {int(np.argmax(theta))})
        d = _newton_step(lam, np.asarray(support, dtype=int), u, theta, gs, Hs)
        nxt = _line_search_max(lam, d, gs, Hs, phi_dual, gap)
        if nxt is None:
            # fall back to a plain Frank-Wolfe step toward the best vertex
            d_fw = -lam.copy()
            d_fw[int(np.argmax(theta))] += 1.0
            nxt = _line_search_max(lam, d_fw, gs, Hs, phi_dual, gap)
            if nxt is None:
                break  # no progress possible at working precision
        lam = nxt
        lam[lam < 1e-17] = 0.0
        lam = lam / lam.sum()

    gap, phi_dual, lam, u, theta = best
    phi = float(theta.max())
    if phi >= 0.0:
        # u = 0 is always feasible with value 0; never report a worse point
        u = np.zeros(n)
        phi = 0.0
        gap = max(0.0, -phi_dual)
    return u, phi, lam, gap, converged


def terms_for_a(grads, store: Optional[HessianStore], a: PartitionElement):
    """Collect (g_t, H_t) over t = (j, q), j-major, for a selector a.

    grads is the full (p, Q, n) array of scalarized gradients at the iterate.
    """
    sel = np.asarray(a.a, dtype=int) - 1
    w = len(sel)
    _, Q, n = grads.shape
    gs = grads[sel].reshape(w * Q, n)
    if store is None:
        Hs = np.broadcast_to(np.eye(n), (w * Q, n, n)).copy()
    else:
        Hs = store.matrices[sel].reshape(w * Q, n, n)
    return gs, Hs


def solve_for_a(grads, store: Optional[HessianStore], a: PartitionElement,
                tol_sub: float = 1e-10, max_inner: int = 500, lam0=None):
    """Direction subproblem for one selector; store=None means H_t = I."""
    gs, Hs = terms_for_a(grads, store, a)
    return solve_minmax(gs, Hs, tol_sub=tol_sub, max_inner=max_inner, lam0=lam0)


def solve_subproblem(sc: ScalarizedComponents, store: Optional[HessianStore], x,
                     ms: MinimalStructure, tol_sub: float = 1e-10,
                     max_inner: int = 500, warm: Optional[dict] = None,
                     grads=None) -> SubproblemSolution:
    """Minimize over the partition set; ties broken by the first (lexicographic) a.

    grads, the (p, Q, n) scalarized gradients at x, defaults to sc.gradients(x).
    """
    if grads is None:
        grads = sc.gradients(x)
    best = None
    for a in partition_iter(ms):
        lam0 = warm.get(a.a) if warm is not None else None
        u, phi, lam, gap, ok = solve_for_a(grads, store, a, tol_sub, max_inner, lam0)
        if warm is not None:
            warm[a.a] = lam
        if best is None or phi < best.phi:
            best = SubproblemSolution(a=a, u=u, phi=phi, lam=lam, gap=gap, converged=ok)
    return best
