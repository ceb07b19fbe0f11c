"""Descent-direction machinery: BFGS approximations and the inner min-max solve.

One symmetric positive definite matrix is maintained per cone-scalarized
scalar component h^{i,q}; the direction subproblem for a selector a becomes

    min_u max_t [ g_t' u + 1/2 u' H_t u ],    t = (j, q) over w*Q terms,

which is solved through its concave dual over the simplex: maximize
phi(lam) = -1/2 g(lam)' H(lam)^{-1} g(lam) with g(lam), H(lam) the weighted
averages.  Exact repeats of a term are merged, and a finite active-set ascent
after Wolfe (1976) keeps the support of lam affinely independent in the
gradients v_t = g_t + H_t u, so at most n + 1 terms: Newton steps on the face
with a ratio test that drops terms, and Caratheodory steps along a null
direction when a joining term would make the face dependent.  The duality gap
certifies the result.
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


def _pairs(mask) -> list:
    """The 1-based (i, q) pairs where the (p, Q) mask is set, row-major."""
    i, q = np.nonzero(mask)
    return list(zip((i + 1).tolist(), (q + 1).tolist()))


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
    B = store.matrices[apply]                              # (k, n, n)
    Bs = B @ s
    sBs = _dots(Bs, s)
    bad = np.flatnonzero(sBs <= 0.0)
    if bad.size:
        i, q = _pairs(apply)[bad[0]]
        raise NumericalBreakdown(
            f"s'Bs = {sBs[bad[0]]:g} <= 0 for component ({i},{q}); store corrupted")
    y = y_all[apply]
    store.matrices[apply] = (B - Bs[:, :, None] * Bs[:, None, :] / sBs[:, None, None]
                             + y[:, :, None] * y[:, None, :] / sy[apply][:, None, None])
    applied, skipped = _pairs(apply), _pairs(~apply)
    store.applied += len(applied)
    store.skipped += len(skipped)
    return UpdateReport(applied=applied, skipped=skipped)


@dataclass
class SubproblemSolution:
    a: PartitionElement
    u: np.ndarray
    phi: float
    gap: float
    converged: bool


# A face curvature eigenvalue below DEPENDENT times the largest marks affine
# dependence; a converged gap above POLISH * tol_sub gets one more Newton step.
DEPENDENT = 1e-14
POLISH = 1e-3


def _distinct(gs, Hs):
    """rep[t], the first index of term t's exact repeats, and the distinct terms' indices."""
    T = len(gs)
    rows = np.concatenate([gs, Hs.reshape(T, -1)], axis=1)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel().tolist()
    first: dict = {}
    rep = np.array([first.setdefault(key, t) for t, key in enumerate(keys)])
    return rep, np.flatnonzero(rep == np.arange(T))


def _dual_point(lam, gs, Hs):
    """u(lam), theta_t(u), v_t = g_t + H_t u, phi(lam) and H(lam)^{-1}."""
    n = gs.shape[1]
    try:
        Hinv = np.linalg.inv((lam @ Hs.reshape(len(lam), -1)).reshape(n, n))
    except np.linalg.LinAlgError as exc:
        raise SingularSystem("averaged matrix H(lam) is singular") from exc
    u = -Hinv @ (lam @ gs)
    Hu = Hs @ u
    theta = gs @ u + 0.5 * (Hu @ u)
    return u, theta, gs + Hu, float(lam @ theta), Hinv


def _gap(point) -> float:
    """Duality gap; u = 0, of value 0, stands in when max_t theta_t >= 0."""
    return min(float(point[1].max()), 0.0) - point[3]


def _face_step(S, point):
    """Step d over the face S (summing to 0) and whether v_S is affinely dependent.

    Independent: the Newton step of phi on the face.  Dependent: a null
    direction, sum_t d_t v_t = 0, on which u stays put and phi is linear,
    signed to ascend.
    """
    _, theta, v, _, Hinv = point
    if len(S) == 1:
        return np.zeros(1), False
    D = v[S[1:]] - v[S[0]]
    w, Q = np.linalg.eigh(D @ Hinv @ D.T)
    dependent = w[0] <= DEPENDENT * w[-1]
    c = Q[:, 0] if dependent else Q @ (Q.T @ (theta[S[1:]] - theta[S[0]]) / w)
    d = np.concatenate([[-c.sum()], c])
    return (-d if dependent and theta[S] @ d < 0.0 else d), dependent


def solve_minmax(gs, Hs, tol_sub: float = 1e-10, max_inner: int = 500,
                 lam0: Optional[np.ndarray] = None):
    """Solve min_u max_t [g_t'u + 1/2 u'H_t u] for SPD H_t.

    Returns (u, phi, lam, gap, converged) where phi = max_t theta_t(u) <= 0
    (u = 0 is substituted whenever the recovered point is not better than 0),
    lam holds the dual weights of all T terms and gap is the final duality gap.
    """
    gs = np.asarray(gs, dtype=float)
    Hs = np.asarray(Hs, dtype=float)
    T, n = gs.shape
    rep, idx = _distinct(gs, Hs)
    gs, Hs = gs[idx], Hs[idx]
    if lam0 is not None and np.asarray(lam0).shape == (T,) and np.min(lam0) >= 0.0 and np.sum(lam0) > 0.0:
        lam = np.bincount(rep, np.asarray(lam0, dtype=float), T)[idx]
    else:
        # cold start at the shortest gradient, the best vertex when H_t = I
        lam = (np.arange(len(idx)) == np.argmin(np.einsum("ti,ti->t", gs, gs))).astype(float)
    lam /= lam.sum()
    point = _dual_point(lam, gs, Hs)

    polish = False
    for _ in range(max_inner):
        gap = _gap(point)
        if gap <= POLISH * tol_sub or (polish and gap <= tol_sub):
            break
        # a gap within tol_sub gets one more full Newton step on the solved face
        polish = gap <= tol_sub
        theta, phi = point[1], point[3]
        S = np.flatnonzero(lam)
        t = int(np.argmax(theta))
        S_t = S if polish or t in S else np.append(S, t)
        d, dependent = _face_step(S_t, point)
        if S_t is S or (d[-1] > 0.0 and theta[S_t] @ d > 0.0):
            S = S_t
        else:  # the most violated term joins only once the larger face's step gives it weight
            d, dependent = _face_step(S, point)
        neg = np.flatnonzero(d < 0.0)
        if not neg.size:
            break  # d = 0: no ascent left at working precision
        ratios = lam[S[neg]] / -d[neg]
        alpha_max = float(ratios.min())
        alpha = alpha_max if dependent else min(1.0, alpha_max)
        rise = float(theta[S] @ d)
        noise = 1e-12 * float((np.abs(gs[S]) @ np.abs(point[0])).max())
        for _ in range(40):
            trial = lam.copy()
            trial[S] = np.maximum(lam[S] + alpha * d, 0.0)
            if alpha == alpha_max:
                trial[S[neg[np.argmin(ratios)]]] = 0.0  # the ratio test drops this term
            trial /= trial.sum()
            nxt = _dual_point(trial, gs, Hs)
            # A step must ascend.  Where its rise is below the rounding of the
            # products in g_t'u, it must keep phi and drop a term or shrink the gap.
            ascends = nxt[3] > phi + 0.25 * alpha * rise or (
                rise <= noise and nxt[3] >= phi - noise and (alpha == alpha_max or _gap(nxt) < gap))
            if polish or ascends:
                break
            alpha *= 0.5
        else:
            break  # no ascent at working precision
        lam, point = trial, nxt

    u, phi = point[0], float(point[1].max())
    if phi >= 0.0:
        # u = 0 is always feasible with value 0; never report a worse point
        u, phi = np.zeros(n), 0.0
    gap = _gap(point)
    return u, phi, np.bincount(idx, lam, T), gap, gap <= tol_sub


def terms_for_a(grads, store: Optional[HessianStore], a: PartitionElement):
    """Collect (g_t, H_t) over t = (j, q), j-major, for a selector a.

    grads is the full (p, Q, n) array of scalarized gradients at the iterate;
    store=None means H_t = I.
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
        gs, Hs = terms_for_a(grads, store, a)
        u, phi, lam, gap, ok = solve_minmax(gs, Hs, tol_sub, max_inner, lam0)
        if warm is not None:
            warm[a.a] = lam
        if best is None or phi < best.phi:
            best = SubproblemSolution(a=a, u=u, phi=phi, gap=gap, converged=ok)
    return best
