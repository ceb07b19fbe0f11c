"""Reference inner solve: `solve_minmax` and its helpers as `setopt.direction`
had them before the LAPACK kernels were called directly and the loop's
bookkeeping left numpy arrays.

The code below is that version verbatim, through `numpy.linalg`'s public
`inv` and `eigh`.  The tests require `direction.solve_minmax` to return the
same bits; keep this module independent of `setopt.direction`'s code.
"""

from typing import Optional

import numpy as np

from setopt.errors import SingularSystem


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
