"""Descent-direction machinery: BFGS approximations and the inner min-max solve.

One symmetric positive definite matrix is maintained per cone-scalarized
scalar component h^{i,q}; the direction subproblem for a selector a, the
tuple of one 1-based family index per class of equal minimal value, becomes

    min_u max_t [ g_t' u + 1/2 u' H_t u ],    t = (j, q) over w*Q terms,

which is solved through its concave dual over the simplex: maximize
phi(lam) = -1/2 g(lam)' H(lam)^{-1} g(lam) with g(lam), H(lam) the weighted
averages.  Exact repeats of a term are merged, and a finite active-set ascent
after Wolfe (1976) keeps the support of lam affinely independent in the
gradients v_t = g_t + H_t u, so at most n + 1 terms: Newton steps on the face
with a ratio test that drops terms, and Caratheodory steps along a null
direction when a joining term would make the face dependent.  The duality gap
certifies the result.

One ascent serves every n.  It keeps lam, theta_t and the face steps in
Python floats, since the terms are few and small and a numpy call costs more
than its arithmetic, and it takes its dual point from a function picked by n:
the closed-form 1 x 1 or 2 x 2 inverse for n <= 2, numpy.linalg.inv for n >= 3
and for an H(lam) whose determinant is not finite.  A face step has one closed
form, for 2 terms at n <= 2, which takes nearly every step of the shipped
problems; numpy's eigh, the reference's formula, takes every other face.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import EmptyInput, NumericalBreakdown, PartitionTooLarge, SingularSystem
from .setorder import MinimalStructure

# solve_minmax has converged at a duality gap of at most TOL_SUB and stops after MAX_INNER
# steps; a converged gap above POLISH * TOL_SUB gets one more Newton step, and a face
# curvature eigenvalue below DEPENDENT times the largest marks affine dependence.
TOL_SUB = 1e-10
MAX_INNER = 500
POLISH = 1e-3
DEPENDENT = 1e-14
C_CURV = 1e-8                # bfgs_update's curvature bound
PARTITION_LIMIT = 10_000     # solve_subproblem's limit on the selectors


class HessianStore:
    """p*Q symmetric positive definite n x n matrices, BFGS-updated."""

    def __init__(self, n: int, p: int, Q: int):
        self.n = n
        self.p = p
        self.Q = Q
        self.matrices = np.broadcast_to(np.eye(n), (p, Q, n, n)).copy()

    def spd_check(self) -> bool:
        """True iff every matrix is symmetric (to 1e-12) and admits a Cholesky factor."""
        B = self.matrices
        if np.max(np.abs(B - B.transpose(0, 1, 3, 2))) > 1e-12:
            return False
        try:
            np.linalg.cholesky(B.reshape(-1, self.n, self.n))
        except np.linalg.LinAlgError:
            return False
        return True

    def min_eigenvalue(self) -> float:
        eigs = np.linalg.eigvalsh(self.matrices.reshape(-1, self.n, self.n))
        return float(eigs.min())


@dataclass(frozen=True)
class UpdateReport:
    """Which matrices an update changed: mask[i - 1, q - 1] is set for (i, q)."""

    mask: np.ndarray   # (p, Q) bool

    @property
    def applied(self) -> list:
        """The applied 1-based (i, q) pairs, row-major."""
        return _pairs(self.mask)

    @property
    def skipped(self) -> list:
        """The skipped 1-based (i, q) pairs, row-major."""
        return _pairs(~self.mask)


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


def bfgs_update(store: HessianStore, s, y_all) -> UpdateReport:
    """Cautious BFGS update of every (i, q) matrix.

    An update is applied only when s'y >= C_CURV * ||s|| * ||y|| with s'y > 0;
    otherwise the matrix is left unchanged.  Applied updates satisfy the
    secant equation B_new s = y exactly.  All (i, q) pairs are tested and
    updated in one batched step; a breakdown leaves the store untouched.
    """
    s = np.asarray(s, dtype=float).ravel()
    y_all = np.asarray(y_all, dtype=float)
    s_norm = math.sqrt(s.dot(s))                           # np.linalg.norm's formula
    if s_norm == 0.0:
        raise NumericalBreakdown("BFGS update with a zero step")
    sy = _dots(y_all, s)                                   # (p, Q)
    y_norm = np.sqrt(_dots(y_all, y_all))
    apply = ~((sy <= 0.0) | (sy < C_CURV * s_norm * y_norm))
    idx = apply.ravel().nonzero()[0]                       # into the p*Q matrices
    # a view, so the write below reaches the store: HessianStore allocates its
    # matrices C-contiguous and only ever writes into them in place
    matrices = store.matrices.reshape(-1, store.n, store.n)
    B = matrices.take(idx, axis=0)                         # (k, n, n)
    Bs = B @ s
    sBs = _dots(Bs, s)
    if (sBs <= 0.0).any():
        t = int(np.argmax(sBs <= 0.0))
        i, q = divmod(int(idx[t]), store.Q)
        raise NumericalBreakdown(
            f"s'Bs = {sBs[t]:g} <= 0 for component ({i + 1},{q + 1}); store corrupted")
    y = y_all.reshape(-1, store.n).take(idx, axis=0)
    # B - Bs Bs'/sBs + y y'/sy, one operation at a time in place
    BsBs = Bs[:, :, None] * Bs[:, None, :]
    BsBs /= sBs[:, None, None]
    B -= BsBs
    yy = y[:, :, None] * y[:, None, :]
    yy /= sy.ravel().take(idx)[:, None, None]
    B += yy
    matrices[idx] = B
    return UpdateReport(mask=apply)


@dataclass
class SubproblemSolution:
    a: tuple                       # the selector: one 1-based index per class
    u: np.ndarray
    phi: float
    gap: float                     # the selector's duality gap: converged iff gap <= TOL_SUB


def _dual_point_n(lam, gs, Hs):
    """u(lam), theta_t(u), v_t = g_t + H_t u, phi(lam) and H(lam)^{-1} for any n, on numpy.

    gs holds T rows of n floats and Hs T rows of n*n.  u and theta come back as
    lists, v as a (T, n) and H(lam)^{-1} as an (n, n) array; at n <= 2, for the
    closed form of _face_step, v and H(lam)^{-1} (flattened) as lists too.
    """
    lam, gs, Hs2 = np.array(lam), np.asarray(gs), np.asarray(Hs)
    T, n = gs.shape
    try:  # an invalid value in H(lam), its inverse or the point is a singular system
        with np.errstate(all="ignore", invalid="raise"):
            Hinv = np.linalg.inv((lam @ Hs2).reshape(n, n))
            u = -Hinv @ (lam @ gs)
            Hu = Hs2.reshape(T, n, n) @ u
            theta = gs @ u + 0.5 * (Hu @ u)
            v = gs + Hu
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        raise SingularSystem("averaged matrix H(lam) is singular") from exc
    with np.errstate(all="ignore"):  # an inf theta_t gives an inf or nan phi, as on floats
        phi = float(lam @ theta)
    if n <= 2:
        v, Hinv = v.tolist(), Hinv.ravel().tolist()
    return u.tolist(), theta.tolist(), v, phi, Hinv


# --- closed forms on Python floats, for n <= 2 -----------------------------
#
# With n <= 2 and a few distinct terms, every numpy call above costs more than
# its arithmetic.  Below, a term's g_t and H_t are lists of n and n*n floats,
# H(lam) is inverted in closed form, and so is a face of 2 terms stepped on.

def _finite_det(det):
    """Refuse a singular H(lam); False if det is not finite, for _dual_point_n to decide."""
    if det == 0.0:
        raise SingularSystem("averaged matrix H(lam) is singular")
    return math.isfinite(det)


def _dual_point_1(lam, gs, Hs):
    """_dual_point_n for n = 1."""
    h = x = 0.0
    for w, (g,), (H,) in zip(lam, gs, Hs):
        if w:
            h += w * H
            x += w * g
    if not _finite_det(h):
        return _dual_point_n(lam, gs, Hs)
    Hinv = 1.0 / h
    u = -(Hinv * x)
    theta, v, phi = [], [], 0.0
    for w, (g,), (H,) in zip(lam, gs, Hs):
        Hu = H * u
        t = g * u + 0.5 * (Hu * u)
        theta.append(t)
        v.append((g + Hu,))
        phi += w * t
    return (u,), theta, v, phi, (Hinv,)


def _dual_point_2(lam, gs, Hs):
    """_dual_point_n for n = 2, through the closed-form 2 x 2 inverse."""
    a = b = c = d = x = y = 0.0
    for w, (g0, g1), (h0, h1, h2, h3) in zip(lam, gs, Hs):
        if w:
            a += w * h0
            b += w * h1
            c += w * h2
            d += w * h3
            x += w * g0
            y += w * g1
    det = a * d - b * c
    if not _finite_det(det):
        return _dual_point_n(lam, gs, Hs)
    Hinv = (d / det, -b / det, -c / det, a / det)
    u0 = -(Hinv[0] * x + Hinv[1] * y)
    u1 = -(Hinv[2] * x + Hinv[3] * y)
    theta, v, phi = [], [], 0.0
    for w, (g0, g1), (h0, h1, h2, h3) in zip(lam, gs, Hs):
        Hu0 = h0 * u0 + h1 * u1
        Hu1 = h2 * u0 + h3 * u1
        t = g0 * u0 + g1 * u1 + 0.5 * (Hu0 * u0 + Hu1 * u1)
        theta.append(t)
        v.append((g0 + Hu0, g1 + Hu1))
        phi += w * t
    return (u0, u1), theta, v, phi, Hinv


def _form(Hinv, x, y):
    """x' H(lam)^{-1} y."""
    if len(x) == 1:
        return x[0] * Hinv[0] * y[0]
    return (x[0] * Hinv[0] + x[1] * Hinv[2]) * y[0] + (x[0] * Hinv[1] + x[1] * Hinv[3]) * y[1]


def _face_step(S, point):
    """Step d over the face S (summing to 0) and whether v_S is affinely dependent.

    Independent: the Newton step of phi on the face.  Dependent: a null
    direction, sum_t d_t v_t = 0, on which u stays put and phi is linear,
    signed to ascend.  A face of 2 terms at n <= 2 is stepped on in closed
    form; numpy's eigh takes every other face, as in the reference.
    """
    _, theta, v, _, Hinv = point
    if len(S) == 1:
        return [0.0], False
    i, j, n = S[0], S[1], len(v[0])
    if len(S) == 2 and n <= 2:  # LAPACK's eigh of a 1 x 1 M is (M, 1)
        D = [a - b for a, b in zip(v[j], v[i])]
        m = _form(Hinv, D, D)
        r = theta[j] - theta[i]
        dependent = m <= DEPENDENT * m
        c = 1.0 if dependent else r / m
        return ([c, -c] if dependent and r < 0.0 else [-c, c]), dependent
    v = np.asarray(v)  # the lists of an n <= 2 dual point become arrays
    r = np.array([theta[k] - theta[i] for k in S[1:]])
    # overflow gives inf or nan, as on Python floats, and a nan counts as dependent
    with np.errstate(all="ignore"):
        D = v.take(S[1:], 0) - v[i]
        try:
            w, Q = np.linalg.eigh(D @ np.reshape(Hinv, (n, n)) @ D.T)
        except np.linalg.LinAlgError as exc:  # a non-finite curvature matrix
            raise NumericalBreakdown("face curvature matrix has no eigendecomposition") from exc
        dependent = not w[0] > DEPENDENT * w[-1]
        c = Q[:, 0] if dependent else Q @ (Q.T @ r / w)
        d = np.concatenate([[-c.sum()], c])
        if dependent and np.array([theta[s] for s in S]) @ d < 0.0:
            d = -d
    return d.tolist(), dependent


def _ascend(lam, gs, Hs, dual_point):
    """The active-set ascent from lam, a list: (lam, u, max_t theta_t(u), phi(lam)).

    dual_point(lam, gs, Hs) returns u, theta and phi in Python floats, and v and
    H(lam)^{-1} as _face_step reads them.
    """
    point = dual_point(lam, gs, Hs)
    polish = False
    for _ in range(MAX_INNER):
        theta, phi = point[1], point[3]
        top = max(theta)
        t = theta.index(top)
        gap = min(top, 0.0) - phi  # u = 0, of value 0, stands in if max theta >= 0
        if gap <= POLISH * TOL_SUB or (polish and gap <= TOL_SUB):
            break
        polish = gap <= TOL_SUB  # then one more full Newton step on the solved face
        S = [s for s, w in enumerate(lam) if w]
        S_t = S if polish or lam[t] else S + [t]
        d, dependent = _face_step(S_t, point)
        if S_t is S or (d[-1] > 0.0 and sum(theta[s] * x for s, x in zip(S_t, d)) > 0.0):
            S = S_t
        else:  # the most violated term joins only once the larger face's step gives it weight
            d, dependent = _face_step(S, point)
        neg = [k for k, x in enumerate(d) if x < 0.0]
        if not neg:
            break  # d = 0: no ascent left at working precision
        ratios = [lam[S[k]] / -d[k] for k in neg]
        alpha_max = min(ratios)
        drop = S[neg[ratios.index(alpha_max)]]
        alpha = alpha_max if dependent else min(1.0, alpha_max)
        rise, noise = sum(theta[s] * x for s, x in zip(S, d)), None
        for _ in range(40):
            trial = lam.copy()
            for s, x in zip(S, d):
                trial[s] = max(lam[s] + alpha * x, 0.0)
            if alpha == alpha_max:
                trial[drop] = 0.0  # the ratio test drops this term
            total = sum(trial)
            trial = [w / total for w in trial]
            nxt = dual_point(trial, gs, Hs)
            # A step must ascend.  Where its rise is below the rounding of the products
            # in g_t'u (noise), it must keep phi and drop a term or shrink the gap.
            if polish or nxt[3] > phi + 0.25 * alpha * rise:
                break
            if noise is None:  # once per step, and only when a trial fails
                noise = 1e-12 * max(sum(abs(g) * abs(x) for g, x in zip(gs[s], point[0]))
                                    for s in S)
            if rise <= noise and nxt[3] >= phi - noise and (
                    alpha == alpha_max or min(max(nxt[1]), 0.0) - nxt[3] < gap):
                break
            alpha *= 0.5
        else:
            break  # no ascent at working precision
        lam, point = trial, nxt
    return lam, np.array(point[0]), max(point[1]), point[3]


def solve_minmax(gs, Hs):
    """Solve min_u max_t [g_t'u + 1/2 u'H_t u] for SPD H_t.

    The ascent starts with all weight on the shortest gradient, the first of
    equal ones, the best vertex when H_t = I.  Returns (u, phi, lam, gap,
    converged) where phi = max_t theta_t(u) <= 0 (u = 0 is substituted whenever
    the recovered point is not better than 0), lam holds the dual weights of
    all T terms and gap is the final duality gap.  No terms raise EmptyInput.
    """
    gs = np.asarray(gs, dtype=float)
    if gs.size == 0:
        raise EmptyInput("no quadratic terms")
    T, n = gs.shape
    Hs2 = np.asarray(Hs, dtype=float).reshape(T, n * n)
    # a term's exact repeats merge into its first index; idx lists those, ascending
    rows = np.concatenate((gs, Hs2), axis=1)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel().tolist()
    first = dict(zip(reversed(keys), range(T - 1, -1, -1)))
    idx = sorted(first.values())
    if n <= 2:  # closed forms on Python floats
        dual_point, merged = (_dual_point_1, _dual_point_2)[n - 1], rows.take(idx, 0).tolist()
        gs, Hs2 = [r[:n] for r in merged], [r[n:] for r in merged]
        norms = [sum(x * x for x in g) for g in gs]        # g'g, rounded as einsum does
        start = norms.index(min(norms))
    else:
        dual_point, gs, Hs2 = _dual_point_n, gs.take(idx, 0), Hs2.take(idx, 0)
        start = np.einsum("ti,ti->t", gs, gs).argmin()
    lam = [0.0] * len(idx)
    lam[start] = 1.0
    lam, u, phi, phi_dual = _ascend(lam, gs, Hs2, dual_point)
    gap = min(phi, 0.0) - phi_dual
    if phi >= 0.0:
        # u = 0 is always feasible with value 0; never report a worse point
        u, phi = np.zeros(n), 0.0
    return u, phi, np.bincount(idx, lam, T), gap, gap <= TOL_SUB


def solve_subproblem(grads, store: Optional[HessianStore], ms: MinimalStructure
                     ) -> SubproblemSolution:
    """Minimize over the partition set; ties broken by the first (lexicographic) a.

    The selectors a run over the product of ms.classes.  The terms of a are
    t = (j, q), j-major: g_t from the (p, Q, n) scalarized gradients grads, H_t
    from store, or I when store is None.  A partition set of more than
    PARTITION_LIMIT selectors raises PartitionTooLarge.
    """
    count = ms.partition_count()
    if count > PARTITION_LIMIT:
        raise PartitionTooLarge(
            f"{count} selectors over {ms.w} classes exceed the limit of {PARTITION_LIMIT}")
    _, Q, n = grads.shape
    T = ms.w * Q
    best = None
    # every class a singleton, the common case: I(x) is the one selector
    for a in [ms.minimal_indices] if count == 1 else itertools.product(*ms.classes):
        sel = np.array(a) - 1
        gs = grads.take(sel, 0).reshape(T, n)
        if store is None:
            Hs = np.eye(n)[None].repeat(T, axis=0)
        else:
            Hs = store.matrices.take(sel, 0).reshape(T, n, n)
        u, phi, _, gap, _ = solve_minmax(gs, Hs)
        if best is None or phi < best.phi:
            best = SubproblemSolution(a=a, u=u, phi=phi, gap=gap)
    return best
