"""Reference BFGS update: a verbatim copy of `setopt.direction.bfgs_update` as it
was before it wrote into the store's own matrices when every pair passes.

It always takes the applied matrices out of the store, updates the copy and
writes it back.  The tests hold the current update to its bits; keep this
module independent of `setopt.direction`'s code apart from its constants and
types.
"""

import math

import numpy as np

from setopt.direction import C_CURV, HessianStore, UpdateReport
from setopt.errors import NumericalBreakdown


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

