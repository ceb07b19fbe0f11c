"""Reference minimal-element analysis: the gaps-tensor dominance test and the
depth-first class grouping that `setopt.setorder.analyze` used before it
compared A v directly and walked only the closeness graph's edges.

`analyze_ref` builds the float (Q, p, p) tensor of A (v_i - v_j) and a
separate distinctness test on it, then labels every minimal index by a
depth-first search over the full closeness graph.  The tests compare
`analyze` against it; keep this module independent of `setopt.setorder`'s
code.
"""

import numpy as np

from setopt import cone


def order_gaps(c, values) -> np.ndarray:
    """gaps[q, j, i] = (A (v_i - v_j))_q, shape (Q, p, p)."""
    AV = np.ascontiguousarray((values @ c.A.T).T)
    return AV[:, None, :] - AV[:, :, None]


def minimal_ref(c, values, tol: float = 0.0) -> tuple:
    """1-based i with no j such that v_j <= v_i (at tol) and A v_j != A v_i."""
    gaps = order_gaps(c, np.atleast_2d(np.asarray(values, dtype=float)))
    leq = np.all(gaps >= -tol, axis=0)
    distinct = np.any(gaps != 0.0, axis=0)
    dominated = np.any(leq & distinct, axis=0)
    return tuple(int(i) + 1 for i in np.flatnonzero(~dominated))


def classes_ref(values, minimal, tol_group: float = 1e-8) -> tuple:
    """Connected components, by depth-first search, of the graph linking the
    minimal indices whose images differ by at most tol_group in the
    infinity norm; each sorted, ordered by smallest member."""
    sub = np.ascontiguousarray(values[np.asarray(minimal, dtype=int) - 1].T)
    k = len(minimal)
    close = np.max(np.abs(sub[:, :, None] - sub[:, None, :]), axis=0) <= tol_group
    label = [-1] * k
    classes = []
    for start in range(k):
        if label[start] >= 0:
            continue
        comp = []
        stack = [start]
        label[start] = len(classes)
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in np.flatnonzero(close[v]).tolist():
                if label[u] < 0:
                    label[u] = len(classes)
                    stack.append(u)
        classes.append(tuple(minimal[v] for v in sorted(comp)))
    return tuple(classes)


def analyze_ref(c, values, tol_group: float = 1e-8):
    """(minimal indices, classes, varsigma) of the image set."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    minimal = minimal_ref(c, values)
    return minimal, classes_ref(values, minimal, tol_group), cone.varsigma(c, values)
