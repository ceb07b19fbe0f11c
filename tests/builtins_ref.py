"""Reference built-in families: ex1..ex7 as hand-coded numpy closures with
analytic Jacobians, as `setopt.problem` defined them before `builtin(name)`
became `load(builtin_file(name))`.

The code below is that version verbatim.  The tests compare every shipped
problem file against it; keep this module independent of `setopt.expr`'s
generated code.
"""

import math

import numpy as np

from setopt import cone as cone_mod
from setopt.problem import ProblemSpec


# --- built-in families -----------------------------------------------------

def _box(*pairs):
    return np.asarray(pairs, dtype=float)


def _make_ex1():
    p = 50
    th = 2.0 * np.pi * np.arange(p) / 50.0

    def values(x):
        t = x[0]
        return np.column_stack([
            t * math.exp(t) + np.sin(th),
            2.0 * t * math.cos(2.0 * t) + np.cos(th),
        ])

    def jacobians(x):
        t = x[0]
        J = np.empty((p, 2, 1))
        J[:, 0, 0] = (1.0 + t) * math.exp(t)
        J[:, 1, 0] = 2.0 * math.cos(2.0 * t) - 4.0 * t * math.sin(2.0 * t)
        return J

    return ProblemSpec("ex1", 1, 2, p, cone_mod.nonnegative_orthant(2),
                       _box((-5.0, 5.0)), values, jacobians)


def _make_ex2():
    p = 30
    th = 2.0 * np.pi * np.arange(p) / 30.0

    def values(x):
        t = x[0]
        return np.column_stack([
            0.27 * np.sin(th) * np.cos(th) + t * t,
            math.cos(2.0 * t) + 1.0 / (1.0 + math.exp(2.0 * t)) + 0.27 * np.cos(th),
            0.27 * t * t + np.arange(p) / 30.0,
        ])

    def jacobians(x):
        t = x[0]
        e2 = math.exp(2.0 * t)
        J = np.empty((p, 3, 1))
        J[:, 0, 0] = 2.0 * t
        J[:, 1, 0] = -2.0 * math.sin(2.0 * t) - 2.0 * e2 / (1.0 + e2) ** 2
        J[:, 2, 0] = 0.54 * t
        return J

    return ProblemSpec("ex2", 1, 3, p, cone_mod.nonnegative_orthant(3),
                       _box((-5.0, 5.0)), values, jacobians)


def _make_ex3():
    p = 25
    th = 2.0 * np.pi * np.arange(p) / 100.0
    off1 = np.cos(th) * np.sin(th) ** 2
    off2 = np.cos(th) ** 2 * np.sin(th)

    def values(x):
        x1, x2 = x
        return np.column_stack([
            x1 * x1 + math.cos(x2) + off1 + x2 * x2,
            2.0 * x1 * x1 + math.sin(x1) + off2 + 2.0 * x2 * x2,
        ])

    def jacobians(x):
        x1, x2 = x
        J = np.empty((p, 2, 2))
        J[:, 0, 0] = 2.0 * x1
        J[:, 0, 1] = -math.sin(x2) + 2.0 * x2
        J[:, 1, 0] = 4.0 * x1 + math.cos(x1)
        J[:, 1, 1] = 4.0 * x2
        return J

    return ProblemSpec("ex3", 2, 2, p, cone_mod.nonnegative_orthant(2),
                       _box((-5.0, 5.0), (-5.0, 5.0)), values, jacobians)


def _make_ex4():
    p = 10
    th = 2.0 * np.pi * np.arange(p) / 20.0

    def values(x):
        x1, x2 = x
        e1, e2 = math.exp(x1), math.exp(x2)
        return np.column_stack([
            e1 + np.sin(th) + e2,
            2.0 * e1 + np.cos(th) + 2.0 * e2,
            x1 * x1 + np.arange(p) / 20.0 + x2 * x2,
        ])

    def jacobians(x):
        x1, x2 = x
        e1, e2 = math.exp(x1), math.exp(x2)
        J = np.empty((p, 3, 2))
        J[:, 0, 0] = e1
        J[:, 0, 1] = e2
        J[:, 1, 0] = 2.0 * e1
        J[:, 1, 1] = 2.0 * e2
        J[:, 2, 0] = 2.0 * x1
        J[:, 2, 1] = 2.0 * x2
        return J

    return ProblemSpec("ex4", 2, 3, p, cone_mod.nonnegative_orthant(3),
                       _box((-4.0, 3.0), (-4.0, 3.0)), values, jacobians)


def _make_ex5():
    p = 4
    i = np.arange(1, p + 1)
    K = cone_mod.validate([[6.0, -2.0], [-7.0, 10.0]], [1.0, 1.0])

    def values(x):
        t = x[0]
        s = math.sin(t)
        return np.column_stack([
            2.0 * t * t + math.exp(t) + (i - 3.0) / 2.0,
            (t / 2.0) * math.cos(t) + (3.0 - i) / 2.0 * s * s,
        ])

    def jacobians(x):
        t = x[0]
        s, c = math.sin(t), math.cos(t)
        J = np.empty((p, 2, 1))
        J[:, 0, 0] = 4.0 * t + math.exp(t)
        J[:, 1, 0] = c / 2.0 - (t / 2.0) * s + (3.0 - i) * s * c
        return J

    return ProblemSpec("ex5", 1, 2, p, K, _box((2.3350, 4.4010)), values, jacobians)


def _make_ex6():
    p = 100
    th = 2.0 * np.pi * np.arange(p) / 100.0
    off1 = 0.25 * np.cos(th) * np.sin(th) ** 2
    off2 = 0.25 * np.cos(th) ** 2 * np.sin(th)
    # e = (1,1) is not interior for this cone; (-1,-0.5) is.
    K = cone_mod.validate([[2.0, -6.0], [-6.0, 7.0]], [-1.0, -0.5])

    def values(x):
        x1, x2 = x
        e12 = math.exp(x1 + x2)
        return np.column_stack([
            x1 * x1 + math.sin(x1) + x1 * x1 * math.cos(x2) + off1 + e12 + x2 * x2,
            2.0 * x1 * x1 + x2 * x2 * math.cos(x1) + off2 + math.cos(x2) + e12 + 2.0 * x2 * x2,
        ])

    def jacobians(x):
        x1, x2 = x
        e12 = math.exp(x1 + x2)
        J = np.empty((p, 2, 2))
        J[:, 0, 0] = 2.0 * x1 + math.cos(x1) + 2.0 * x1 * math.cos(x2) + e12
        J[:, 0, 1] = -x1 * x1 * math.sin(x2) + e12 + 2.0 * x2
        J[:, 1, 0] = 4.0 * x1 - x2 * x2 * math.sin(x1) + e12
        J[:, 1, 1] = 2.0 * x2 * math.cos(x1) - math.sin(x2) + e12 + 4.0 * x2
        return J

    return ProblemSpec("ex6", 2, 2, p, K,
                       _box((-math.pi, math.pi), (-math.pi, math.pi)), values, jacobians)


def uncertainty_grid() -> np.ndarray:
    """The (100, 2) grid of shifts used by the facility-location family."""
    pts = -1.0 + 2.0 * np.arange(10) / 9.0
    a, b = np.meshgrid(pts, pts, indexing="ij")
    return np.column_stack([a.ravel(), b.ravel()])


def _make_ex7():
    p = 100
    anchors = np.asarray([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0]])
    shifts = uncertainty_grid()
    # centers[i, r, :] = l_r + u_i
    centers = anchors[None, :, :] + shifts[:, None, :]

    def values(x):
        d = x[None, None, :] - centers
        return 0.5 * np.sum(d * d, axis=2)

    def jacobians(x):
        return x[None, None, :] - centers

    return ProblemSpec("ex7", 2, 3, p, cone_mod.nonnegative_orthant(3),
                       _box((-50.0, 50.0), (-50.0, 50.0)), values, jacobians)


_BUILTIN_FACTORIES = {
    "ex1": _make_ex1, "ex2": _make_ex2, "ex3": _make_ex3, "ex4": _make_ex4,
    "ex5": _make_ex5, "ex6": _make_ex6, "ex7": _make_ex7,
}


def builtin_ref(name: str) -> ProblemSpec:
    """The hand-coded reference of one built-in problem."""
    return _BUILTIN_FACTORIES[name]()
