"""Minimal-element structure of finite image sets under a cone order.

Indices are 1-based throughout, matching the family numbering f^1..f^p.  A
selector, one index of each class of equal minimal value, is a plain tuple;
the partition set is the product of the classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cone import ConeSpec
from .errors import DimensionMismatch, EmptyInput, NonFiniteInput


@dataclass(frozen=True)
class MinimalStructure:
    """What one iterate reads of F(x): I(x), its classes of equal value and
    the merit value varsigma(F(x)).

    Weak minimality is a property of a point, not of a step; it is computed
    after a run, by weakly_minimal_elements, where a diagnostic reads it.
    """

    minimal_indices: tuple            # I(x), sorted
    classes: tuple                    # w sorted tuples; a selector picks one index of each
    w: int
    varsigma: float                   # min over F(x) of the scalarizing functional

    def partition_count(self) -> int:
        return math.prod(map(len, self.classes))


def _order_values(c: ConeSpec, values):
    """The image set as a (p, m) array and its A v, shape (p, Q).

    A single image may be given as a vector.  Images of another width than the
    cone's m are rejected, and so, since the order is undefined on inf and nan,
    is a non-finite image or an A v that overflows.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[None, :]
    if values.size == 0:
        raise EmptyInput("empty image set")
    if values.ndim != 2:
        raise DimensionMismatch(f"image set has {values.ndim} dimensions, expected 2")
    if values.shape[1] != c.m:
        raise DimensionMismatch(f"images have length {values.shape[1]}, expected {c.m}")
    if not np.isfinite(values).all():
        raise NonFiniteInput("the image set holds a non-finite value")
    AV = values @ c.A.T
    if not np.isfinite(AV).all():
        raise NonFiniteInput("A v overflows for an image of the set")
    return values, AV


def _minimal(AV: np.ndarray) -> np.ndarray:
    """0-based i with no j such that v_j <= v_i and v_j != v_i, sorted.

    AV is the (p, Q) array of A v.  Both tests read the same rounded A v:
    comparing the raw v for distinctness would let two images that round to
    one A v dominate each other and empty the minimal set.

    With Q = 2 the minimal points form a staircase (Kung, Luccio &
    Preparata 1975): sorted by (A v)_0, then (A v)_1, every j with
    v_j <= v_i comes before i, so i is minimal when its (A v)_1 is strictly
    below that of every earlier point.  An exact repeat fails that test
    against its own copy and takes the verdict of the point before it.  The
    sort reads each row of A v as one complex number, which numpy orders
    lexicographically and compares for equality in both parts at once.

    Otherwise one boolean pass over the p^2 pairs gives the order: on finite
    input A v_i - A v_j >= 0 exactly when A v_i >= A v_j, and given
    v_j <= v_i, v_j != v_i is not v_i <= v_j.
    """
    if AV.shape[1] == 2:
        z = np.ascontiguousarray(AV).view(np.complex128).ravel()   # (A v)_0 + i (A v)_1
        order = z.argsort()
        z = z[order]
        keep = np.empty(len(z), dtype=bool)
        keep[0] = True
        np.less(z.imag[1:], np.minimum.accumulate(z.imag[:-1]), out=keep[1:])
        for s in ((z[1:] == z[:-1]).nonzero()[0] + 1).tolist():    # exact repeats
            keep[s] = keep[s - 1]
        return np.sort(order[keep])
    AVt = np.ascontiguousarray(AV.T)                       # (Q, p)
    below = (AVt[:, None, :] >= AVt[:, :, None]).all(axis=0)    # [j, i]: v_j <= v_i
    return (~(below > below.T).any(axis=0)).nonzero()[0]   # v_j <= v_i and not v_i <= v_j


def minimal_elements(c: ConeSpec, values) -> tuple:
    """Indices i with no j such that v_j <= v_i and v_j != v_i (1-based)."""
    _, AV = _order_values(c, values)
    return tuple((_minimal(AV) + 1).tolist())


def weakly_minimal_elements(c: ConeSpec, values) -> tuple:
    """Indices i with no j such that v_j < v_i strictly (1-based)."""
    AVt = np.ascontiguousarray(_order_values(c, values)[1].T)
    dominated = (AVt[:, None, :] > AVt[:, :, None]).all(axis=0).any(axis=0)
    return tuple(((~dominated).nonzero()[0] + 1).tolist())


def analyze(c: ConeSpec, values, tol_group: float = 1e-8) -> MinimalStructure:
    """Minimal indices of the image set, their classes of equal value and varsigma.

    This is all a solver iterate reads of F(x).  The minimal indices come
    from _minimal: one lexicographic sort and a running minimum when
    Q = 2, one boolean pass over the p^2 pairs when Q >= 3.  Classes are
    connected components of the graph linking minimal indices whose images
    differ by at most tol_group in the infinity norm: the (k, k) closeness
    matrix over the k minimal images, squared until it stops growing, is
    their closure, and each row's first member is its class's smallest.
    Classes are ordered by smallest member index.  When every class is a
    singleton the matrix is never squared.  A non-finite tol_group raises
    ValueError.
    """
    if not math.isfinite(tol_group):  # a nan or inf makes every comparison false or true
        raise ValueError(f"tol_group must be finite, got {tol_group}")
    values, AV = _order_values(c, values)
    idx = _minimal(AV)
    if not idx.size:
        raise EmptyInput("empty minimal index set")
    minimal = tuple((idx + 1).tolist())
    sub = np.ascontiguousarray(values[idx].T)
    close = np.abs(sub[:, :, None] - sub[:, None, :]).max(axis=0) <= tol_group
    if np.count_nonzero(close) == len(minimal):       # the diagonal only
        classes = tuple(zip(minimal))
    else:
        reach = close | np.eye(len(minimal), dtype=bool)    # a tol_group < 0 links nothing
        while np.count_nonzero(grown := reach @ reach) > np.count_nonzero(reach):
            reach = grown
        firsts = np.unique(reach.argmax(axis=1))
        classes = tuple(tuple((idx[row] + 1).tolist()) for row in reach[firsts])

    # cone.varsigma bit for bit, its max over each image's Q ratios taken over the
    # rows of the contiguous (Q, p) array: numpy reduces a last axis of length Q slowly
    varsigma = float(np.ascontiguousarray((AV / c.Ae).T).max(axis=0).min())
    return MinimalStructure(minimal_indices=minimal, classes=classes, w=len(classes),
                            varsigma=varsigma)
