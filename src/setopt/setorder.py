"""Minimal-element structure of finite image sets under a cone order.

Indices are 1-based throughout, matching the family numbering f^1..f^p.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .cone import ConeSpec
from .errors import EmptyInput


@dataclass(frozen=True)
class PartitionElement:
    """One selector: one function index per minimal-value class."""

    a: tuple


@dataclass(frozen=True)
class MinimalStructure:
    """What one iterate reads of F(x): I(x) and its classes of equal value.

    Weak minimality is a property of a point, not of a step; it is computed
    after a run, by weakly_minimal_elements, where a diagnostic reads it.
    """

    minimal_indices: tuple            # I(x), sorted
    classes: tuple                    # w groups, each a sorted tuple of indices
    w: int

    def partition_count(self) -> int:
        out = 1
        for cls in self.classes:
            out *= len(cls)
        return out


def _as_values(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[None, :]
    if values.size == 0:
        raise EmptyInput("empty image set")
    return values


def _order_gaps(c: ConeSpec, values: np.ndarray) -> np.ndarray:
    """gaps[q, j, i] = (A (v_i - v_j))_q, the one dominance tensor (Q, p, p)."""
    AV = np.ascontiguousarray((values @ c.A.T).T)    # (Q, p), C order keeps
    return AV[:, None, :] - AV[:, :, None]           # the tensor C-contiguous


def _minimal(gaps: np.ndarray, tol: float) -> tuple:
    """Indices i with no j such that v_j <= v_i (at tol) and v_j != v_i.

    Both tests read the same rounded A v: comparing the raw v for
    distinctness would let two images that round to one A v dominate each
    other and empty the minimal set.
    """
    leq = np.all(gaps >= -tol, axis=0)
    distinct = np.any(gaps != 0.0, axis=0)
    dominated = np.any(leq & distinct, axis=0)
    return tuple(int(i) + 1 for i in np.flatnonzero(~dominated))


def minimal_elements(c: ConeSpec, values, tol: float = 0.0) -> tuple:
    """Indices i with no j such that v_j <= v_i and v_j != v_i (1-based)."""
    values = _as_values(values)
    return _minimal(_order_gaps(c, values), tol)


def weakly_minimal_elements(c: ConeSpec, values, tol: float = 0.0) -> tuple:
    """Indices i with no j such that v_j < v_i strictly (1-based)."""
    dominated = np.any(np.all(_order_gaps(c, _as_values(values)) > tol, axis=0), axis=0)
    return tuple(int(i) + 1 for i in np.flatnonzero(~dominated))


def analyze(c: ConeSpec, values, tol_group: float = 1e-8) -> MinimalStructure:
    """Minimal indices of the image set and their classes of equal value.

    This is all a solver iterate reads of F(x).  Classes are connected
    components of the graph linking minimal indices whose images differ by
    at most tol_group in the infinity norm; ordering is deterministic by
    smallest member index.
    """
    values = _as_values(values)
    minimal = _minimal(_order_gaps(c, values), 0.0)
    if not minimal:
        raise EmptyInput("empty minimal index set")
    sub = np.ascontiguousarray(values[np.asarray(minimal, dtype=int) - 1].T)
    k = len(minimal)
    close = np.max(np.abs(sub[:, :, None] - sub[:, None, :]), axis=0) <= tol_group
    rows, cols = np.nonzero(close)
    bounds = np.searchsorted(rows, np.arange(k + 1)).tolist()
    cols = cols.tolist()                # neighbours of v: cols[bounds[v]:bounds[v + 1]]

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
            for u in cols[bounds[v]:bounds[v + 1]]:
                if label[u] < 0:
                    label[u] = len(classes)
                    stack.append(u)
        classes.append(tuple(minimal[v] for v in sorted(comp)))

    return MinimalStructure(minimal_indices=minimal, classes=tuple(classes), w=len(classes))


def partition_iter(ms: MinimalStructure) -> Iterator[PartitionElement]:
    """Lazily enumerate the partition set in lexicographic order."""
    for combo in itertools.product(*ms.classes):
        yield PartitionElement(a=combo)
