"""Polyhedral ordering cones and the associated scalarizing functional.

A cone is represented as ``K = {z : A z >= 0}`` together with an interior
direction ``e`` (``A e > 0`` componentwise).  All order tests and the
scalarizing functional reduce to arithmetic on ``A`` and the cached ``A e``.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (DimensionMismatch, EmptyInput, EmptyMatrix, NonFiniteInput, NotInterior,
                     RankDeficient)


@dataclass(frozen=True)
class ConeSpec:
    """Validated polyhedral cone with an interior witness.

    Immutable after construction; safe to share across solver runs.
    """

    A: np.ndarray          # (Q, m) facet normals
    e: np.ndarray          # (m,) interior direction
    Ae: np.ndarray         # (Q,) cached A @ e, all positive

    @property
    def m(self) -> int:
        return self.A.shape[1]

    @property
    def Q(self) -> int:
        return self.A.shape[0]

    @property
    def lipschitz(self) -> float:
        """Lipschitz constant of the scalarizing functional: max_q ||A_q|| / (Ae)_q."""
        return float(np.max(np.linalg.norm(self.A, axis=1) / self.Ae))


def validate(A, e) -> ConeSpec:
    """Build a ConeSpec, checking pointedness and that e is interior.

    Raises EmptyMatrix, DimensionMismatch (an A that is not 2-D, or an e of
    another length than A's rows), NonFiniteInput (an inf or nan in A or e,
    or an A e that overflows), RankDeficient, or NotInterior.
    """
    # copies: the caller's arrays stay writeable, and later changes to them
    # cannot reach the frozen spec
    A = np.atleast_2d(np.array(A, dtype=float))
    e = np.array(e, dtype=float).ravel()
    if A.size == 0:
        raise EmptyMatrix("cone matrix A is empty")
    if A.ndim != 2:
        raise DimensionMismatch(f"cone matrix A has {A.ndim} dimensions, expected 2")
    for name, v in (("cone matrix A", A), ("interior direction e", e)):
        if not np.isfinite(v).all():
            raise NonFiniteInput(f"{name} holds a non-finite value")
    Q, m = A.shape
    if e.shape[0] != m:
        raise DimensionMismatch(f"e has length {e.shape[0]}, expected {m}")
    if Q < m or np.linalg.matrix_rank(A) < m:
        raise RankDeficient("cone {z : Az >= 0} is not pointed (rank(A) < m)")
    with np.errstate(over="ignore", invalid="ignore"):
        Ae = A @ e
    if not np.isfinite(Ae).all():
        raise NonFiniteInput("A e holds a non-finite value (overflow)")
    if np.any(Ae <= 0):
        bad = int(np.argmin(Ae))
        raise NotInterior(f"(Ae)_{bad + 1} = {Ae[bad]:g} <= 0; e is not in the interior")
    A.setflags(write=False)
    e.setflags(write=False)
    Ae.setflags(write=False)
    return ConeSpec(A=A, e=e, Ae=Ae)


def nonnegative_orthant(m: int) -> ConeSpec:
    """R^m_+ with the all-ones interior direction."""
    return validate(np.eye(m), np.ones(m))


def _check_dim(c: ConeSpec, z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float).ravel()
    if z.shape[0] != c.m:
        raise DimensionMismatch(f"vector has length {z.shape[0]}, expected {c.m}")
    return z


def in_cone(c: ConeSpec, z, tol: float = 0.0) -> bool:
    """z in K up to tol: (Az)_q >= -tol for all q."""
    z = _check_dim(c, z)
    return bool(np.all(c.A @ z >= -tol))


def in_int_cone(c: ConeSpec, z, tol: float = 0.0) -> bool:
    """z in int(K): (Az)_q > tol for all q."""
    z = _check_dim(c, z)
    return bool(np.all(c.A @ z > tol))


def leq(c: ConeSpec, y, z, tol: float = 0.0) -> bool:
    """Partial order: y <= z iff z - y in K."""
    return in_cone(c, np.asarray(z, dtype=float) - np.asarray(y, dtype=float), tol)


def lt(c: ConeSpec, y, z, tol: float = 0.0) -> bool:
    """Strict order: y < z iff z - y in int(K)."""
    return in_int_cone(c, np.asarray(z, dtype=float) - np.asarray(y, dtype=float), tol)


def gerstewitz(c: ConeSpec, y) -> float:
    """Scalarizing functional: min {t : t*e in y + K} = max_q (Ay)_q / (Ae)_q."""
    y = _check_dim(c, y)
    return float(np.max((c.A @ y) / c.Ae))


def gerstewitz_batch(c: ConeSpec, Y) -> np.ndarray:
    """Vectorized gerstewitz over the rows of Y (N, m) -> (N,)."""
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if Y.shape[1] != c.m:
        raise DimensionMismatch(f"rows have length {Y.shape[1]}, expected {c.m}")
    return np.max((Y @ c.A.T) / c.Ae, axis=1)


def varsigma(c: ConeSpec, values) -> float:
    """Merit value of a finite image set: min over the set of gerstewitz."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise EmptyInput("varsigma of an empty set")
    return float(np.min(gerstewitz_batch(c, values)))
