import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from setopt import cone, oracle
from setopt.errors import (DimensionMismatch, EmptyInput, EmptyMatrix, NonFiniteInput,
                           NotInterior, RankDeficient)

vec2 = arrays(np.float64, (2,), elements=st.floats(-100, 100))


def test_validate_identity():
    c = cone.validate(np.eye(2), np.array([1.0, 1.0]))
    assert np.array_equal(c.Ae, [1.0, 1.0])
    assert c.m == 2 and c.Q == 2


def test_validate_copies_the_callers_arrays():
    """The spec is frozen, the caller's arrays are not, and a later change to
    them leaves the spec (and its cached A e) as validated."""
    A, e = np.eye(2), np.array([1.0, 1.0])
    c = cone.validate(A, e)
    assert A.flags.writeable and e.flags.writeable
    A[0, 0], e[:] = -7.0, [-1.0, 5.0]
    assert np.array_equal(c.A, np.eye(2))
    assert np.array_equal(c.e, [1.0, 1.0]) and np.array_equal(c.Ae, [1.0, 1.0])
    assert cone.in_int_cone(c, c.e)
    assert not (c.A.flags.writeable or c.e.flags.writeable or c.Ae.flags.writeable)


def test_validate_slanted(slanted_cone):
    assert np.array_equal(slanted_cone.Ae, [4.0, 3.0])


def test_validate_rank_deficient():
    with pytest.raises(RankDeficient):
        cone.validate(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1.0, 1.0]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("A, e, name", [
    ([[1.0, 0.0], [0.0, 1.0]], [np.nan, 1.0], "interior direction e"),
    ([[1.0, 0.0], [0.0, 1.0]], [np.inf, 1.0], "interior direction e"),
    ([[np.nan, 0.0], [0.0, 1.0]], [1.0, 1.0], "cone matrix A"),
    ([[1.0, 0.0], [0.0, -np.inf]], [1.0, 1.0], "cone matrix A"),
    ([[1e300, 0.0], [0.0, 1e300]], [1e10, 1.0], "A e"),
], ids=["nan-e", "inf-e", "nan-A", "inf-A", "overflowing-Ae"])
def test_validate_rejects_a_non_finite_cone(A, e, name):
    with pytest.raises(NonFiniteInput, match=f"{name} holds a non-finite value"):
        cone.validate(A, e)


@pytest.mark.filterwarnings("error")
def test_validate_rejects_a_matrix_that_is_not_2d():
    with pytest.raises(DimensionMismatch, match="3 dimensions"):
        cone.validate(np.ones((2, 2, 2)), [1.0, 1.0])


def test_validate_not_interior():
    with pytest.raises(NotInterior):
        cone.validate(np.array([[2.0, -6.0], [-6.0, 7.0]]), np.array([1.0, 1.0]))


def test_validate_empty():
    with pytest.raises(EmptyMatrix):
        cone.validate(np.zeros((0, 0)), np.zeros(0))


def test_in_cone(orthant2, slanted_cone):
    assert cone.in_cone(orthant2, [0.0, 0.0])
    assert cone.in_cone(slanted_cone, [1.0, 1.0])
    assert cone.in_cone(orthant2, [-1e-14, 1.0], tol=1e-12)
    assert not cone.in_cone(orthant2, [-1e-6, 1.0])


def test_in_int_cone(orthant2, slanted_cone):
    assert cone.in_int_cone(orthant2, [1.0, 1.0])
    assert not cone.in_int_cone(orthant2, [0.0, 1.0])
    assert cone.in_int_cone(slanted_cone, slanted_cone.e)


def test_dimension_mismatch(orthant2):
    with pytest.raises(DimensionMismatch):
        cone.in_cone(orthant2, [1.0, 2.0, 3.0])


def test_leq_lt(orthant2, slanted_cone):
    assert cone.leq(orthant2, [1.0, 2.0], [1.0, 3.0])
    assert not cone.lt(orthant2, [1.0, 2.0], [1.0, 3.0])
    assert cone.lt(slanted_cone, [0.0, 0.0], [1.0, 1.0])
    assert cone.leq(slanted_cone, [0.3, -0.7], [0.3, -0.7])  # reflexivity


def test_gerstewitz_closed_form(orthant2, slanted_cone):
    assert cone.gerstewitz(orthant2, [3.0, -1.0]) == 3.0
    assert cone.gerstewitz(orthant2, [0.0, 0.0]) == 0.0
    assert cone.gerstewitz(slanted_cone, [1.0, 0.0]) == pytest.approx(1.5, abs=1e-15)


def test_varsigma(orthant2):
    assert cone.varsigma(orthant2, [[3.0, -1.0], [0.0, 2.0]]) == 2.0
    assert cone.varsigma(orthant2, [[0.7, -0.2]]) == cone.gerstewitz(orthant2, [0.7, -0.2])
    base = cone.varsigma(orthant2, [[0.0, 0.0]])
    shifted = cone.varsigma(orthant2, [np.zeros(2) + 1.0 * orthant2.e])
    assert shifted == pytest.approx(base + 1.0, abs=1e-15)
    with pytest.raises(EmptyInput):
        cone.varsigma(orthant2, np.zeros((0, 2)))


def _rand_vecs(c, count, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-10.0, 10.0, (count, c.m))


def test_property_suite(any_cone):
    c = any_cone
    Y = _rand_vecs(c, 300, 11)
    Z = _rand_vecs(c, 300, 12)
    gy = cone.gerstewitz_batch(c, Y)
    gz = cone.gerstewitz_batch(c, Z)
    # sublinearity
    assert np.all(cone.gerstewitz_batch(c, Y + Z) <= gy + gz + 1e-12)
    # positive homogeneity
    lam = np.random.default_rng(13).uniform(0.1, 9.0, 300)
    scaled = cone.gerstewitz_batch(c, lam[:, None] * Y)
    assert np.allclose(scaled, lam * gy, rtol=1e-12, atol=1e-12)
    # Lipschitz
    assert np.all(np.abs(gy - gz) <= c.lipschitz * np.linalg.norm(Y - Z, axis=1) + 1e-12)
    # monotonicity + representability + translativity, per sample
    for y, z, v in zip(Y[:100], Z[:100], gy[:100]):
        if cone.leq(c, y, z):
            assert v <= cone.gerstewitz(c, z) + 1e-12
        assert cone.in_cone(c, -y) == (v <= 0.0)
        assert cone.in_int_cone(c, -y) == (v < 0.0)
        t = float(z[0])
        assert cone.gerstewitz(c, y + t * c.e) == pytest.approx(v + t, abs=1e-10)


def test_bisection_oracle_agreement(any_cone):
    c = any_cone
    for y in _rand_vecs(c, 50, 21):
        assert cone.gerstewitz(c, y) == pytest.approx(
            oracle.gerstewitz_bisect(c, y, tol=1e-12), abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(y=vec2, z=vec2)
def test_sublinearity_hypothesis(y, z):
    c = cone.nonnegative_orthant(2)
    assert cone.gerstewitz(c, y + z) <= cone.gerstewitz(c, y) + cone.gerstewitz(c, z) + 1e-9
