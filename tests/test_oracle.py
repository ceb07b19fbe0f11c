import numpy as np
import pytest

from setopt import cone, oracle, problem
from setopt.errors import EmptyInput, GridTooLarge

from conftest import make_scalar_problem


def test_bisect_examples(orthant2):
    assert oracle.gerstewitz_bisect(orthant2, [3.0, -1.0], 1e-12) == pytest.approx(3.0, abs=1e-11)
    assert oracle.gerstewitz_bisect(orthant2, [0.0, 0.0], 1e-12) == pytest.approx(0.0, abs=1e-11)
    assert oracle.gerstewitz_bisect(orthant2, -orthant2.e, 1e-12) == pytest.approx(-1.0, abs=1e-11)


def test_brute_min_examples(orthant2, slanted_cone):
    assert oracle.brute_min(orthant2, [[1, 2], [2, 1], [3, 3]]) == (1, 2)
    assert oracle.brute_min(orthant2, [[4.0, 7.0]]) == (1,)
    assert oracle.brute_min(slanted_cone, [[0, 0], [1, 1]]) == (1,)
    assert oracle.brute_wmin(orthant2, [[1, 2], [1, 3]]) == (1, 2)
    with pytest.raises(EmptyInput):
        oracle.brute_min(orthant2, np.zeros((0, 2)))


def test_brute_filters_match_a_loop_over_pairs(any_cone):
    """Each i tests all j in one product; the verdicts are those of one
    in_cone / in_int_cone call per pair."""
    rng = np.random.default_rng(5)
    for trial in range(30):
        vals = rng.integers(-2, 3, (int(rng.integers(1, 25)), any_cone.m)).astype(float)
        if trial % 2:
            vals += rng.uniform(-1e-3, 1e-3, vals.shape) * (rng.random(len(vals)) < 0.5)[:, None]
        tol = (0.0, 1e-3, 0.5)[trial % 3]
        p = len(vals)
        mins = tuple(i + 1 for i in range(p) if not any(
            not np.array_equal(vals[j], vals[i]) and cone.in_cone(any_cone, vals[i] - vals[j], tol)
            for j in range(p)))
        wmins = tuple(i + 1 for i in range(p) if not any(
            j != i and cone.in_int_cone(any_cone, vals[i] - vals[j], tol) for j in range(p)))
        assert oracle.brute_min(any_cone, vals, tol) == mins
        assert oracle.brute_wmin(any_cone, vals, tol) == wmins


def test_grid_spec_guard():
    with pytest.raises(GridTooLarge):
        oracle.GridSpec(lo=(-100.0, -100.0), hi=(100.0, 100.0), step=(1e-3, 1e-3))
    with pytest.raises(ValueError):
        oracle.GridSpec(lo=(1.0,), hi=(0.0,), step=(0.1,))
    with pytest.raises(ValueError):
        oracle.GridSpec(lo=(0.0,), hi=(1.0,), step=(-0.1,))


def test_grid_minmax_single_term():
    grid = oracle.grid1d(-10.0, 10.0, 1e-3)
    u, phi = oracle.grid_minmax([(np.array([2.0]), np.array([[1.0]]))], grid)
    assert u[0] == pytest.approx(-2.0, abs=2e-3)
    assert phi == pytest.approx(-2.0, abs=1e-4)
    with pytest.raises(EmptyInput):
        oracle.grid_minmax([], grid)


def test_exact_minmax_examples():
    u, phi, lam = oracle.exact_minmax([[2.0]], [[[1.0]]])
    assert u == pytest.approx([-2.0]) and phi == pytest.approx(-2.0) and lam.tolist() == [1.0]
    # same-sign gradients: the weaker term binds, u = -1, value -1/2
    u, phi, lam = oracle.exact_minmax([[3.0], [1.0]], [[[1.0]], [[1.0]]])
    assert u == pytest.approx([-1.0]) and phi == pytest.approx(-0.5) and lam.tolist() == [0.0, 1.0]
    # gradients straddling zero: u = 0 on the segment's equal-theta point
    u, phi, lam = oracle.exact_minmax([[3.0], [-1.0]], [[[1.0]], [[1.0]]])
    assert u == pytest.approx([0.0], abs=1e-12) and phi == pytest.approx(0.0, abs=1e-12)
    assert lam == pytest.approx([0.25, 0.75])
    # an exact repeat is one term: the support of lam holds its first index only
    _, phi, lam = oracle.exact_minmax([[1.0, 0.0], [1.0, 0.0]], np.broadcast_to(np.eye(2), (2, 2, 2)))
    assert phi == pytest.approx(-0.5) and lam.tolist() == [1.0, 0.0]
    with pytest.raises(EmptyInput):
        oracle.exact_minmax(np.zeros((0, 1)), np.zeros((0, 1, 1)))


def test_certify_violated():
    # f(x) = x^2 (p=1): x_bar = 1 is strictly dominated near 0
    ps = make_scalar_problem(lambda t: t * t, lambda t: 2.0 * t, box=(-2.0, 2.0))
    verdict = oracle.certify_weak_minimality(ps, [1.0], oracle.grid1d(-2.0, 2.0, 0.01))
    assert verdict.violated and verdict.label == "Violated"
    assert abs(verdict.witness[0]) < 1.0


def test_certify_none_found_at_resolution():
    ps = make_scalar_problem(lambda t: t * t, lambda t: 2.0 * t, box=(-2.0, 2.0))
    # the optimum itself cannot be strictly dominated anywhere
    verdict = oracle.certify_weak_minimality(ps, [0.0], oracle.grid1d(-2.0, 2.0, 0.01))
    assert not verdict.violated and verdict.label == "NoneFoundAtResolution"
    # a grid that excludes the dominating region is (soundly) silent
    verdict2 = oracle.certify_weak_minimality(ps, [1.0], oracle.grid1d(1.5, 2.0, 0.01))
    assert not verdict2.violated


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("i", [0, -1, 26, 1.5])
def test_fd_jacobian_rejects_an_index_outside_the_family(i):
    ps = problem.builtin("ex3")
    with pytest.raises(ValueError, match="1..25"):
        oracle.fd_jacobian(ps, np.zeros(ps.n), i)


def test_fd_jacobian_scalar():
    ps = make_scalar_problem(lambda t: t ** 3, lambda t: 3.0 * t * t)
    J = oracle.fd_jacobian(ps, [2.0], 1)
    assert J[0, 0] == pytest.approx(12.0, abs=1e-5)
