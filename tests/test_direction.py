import collections
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bfgs_ref
import minmax_ref
from setopt import bench, direction, oracle, problem, setorder, solver
from setopt.errors import (EmptyInput, NumericalBreakdown, PartitionTooLarge, SetoptError,
                           SingularSystem)


def test_init_store():
    store = direction.HessianStore(n=2, p=3, Q=2)
    assert store.matrices.shape == (3, 2, 2, 2)
    assert np.array_equal(store.matrices[1, 1], np.eye(2))
    assert store.spd_check()
    for n in (1, 2, 3):  # the bytes of the broadcast identity stack, positive zeros included
        store = direction.HessianStore(n=n, p=4, Q=3)
        assert store.matrices.flags.c_contiguous
        eye = np.broadcast_to(np.eye(n), (4, 3, n, n)).copy()
        assert store.matrices.tobytes() == eye.tobytes()


def test_bfgs_fixed_point():
    store = direction.HessianStore(2, 1, 1)
    rep = direction.bfgs_update(store, [1.0, 0.0], np.array([[[1.0, 0.0]]]))
    assert rep.applied == [(1, 1)]
    assert np.allclose(store.matrices[0, 0], np.eye(2))


def test_bfgs_diagonal_stretch():
    store = direction.HessianStore(2, 1, 1)
    direction.bfgs_update(store, [1.0, 0.0], np.array([[[2.0, 0.0]]]))
    assert np.allclose(store.matrices[0, 0], np.diag([2.0, 1.0]))


def test_bfgs_cautious_skip():
    store = direction.HessianStore(2, 1, 1)
    rep = direction.bfgs_update(store, [1.0, 0.0], np.array([[[-1.0, 0.0]]]))
    assert rep.skipped == [(1, 1)] and rep.applied == []
    assert np.array_equal(store.matrices[0, 0], np.eye(2))


def test_bfgs_zero_step():
    store = direction.HessianStore(2, 1, 1)
    with pytest.raises(NumericalBreakdown):
        direction.bfgs_update(store, [0.0, 0.0], np.zeros((1, 1, 2)))


def test_bfgs_secant_and_spd_random():
    rng = np.random.default_rng(8)
    store = direction.HessianStore(3, 2, 2)
    pairs = 0
    for _ in range(30):
        s = rng.standard_normal(3)
        y_all = rng.standard_normal((2, 2, 3))
        rep = direction.bfgs_update(store, s, y_all)
        pairs += len(rep.applied) + len(rep.skipped)
        for (i, q) in rep.applied:
            y = y_all[i - 1, q - 1]
            resid = store.matrices[i - 1, q - 1] @ s - y
            assert np.linalg.norm(resid) <= 1e-10 * (1.0 + np.linalg.norm(y))
        assert store.spd_check()
    assert pairs == 30 * 4


def _reference_bfgs(store, s, y_all, c_curv=1e-8):
    """Unbatched cautious BFGS: one (i, q) matrix at a time, in row-major order."""
    s = np.asarray(s, dtype=float).ravel()
    s_norm = np.linalg.norm(s)
    if s_norm == 0.0:
        raise NumericalBreakdown("BFGS update with a zero step")
    applied = np.zeros((store.p, store.Q), dtype=bool)
    for i in range(store.p):
        for q in range(store.Q):
            y = y_all[i, q]
            sy = float(s @ y)
            if sy <= 0.0 or sy < c_curv * s_norm * np.linalg.norm(y):
                continue
            B = store.matrices[i, q]
            Bs = B @ s
            sBs = float(s @ Bs)
            if sBs <= 0.0:
                raise NumericalBreakdown(f"s'Bs = {sBs:g} <= 0 for component ({i + 1},{q + 1})")
            store.matrices[i, q] = B - np.outer(Bs, Bs) / sBs + np.outer(y, y) / sy
            applied[i, q] = True
    return direction.UpdateReport(mask=applied)


def _twin_stores(n, p, Q, rng):
    fast = direction.HessianStore(n, p, Q)
    M = rng.standard_normal((p, Q, n, n))
    fast.matrices[:] = M @ M.transpose(0, 1, 3, 2) + np.eye(n)
    ref = direction.HessianStore(n, p, Q)
    ref.matrices[:] = fast.matrices
    return fast, ref


@pytest.mark.parametrize("n, p, Q", [(1, 4, 2), (2, 7, 3), (10, 3, 4)])
def test_bfgs_matches_reference_loop(n, p, Q):
    rng = np.random.default_rng(n * 100 + p)
    fast, ref = _twin_stores(n, p, Q, rng)
    applied = 0
    for k in range(25):
        s = rng.standard_normal(n)
        y_all = rng.standard_normal((p, Q, n))
        if k % 5 == 0:
            # nearly orthogonal pairs land on either side of the c_curv test
            y_all -= 0.999999 * np.einsum("iqn,n->iq", y_all, s)[..., None] * s / (s @ s)
        c_curv = 1e-8 if k % 2 else 1e-3
        with mock.patch.object(direction, "C_CURV", c_curv):
            rep = direction.bfgs_update(fast, s, y_all)
        rep_ref = _reference_bfgs(ref, s, y_all, c_curv)
        assert rep.applied == rep_ref.applied and rep.skipped == rep_ref.skipped
        applied += int(rep.mask.sum())
        scale = np.abs(ref.matrices).max()
        assert np.max(np.abs(fast.matrices - ref.matrices)) <= 1e-12 * scale
    assert 0 < applied < 25 * p * Q


def test_bfgs_breakdown_names_first_component_like_reference():
    rng = np.random.default_rng(4)
    fast, ref = _twin_stores(2, 3, 2, rng)
    for store in (fast, ref):
        store.matrices[2, 0] = -np.eye(2)
        store.matrices[1, 1] = -np.eye(2)
    s = np.array([1.0, 0.5])
    y_all = np.broadcast_to(s, (3, 2, 2)).copy()           # s'y > 0 everywhere
    before = fast.matrices.copy()
    with pytest.raises(NumericalBreakdown, match=r"\(2,2\)"):
        direction.bfgs_update(fast, s, y_all)
    # every pair passes, so the update runs in the store's own matrices: none is written
    assert fast.matrices.tobytes() == before.tobytes()
    with pytest.raises(NumericalBreakdown, match=r"\(2,2\)"):
        _reference_bfgs(ref, s, y_all)
    with pytest.raises(NumericalBreakdown, match="zero step"):
        direction.bfgs_update(fast, np.zeros(2), y_all)
    with pytest.raises(NumericalBreakdown, match="zero step"):
        _reference_bfgs(ref, np.zeros(2), y_all)


@pytest.mark.parametrize("passing", ["none", "some", "every"])
@pytest.mark.parametrize("n, p, Q", [(1, 4, 2), (2, 7, 3), (3, 3, 4)])
def test_bfgs_equals_the_take_and_write_back_update_bit_for_bit(passing, n, p, Q):
    """The update in the store's own matrices, when every pair passes, rounds as the
    copy-and-write-back update of tests/bfgs_ref.py does; so do the other paths."""
    rng = np.random.default_rng(n * 1000 + p * 10 + Q)
    fast, ref = _twin_stores(n, p, Q, rng)
    for _ in range(10):
        s = rng.standard_normal(n)
        y_all = rng.standard_normal((p, Q, n))
        sign = np.sign(y_all @ s)[..., None]              # y_all * sign has s'y > 0
        if passing == "none":
            sign = -sign
        elif passing == "some":  # at random, the first pair passing and the last not
            flip = rng.choice([-1.0, 1.0], (p, Q, 1))
            flip[0, 0], flip[-1, -1] = 1.0, -1.0
            sign = sign * flip
        y_all *= sign
        rep = direction.bfgs_update(fast, s, y_all)
        rep_ref = bfgs_ref.bfgs_update(ref, s, y_all)
        assert np.array_equal(rep.mask, rep_ref.mask)
        assert {"none": not rep.mask.any(), "every": rep.mask.all(),
                "some": 0 < rep.mask.sum() < rep.mask.size}[passing]
        assert fast.matrices.tobytes() == ref.matrices.tobytes()


def test_solve_minmax_single_term():
    u, phi, lam, gap, ok = direction.solve_minmax(np.array([[2.0]]), np.array([[[1.0]]]))
    assert u == pytest.approx([-2.0], abs=1e-9)
    assert phi == pytest.approx(-2.0, abs=1e-9)
    assert lam == pytest.approx([1.0])
    assert gap <= 1e-10 and ok


def test_solve_minmax_two_terms_opposite_signs():
    # gradients straddle zero: the point is stationary, so u = 0, value 0
    gs = np.array([[3.0], [-1.0]])
    Hs = np.array([[[1.0]], [[1.0]]])
    u, phi, lam, gap, ok = direction.solve_minmax(gs, Hs)
    assert u == pytest.approx([0.0], abs=1e-8)
    assert phi == 0.0
    grid = oracle.grid1d(-10.0, 10.0, 1e-4)
    _, gphi = oracle.grid_minmax([(gs[0], Hs[0]), (gs[1], Hs[1])], grid)
    assert gphi == pytest.approx(0.0, abs=1e-6)


def test_solve_minmax_two_terms_descent():
    # same-sign gradients: the weaker term is binding; optimum u=-1, value -1/2
    gs = np.array([[3.0], [1.0]])
    Hs = np.array([[[1.0]], [[1.0]]])
    u, phi, lam, gap, ok = direction.solve_minmax(gs, Hs)
    assert u == pytest.approx([-1.0], abs=1e-6)
    assert phi == pytest.approx(-0.5, abs=1e-8)
    assert gap <= 1e-10 and ok


def test_solve_minmax_stationary():
    u, phi, lam, gap, ok = direction.solve_minmax(np.zeros((3, 2)),
                                                  np.broadcast_to(np.eye(2), (3, 2, 2)))
    assert np.array_equal(u, np.zeros(2)) and phi == 0.0


def test_phi_nonpositive_and_weak_duality():
    rng = np.random.default_rng(31)
    for _ in range(50):
        T = int(rng.integers(1, 7))
        n = int(rng.integers(1, 4))
        gs = rng.uniform(-3, 3, (T, n))
        Hs = np.empty((T, n, n))
        for t in range(T):
            M = rng.uniform(-1, 1, (n, n))
            Hs[t] = M @ M.T + 0.3 * np.eye(n)
        u, phi, lam, gap, ok = direction.solve_minmax(gs, Hs)
        assert phi <= 0.0
        assert gap >= -1e-12
        assert ok and gap <= 1e-10


def test_scale_coherence():
    rng = np.random.default_rng(41)
    gs = rng.uniform(-2, 2, (4, 2))
    Hs = np.empty((4, 2, 2))
    for t in range(4):
        M = rng.uniform(-1, 1, (2, 2))
        Hs[t] = M @ M.T + np.eye(2)
    u1, phi1, *_ = direction.solve_minmax(gs, Hs)
    c = 3.7
    u2, phi2, *_ = direction.solve_minmax(c * gs, c * Hs)
    assert phi2 == pytest.approx(c * phi1, abs=1e-10 * (1 + abs(c * phi1)))
    assert u2 == pytest.approx(u1, abs=1e-8)


def _degenerate_terms(rng, shape, identity):
    """Exact repeats (3 terms x 10 copies) or 12 gradients on a segment plus 1 more."""
    n = 2

    def matrices(k):
        if identity:
            return np.broadcast_to(np.eye(n), (k, n, n)).copy()
        M = rng.uniform(-1.0, 1.0, (k, n, n))
        return M @ M.transpose(0, 2, 1) + np.eye(n)

    if shape == "repeats":
        order = rng.permutation(np.repeat(np.arange(3), 10))
        return rng.uniform(-2.0, 2.0, (3, n))[order], matrices(3)[order]
    a, b = rng.uniform(-2.0, 2.0, (2, n))
    on_segment = a + rng.uniform(0.0, 1.0, (12, 1)) * (b - a)
    return np.vstack([on_segment, rng.uniform(-2.0, 2.0, (1, n))]), matrices(13)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from(["repeats", "segment"]),
       identity=st.booleans())
def test_degenerate_terms_match_grid_oracle(seed, shape, identity):
    """Repeated and collinear terms converge, on an affinely independent support."""
    gs, Hs = _degenerate_terms(np.random.default_rng(seed), shape, identity)
    with mock.patch.object(direction, "MAX_INNER", 200):
        u, phi, lam, gap, ok = direction.solve_minmax(gs, Hs)
    assert ok and gap <= 1e-10
    assert lam.shape == (len(gs),) and lam.sum() == pytest.approx(1.0)
    assert np.count_nonzero(lam) <= gs.shape[1] + 1
    terms = list(zip(gs, Hs))
    assert oracle.minmax_value(terms, u) == pytest.approx(phi, abs=1e-12)
    # lam certifies phi: its dual value, computed here, is a lower bound on the min
    g, H = lam @ gs, np.einsum("t,tij->ij", lam, Hs)
    assert phi + 0.5 * g @ np.linalg.solve(H, g) <= 1e-10
    # no grid point beats u; on a kink ridge the grid itself may miss by ~1e-4
    grid = oracle.GridSpec(lo=(-5.0, -5.0), hi=(5.0, 5.0), step=(2e-2, 2e-2))
    gu, gphi = oracle.grid_minmax(terms, grid, refinements=3)
    assert gphi - 1e-3 <= phi <= gphi + 1e-12


@pytest.mark.parametrize("seed, shape, identity", [(279754, "segment", False),
                                                    (7, "segment", True), (11, "repeats", False)])
def test_degenerate_terms_match_exact_oracle(seed, shape, identity, monkeypatch):
    """Seed 279754's segment is where the grid oracle misses the kink-ridge minimum by 1e-4."""
    gs, Hs = _degenerate_terms(np.random.default_rng(seed), shape, identity)
    monkeypatch.setattr(direction, "MAX_INNER", 200)
    u, phi, lam, gap, ok = direction.solve_minmax(gs, Hs)
    eu, ephi, elam = oracle.exact_minmax(gs, Hs)
    assert ok and phi == pytest.approx(ephi, abs=1e-12)
    assert np.linalg.norm(u - eu) <= 1e-6
    if seed == 279754:
        assert ephi == pytest.approx(-0.2386122, abs=1e-7)


def test_exact_oracle_equivalence():
    """phi against the support-enumeration oracle, n = 1, 2, 3, at most 6 terms."""
    rng = np.random.default_rng(606)
    for trial in range(45):
        n = 1 + trial % 3
        T = int(rng.integers(1, 7))
        gs = rng.uniform(-2.0, 2.0, (T, n))
        M = rng.uniform(-1.0, 1.0, (T, n, n))
        Hs = M @ M.transpose(0, 2, 1) + np.eye(n)
        u, phi, lam, gap, ok = direction.solve_minmax(gs, Hs)
        eu, ephi, elam = oracle.exact_minmax(gs, Hs)
        assert ok and phi == pytest.approx(ephi, abs=1e-12)
        assert np.linalg.norm(u - eu) <= 1e-6


# --- solve_minmax against the reference (tests/minmax_ref.py) ---------------

def _bits(out):
    """The five outputs as bytes and types, so that -0.0 and the float types count."""
    u, phi, lam, gap, ok = out
    return (np.asarray(u).tobytes(), np.float64(phi).tobytes(), type(phi), lam.tobytes(),
            np.float64(gap).tobytes(), type(gap), ok)


def _minmax_instance(seed, n, distinct, repeats, identity):
    """distinct terms, each repeated 1..repeats times in random order, with H_t = I
    (a read-only broadcast, as steepest descent passes it) or SPD."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** int(rng.integers(-2, 3))
    order = rng.permutation(np.repeat(np.arange(distinct), rng.integers(1, repeats + 1, distinct)))
    gs = rng.uniform(-2.0, 2.0, (distinct, n))[order] * scale
    if identity:
        Hs = np.broadcast_to(np.eye(n), (len(gs), n, n))
    else:
        M = rng.uniform(-1.0, 1.0, (distinct, n, n))
        Hs = (M @ M.transpose(0, 2, 1) + 0.1 * np.eye(n))[order]
    return gs, Hs


def _assert_matches_reference(out, ref, gs):
    """n >= 3 runs the numpy path, which must return the reference's bits.  n <= 2
    runs the ascent on Python floats: the same converged flag, and phi and u
    within 1e-12 of the reference at the gradients' scale."""
    if gs.shape[1] >= 3:
        assert _bits(out) == _bits(ref)
        return
    s = max(1.0, float(np.abs(gs).max()))
    assert out[4] == ref[4]
    assert abs(out[1] - ref[1]) <= 1e-12 * s * s
    assert np.abs(out[0] - ref[0]).max() <= 1e-12 * s


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 2, 3]), distinct=st.integers(1, 6),
       repeats=st.sampled_from([1, 4, 40]), identity=st.booleans(),
       max_inner=st.sampled_from([500, 2, 0]))
def test_solve_minmax_matches_reference_bit_for_bit(seed, n, distinct, repeats, identity,
                                                    max_inner):
    gs, Hs = _minmax_instance(seed, n, distinct, repeats, identity)
    with mock.patch.object(direction, "MAX_INNER", max_inner):
        out = direction.solve_minmax(gs, Hs)
    _assert_matches_reference(out, minmax_ref.solve_minmax(gs, Hs, 1e-10, max_inner), gs)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([3, 4, 6]), distinct=st.integers(7, 24),
       repeats=st.sampled_from([1, 4, 40]), identity=st.booleans(),
       max_inner=st.sampled_from([500, 2, 0]))
def test_solve_minmax_matches_reference_beyond_six_terms(seed, n, distinct, repeats, identity,
                                                         max_inner):
    """With more than 6 distinct terms, the ascent's left-to-right sum of a trial lam may
    round apart from numpy's pairwise sum in the reference: the same converged flag, and
    phi and u within 1e-12 of the reference at the gradients' scale s."""
    gs, Hs = _minmax_instance(seed, n, distinct, repeats, identity)
    with mock.patch.object(direction, "MAX_INNER", max_inner):
        out = direction.solve_minmax(gs, Hs)
    ref = minmax_ref.solve_minmax(gs, Hs, 1e-10, max_inner)
    s = max(1.0, float(np.abs(gs).max()))
    assert out[4] == ref[4]
    assert abs(out[1] - ref[1]) <= 1e-12 * s * s
    assert np.abs(out[0] - ref[0]).max() <= 1e-12 * s


def test_reference_draws_step_on_two_term_and_full_faces(monkeypatch):
    """The instances above reach 2-term faces and (n + 1)-term faces for every n,
    and match the reference there too."""
    sizes, floats = collections.defaultdict(set), collections.defaultdict(set)
    face_step, face_step_floats = minmax_ref._face_step, direction._face_step

    def spy(S, point):
        sizes[point[2].shape[1]].add(len(S))
        return face_step(S, point)

    def floats_spy(S, point):
        floats[len(point[0])].add(len(S))
        return face_step_floats(S, point)

    monkeypatch.setattr(minmax_ref, "_face_step", spy)
    monkeypatch.setattr(direction, "_face_step", floats_spy)
    for seed in range(40):
        for n in (1, 2, 3):
            gs, Hs = _minmax_instance(seed, n, 1 + seed % 6, (1, 4, 40)[seed % 3], seed % 4 == 0)
            _assert_matches_reference(direction.solve_minmax(gs, Hs),
                                      minmax_ref.solve_minmax(gs, Hs), gs)
    assert all({2, n + 1} <= sizes[n] for n in (1, 2, 3)), dict(sizes)
    # the closed form at n <= 2 (2 terms), and numpy's eigh at n = 2 for 3 terms and for
    # a fourth term joining a full 3-term face
    assert {2, 3} <= floats[1] and {2, 3, 4} <= floats[2], dict(floats)


def test_faces_beyond_the_closed_form_step_as_the_reference_does(monkeypatch):
    """Every face but 2 terms at n <= 2 gets minmax_ref._face_step's bits on the same
    dual point, in the draws above: 3 terms at n = 1, 3 and 4 terms at n = 2, and 2 and
    3 terms at n = 3."""
    faces, face_step = collections.Counter(), direction._face_step

    def spy(S, point):
        d, dependent = face_step(S, point)
        u, theta, v, phi, Hinv = point
        n = len(u)
        if len(S) > 2 or (n >= 3 and len(S) == 2):
            ref_point = np.array(u), np.array(theta), np.asarray(v), phi, np.reshape(Hinv, (n, n))
            d_ref, dependent_ref = minmax_ref._face_step(S, ref_point)
            assert (np.array(d).tobytes(), dependent) == (d_ref.tobytes(), dependent_ref)
            faces[n, len(S)] += 1
        return d, dependent

    monkeypatch.setattr(direction, "_face_step", spy)
    for seed in range(40):
        for n in (1, 2, 3):
            gs, Hs = _minmax_instance(seed, n, 1 + seed % 6, (1, 4, 40)[seed % 3], seed % 4 == 0)
            direction.solve_minmax(gs, Hs)
    assert {(1, 3), (2, 3), (2, 4), (3, 2), (3, 3)} <= faces.keys(), dict(faces)


def _near_overflow_draws():
    """100 seeded draws per (n, T), n = 2, 3 and T = 2..5 terms: H_t = M M' + I and
    |g| up to 1e150..1e156, where products overflow."""
    for n, T, k in itertools.product((2, 3), (2, 3, 4, 5), range(100)):
        rng = np.random.default_rng([n, T, k])
        scale = 10.0 ** int(rng.integers(150, 157))
        gs = rng.uniform(-1.0, 1.0, (T, n)) * scale
        M = rng.uniform(-1.0, 1.0, (T, n, n))
        yield (n, T, k), gs, M @ M.transpose(0, 2, 1) + np.eye(n)


@pytest.mark.filterwarnings("error")
def test_near_overflow_returns_or_raises_a_setopt_error():
    """No RuntimeWarning and no numpy exception: a solve returns or raises a SetoptError.
    (n, T, k) = (3, 5, 40) reaches a 4-term face whose curvature matrix overflows."""
    outcomes = {}
    for key, gs, Hs in _near_overflow_draws():
        try:
            direction.solve_minmax(gs, Hs)
            outcomes[key] = "return"
        except SetoptError as exc:
            outcomes[key] = type(exc).__name__
    assert outcomes[3, 5, 40] == "NumericalBreakdown"
    assert set(outcomes.values()) == {"return", "SingularSystem", "NumericalBreakdown"}


def test_non_finite_face_curvature_is_a_numerical_breakdown():
    """Under solver.run's errstate, eigh's LinAlgError on a non-finite curvature matrix
    is typed too."""
    gs, Hs = next(draw for key, *draw in _near_overflow_draws() if key == (3, 5, 40))
    with np.errstate(all="ignore"), pytest.raises(NumericalBreakdown, match="face curvature"):
        direction.solve_minmax(gs, Hs)


@pytest.mark.filterwarnings("error")
def test_non_finite_averaged_matrix_takes_the_numpy_path():
    """det H(lam) overflows on Python floats; numpy's dual point takes it, as in the reference."""
    gs = np.array([[1.0, 2.0], [-1.0, 0.5]])
    Hs = np.array([1e200 * np.eye(2)] * 2)
    assert _bits(direction.solve_minmax(gs, Hs)) == _bits(minmax_ref.solve_minmax(gs, Hs))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("H", [np.zeros((2, 2)), np.diag([1.0, 0.0]), np.zeros((3, 3)),
                               np.diag([1.0, 0.0, 0.0])],
                         ids=["zero", "rank1", "zero-n3", "rank1-n3"])
def test_singular_averaged_matrix_raises_singular_system(H):
    gs = np.array([[1.0, 2.0, 0.5], [-1.0, 0.5, 2.0]])[:, :len(H)]
    with pytest.raises(SingularSystem, match="averaged matrix H\\(lam\\) is singular"):
        direction.solve_minmax(gs, np.array([H, H]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n, terms", [(1, 2), (2, 2), (3, 2), (1, 1), (2, 1), (3, 1)],
                         ids=["1", "2", "3", "1-one-term", "2-one-term", "3-one-term"])
def test_non_finite_term_matrix_raises_singular_system(n, terms):
    """An H_t with an inf entry makes H(lam) non-finite: a SingularSystem, not a NaN
    direction with a RuntimeWarning, for the closed forms and for numpy's inverse alike,
    also when that one term holds all the weight."""
    H = np.eye(n)
    H[0, 0] = np.inf
    gs = np.array([[1.0, 2.0, 0.5], [-1.0, 0.5, 2.0]])[:terms, :n]
    with pytest.raises(SingularSystem, match="averaged matrix H\\(lam\\) is singular"):
        direction.solve_minmax(gs, np.array([H] * terms))


def _two_class_problem():
    """1-D, two functions with equal values but distinct gradients at x=0."""
    import setopt.cone as cone_mod

    def values(x):
        return np.array([[x[0] ** 2], [x[0] ** 2]])

    def jacobians(x):
        return np.array([[[2.0 * x[0] + 1.0]], [[2.0 * x[0] - 3.0]]])

    return problem.ProblemSpec("twoclass", 1, 1, 2, cone_mod.nonnegative_orthant(1),
                               np.array([[-1.0, 1.0]]), values, jacobians)


def _grads(ps, x):
    """The (p, Q, n) scalarized gradients at x, as solve_subproblem takes them."""
    return problem.ScalarizedComponents(ps).gradients(np.asarray(x, dtype=float))


def test_solve_subproblem_enumerates_partition():
    ps = _two_class_problem()
    x = np.array([0.0])
    ms = setorder.analyze(ps.cone, problem.eval_F(ps, x))
    assert ms.w == 1 and ms.partition_count() == 2
    sol = direction.solve_subproblem(_grads(ps, x), None, ms)
    # gradients are +1 (a=(1,)) and -3 (a=(2,)); best phi is -4.5 at a=(2,)
    assert sol.a == (2,)
    assert sol.phi == pytest.approx(-4.5, abs=1e-8)
    assert sol.u == pytest.approx([3.0], abs=1e-6)


def test_solve_subproblem_tie_breaks_first():
    ps = _two_class_problem()
    ms = setorder.MinimalStructure((1, 2), ((1, 2),), 1, 0.0)
    # make both selections identical by overriding jacobians via x where equal
    sol = direction.solve_subproblem(_grads(ps, [1.0]), None, ms)
    assert sol.a in ((1,), (2,))
    # deterministic repeat
    sol2 = direction.solve_subproblem(_grads(ps, [1.0]), None, ms)
    assert sol2.a == sol.a and sol2.phi == sol.phi


def test_solve_subproblem_walks_the_partition_set_in_order(monkeypatch):
    """Every selector is solved, in lexicographic order, and a tie keeps the first.

    A spy on solve_minmax maps each call's gradient rows back to the selector
    whose rows they are; the five families' gradients are distinct."""
    grads = np.random.default_rng(5).standard_normal((5, 2, 2))
    solved, solve_minmax = [], direction.solve_minmax

    def spy(gs, Hs, *args):
        rows = np.asarray(gs).reshape(-1, *grads.shape[1:])
        solved.append(tuple(1 + next(i for i, g in enumerate(grads) if np.array_equal(g, r))
                            for r in rows))
        return solve_minmax(gs, Hs, *args)

    monkeypatch.setattr(direction, "solve_minmax", spy)
    ms = setorder.MinimalStructure((1, 2, 3), ((1, 2), (3,)), 2, 0.0)
    direction.solve_subproblem(grads, None, ms)
    assert solved == [(1, 3), (2, 3)]

    ms2 = setorder.MinimalStructure((1, 2, 3, 4, 5), ((1, 2), (3, 4, 5)), 2, 0.0)
    solved.clear()
    direction.solve_subproblem(grads, direction.HessianStore(2, 5, 2), ms2)
    assert solved == [(1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)]
    assert len(solved) == 6 == ms2.partition_count()
    monkeypatch.undo()

    # phi is -1/2 at a = (1,) and -9/2 at the tied a = (2,) and a = (3,)
    ms3 = setorder.MinimalStructure((1, 2, 3), ((1, 2, 3),), 1, 0.0)
    sol = direction.solve_subproblem(np.array([[[1.0]], [[-3.0]], [[-3.0]]]), None, ms3)
    assert sol.a == (2,) and type(sol.a) is tuple
    assert sol.phi == pytest.approx(-4.5, abs=1e-8)


@pytest.mark.filterwarnings("error")
def test_solve_minmax_without_terms_is_empty_input():
    with pytest.raises(EmptyInput, match="no quadratic terms"):
        direction.solve_minmax(np.zeros((0, 2)), np.zeros((0, 2, 2)))


def test_bfgs_report_reads_pairs_from_its_mask():
    store = direction.HessianStore(2, 3, 2)
    s = np.array([1.0, 0.0])
    y_all = np.zeros((3, 2, 2))
    y_all[0, 1] = y_all[2, 0] = s                          # only (1,2) and (3,1) curve
    rep = direction.bfgs_update(store, s, y_all)
    assert rep.mask.tolist() == [[False, True], [False, False], [True, False]]
    assert rep.applied == [(1, 2), (3, 1)]
    assert rep.skipped == [(1, 1), (2, 1), (2, 2), (3, 2)]


def _tie_blocks(rows):
    """Two blocks of `rows` exact duplicates, (0, 1) and (1, 0): both minimal,
    so the partition set has rows**2 selectors."""
    import setopt.cone as cone_mod

    def values(x):
        return np.repeat([[x[0] ** 2, 1.0 + x[0] ** 2], [1.0 + x[0] ** 2, x[0] ** 2]],
                         rows, axis=0)

    def jacobians(x):
        return np.broadcast_to([[2.0 * x[0]], [2.0 * x[0]]], (2 * rows, 2, 1)).copy()

    return problem.ProblemSpec(f"tie{rows}", 1, 2, 2 * rows, cone_mod.nonnegative_orthant(2),
                               np.array([[-1.0, 1.0]]), values, jacobians)


def test_partition_set_over_the_limit_is_refused():
    ps = _tie_blocks(200)
    x = np.array([0.5])
    ms = setorder.analyze(ps.cone, problem.eval_F(ps, x))
    assert ms.w == 2 and ms.partition_count() == 40_000 > direction.PARTITION_LIMIT
    with pytest.raises(PartitionTooLarge, match="40000 selectors"):
        direction.solve_subproblem(_grads(ps, x), None, ms)
    trace = solver.run(ps, x, solver.SolverConfig())
    assert trace.status == solver.NUMERICAL_ERROR and "40000 selectors" in trace.message
    assert trace.iterations == 0


def test_partition_set_at_the_limit_is_solved(monkeypatch):
    monkeypatch.setattr(direction, "PARTITION_LIMIT", 100)
    ps = _tie_blocks(10)
    x = np.array([0.5])
    ms = setorder.analyze(ps.cone, problem.eval_F(ps, x))
    assert ms.partition_count() == direction.PARTITION_LIMIT
    sol = direction.solve_subproblem(_grads(ps, x), None, ms)
    assert sol.a == (1, 11) and sol.u == pytest.approx([-1.0])
    monkeypatch.setattr(direction, "PARTITION_LIMIT", 99)
    with pytest.raises(PartitionTooLarge):
        direction.solve_subproblem(_grads(ps, x), None, ms)


# --- the one-selector shortcut and the n <= 2 start vertex --------------------

def _product_path(grads, store, ms):
    """solve_subproblem's loop over itertools.product(*ms.classes): (a, u, phi, gap)."""
    _, Q, n = grads.shape
    best = None
    for a in itertools.product(*ms.classes):
        sel = np.array(a) - 1
        Hs = (np.eye(n)[None].repeat(len(a) * Q, axis=0) if store is None
              else store.matrices.take(sel, 0).reshape(-1, n, n))
        u, phi, _, gap, _ = direction.solve_minmax(grads.take(sel, 0).reshape(-1, n), Hs)
        if best is None or phi < best[2]:
            best = a, u, phi, gap
    return best


@pytest.mark.parametrize("name", problem.BUILTIN_NAMES)
def test_one_selector_shortcut_equals_the_product_path(name):
    """Where every class is a singleton, ms.minimal_indices is the one selector, and the
    solution is the product path's bit for bit, at the iterates of a run of each method."""
    ps = problem.builtin(name)
    checked = 0
    for method in solver.METHODS:
        trace = solver.run(ps, bench.sample_start(ps, 3, 0), solver.SolverConfig(method=method))
        for rec in trace.records:
            ms = setorder.analyze(ps.cone, problem.eval_F(ps, rec.x))
            if ms.partition_count() != 1:
                continue
            grads = problem.scalarized_gradients(ps.cone, problem.eval_jacobians(ps, rec.x))
            sol = direction.solve_subproblem(grads, trace.store, ms)
            a, u, phi, gap = _product_path(grads, trace.store, ms)
            assert sol.a == a == ms.minimal_indices and type(sol.a) is tuple
            assert sol.u.tobytes() == u.tobytes()
            assert np.float64(sol.phi).tobytes() == np.float64(phi).tobytes()
            assert np.float64(sol.gap).tobytes() == np.float64(gap).tobytes()
            checked += 1
    assert checked >= 2


def _start(gs, Hs):
    """The dual weights solve_minmax starts from: MAX_INNER = 0 takes no ascent step."""
    with mock.patch.object(direction, "MAX_INNER", 0):
        return direction.solve_minmax(gs, Hs)[2]


def _einsum_start(gs):
    lam = np.zeros(len(gs))
    lam[np.einsum("ti,ti->t", gs, gs).argmin()] = 1.0
    return lam


@pytest.mark.parametrize("gs, first", [
    ([[3.0, 4.0], [4.0, 3.0], [0.0, -5.0], [5.0, 0.0]], 0),     # four norms of exactly 5
    ([[2.0, 0.0], [1.0, 1.0], [-1.0, 1.0], [1.0, -1.0]], 1),
    ([[2.0], [-1.0], [1.0], [-2.0]], 1),
    ([[0.0], [-0.0], [0.0]], 0),
])
def test_start_vertex_is_the_first_shortest_gradient(gs, first):
    gs = np.array(gs)
    Hs = np.eye(gs.shape[1])[None].repeat(len(gs), axis=0)
    assert _start(gs, Hs).tobytes() == _einsum_start(gs).tobytes()
    assert _start(gs, Hs).argmax() == first


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 2, 3]), T=st.integers(1, 12),
       kind=st.sampled_from(["integers", "floats", "repeats"]))
def test_start_vertex_matches_the_einsum_argmin(seed, n, T, kind):
    """The n <= 2 start, from Python sums of squares, is numpy's: small integers tie
    exactly, and repeated terms merge into their first index."""
    rng = np.random.default_rng(seed)
    if kind == "integers":
        gs = rng.integers(-3, 4, (T, n)).astype(float)
    else:
        gs = rng.uniform(-2.0, 2.0, (T, n))
        if kind == "repeats":
            gs = gs[rng.integers(0, T, T)]
    Hs = np.eye(n)[None].repeat(T, axis=0)
    assert _start(gs, Hs).tobytes() == _einsum_start(gs).tobytes()
