from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from setopt import cone, oracle, problem, setorder
from setopt.errors import DimensionMismatch, EmptyInput, NonFiniteInput, RankDeficient
from setorder_ref import analyze_ref, minimal_ref


def test_minimal_elements_examples(orthant2, slanted_cone):
    assert setorder.minimal_elements(orthant2, [[1, 2], [2, 1], [3, 3]]) == (1, 2)
    assert setorder.minimal_elements(orthant2, [[4.0, 7.0]]) == (1,)
    assert setorder.minimal_elements(slanted_cone, [[0, 0], [1, 1]]) == (1,)


def test_weakly_minimal_examples(orthant2):
    assert setorder.weakly_minimal_elements(orthant2, [[1, 2], [1, 3]]) == (1, 2)
    assert setorder.weakly_minimal_elements(orthant2, [[2, 2], [2, 2], [2, 2]]) == (1, 2, 3)
    assert setorder.weakly_minimal_elements(orthant2, [[0, 0], [1, 1]]) == (1,)


def test_empty_input(orthant2):
    with pytest.raises(EmptyInput):
        setorder.minimal_elements(orthant2, np.zeros((0, 2)))


@pytest.mark.parametrize("vals", [[[1.0, 2.0, 3.0]], [[1.0], [2.0]], np.zeros((2, 2, 2))],
                         ids=["too-wide", "too-narrow", "three-dimensional"])
def test_images_of_the_wrong_shape_are_rejected(orthant2, vals):
    for fn in (setorder.minimal_elements, setorder.weakly_minimal_elements, setorder.analyze):
        with pytest.raises(DimensionMismatch):
            fn(orthant2, vals)


def test_grouping(orthant2):
    vals = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
    ms = setorder.analyze(orthant2, vals)
    assert ms.minimal_indices == (1, 2, 3)
    assert ms.classes == ((1, 3), (2,))   # ordered by smallest member
    assert ms.w == 2
    # tolerance clustering
    # two incomparable near-ties (within 1e-9), one distinct minimal value
    vals2 = np.array([[0.0, 1.0], [1e-9, 1.0 - 1e-9], [1.0, 0.0]])
    ms2 = setorder.analyze(orthant2, vals2)
    assert ms2.classes == ((1, 2), (3,))


def test_grouping_idempotent(any_cone):
    rng = np.random.default_rng(3)
    vals = rng.uniform(-2, 2, (40, any_cone.m))
    ms = setorder.analyze(any_cone, vals)
    reps = vals[[cls[0] - 1 for cls in ms.classes]]
    ms2 = setorder.analyze(any_cone, reps)
    assert ms2.w == ms.w


def test_brute_force_equivalence(any_cone):
    rng = np.random.default_rng(17)
    for _ in range(40):
        p = int(rng.integers(1, 60))
        vals = rng.uniform(-3, 3, (p, any_cone.m))
        assert setorder.minimal_elements(any_cone, vals) == oracle.brute_min(any_cone, vals)
        assert (setorder.weakly_minimal_elements(any_cone, vals)
                == oracle.brute_wmin(any_cone, vals))


def test_min_subset_wmin_and_domination(any_cone):
    rng = np.random.default_rng(23)
    for _ in range(20):
        vals = rng.uniform(-3, 3, (30, any_cone.m))
        mins = setorder.minimal_elements(any_cone, vals)
        wmins = setorder.weakly_minimal_elements(any_cone, vals)
        assert set(mins) <= set(wmins)
        # domination: every point is dominated by some minimal element
        for z in vals:
            assert any(cone.leq(any_cone, vals[i - 1], z) for i in mins)


def test_duplicates_share_class(orthant2):
    vals = np.array([[1.0, 1.0], [1.0, 1.0]])
    ms = setorder.analyze(orthant2, vals)
    assert ms.minimal_indices == (1, 2)
    assert ms.classes == ((1, 2),)
    assert ms.w == 1


def test_images_with_one_rounded_order_value_are_both_minimal():
    """Under ex5's cone A v rounds to (6, -7) for both images, so neither
    dominates the other although they differ in the last component."""
    c = cone.validate([[6.0, -2.0], [-7.0, 10.0]], [1.0, 1.0])
    vals = [[1.0, 1e-20], [1.0, 0.0]]
    assert setorder.minimal_elements(c, vals) == oracle.brute_min(c, vals) == (1, 2)
    ms = setorder.analyze(c, vals)
    assert ms.minimal_indices == (1, 2) and ms.classes == ((1, 2),)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
                min_size=1, max_size=25))
def test_minimal_elements_hypothesis(points):
    c = cone.nonnegative_orthant(2)
    vals = np.asarray(points, dtype=float)
    assert setorder.minimal_elements(c, vals) == oracle.brute_min(c, vals)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=30),
       st.sampled_from(["orthant", "slanted"]))
def test_analyze_matches_separate_filters(points, which):
    """analyze's minimal indices are the public filter's, on exact ties.

    Integer images on a small grid make exact ties common; integer cone rows
    keep A(v_i - v_j) exact, so the brute-force oracle agrees bit for bit.
    """
    c = (cone.nonnegative_orthant(2) if which == "orthant"
         else cone.validate([[6.0, -2.0], [-7.0, 10.0]], [1.0, 1.0]))
    vals = np.asarray(points, dtype=float)
    assert setorder.weakly_minimal_elements(c, vals) == oracle.brute_wmin(c, vals)
    ms = setorder.analyze(c, vals)
    assert ms.minimal_indices == setorder.minimal_elements(c, vals) == oracle.brute_min(c, vals)
    assert sorted(i for cls in ms.classes for i in cls) == list(ms.minimal_indices)
    for cls in ms.classes:
        assert all(np.array_equal(vals[i - 1], vals[cls[0] - 1]) for i in cls)   # exact ties


# --- non-finite images -------------------------------------------------------

@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_image_is_rejected(orthant2, bad):
    """An infinite component used to make [[inf, 1], [inf, 2]] two minimal images."""
    vals = [[bad, 1.0], [bad, 2.0]]
    for fn in (setorder.minimal_elements, setorder.weakly_minimal_elements, setorder.analyze):
        with pytest.raises(NonFiniteInput):
            fn(orthant2, vals)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_order_value_overflow_is_rejected(slanted_cone):
    vals = [[1e308, -1e308], [0.0, 0.0]]          # finite, but A v overflows
    with pytest.raises(NonFiniteInput):
        setorder.analyze(slanted_cone, vals)


# --- analyze against the reference (tests/setorder_ref.py) -------------------

ACCEPTANCE_CONES = (cone.nonnegative_orthant(2), cone.nonnegative_orthant(3),
                    problem.builtin("ex5").cone, problem.builtin("ex6").cone)


def _chain(rng, m, length, tol_group):
    """A near-tie chain: images along (1, -1, 0, ...), which no acceptance
    cone orders, with steps just below and just above tol_group."""
    d = np.zeros(m)
    d[:2] = (1.0, -1.0)
    steps = tol_group * rng.choice([0.5, 0.999, 1.001, 2.0], length - 1)
    pos = np.concatenate([[0.0], np.cumsum(steps)])
    return rng.uniform(-3.0, 3.0, m) + pos[:, None] * d


def _assert_matches_reference(c, vals, tol_group=1e-8):
    with mock.patch.object(setorder, "TOL_GROUP", tol_group):
        ms = setorder.analyze(c, vals)
    minimal, classes, varsigma = analyze_ref(c, vals, tol_group)
    assert ms.minimal_indices == minimal == oracle.brute_min(c, vals)
    assert ms.classes == classes and ms.w == len(classes)
    assert ms.varsigma == varsigma            # cone.varsigma, bit for bit


@settings(max_examples=150, deadline=None)
@given(st.integers(0, len(ACCEPTANCE_CONES) - 1),
       st.sampled_from(["random", "grid", "duplicates", "chain", "chain+random", "single"]),
       st.integers(1, 80), st.sampled_from([1e-8, 0.25]), st.integers(0, 2**32 - 1))
def test_analyze_matches_reference(which, kind, p, tol_group, seed):
    c = ACCEPTANCE_CONES[which]
    rng = np.random.default_rng(seed)
    if kind == "random":
        vals = rng.uniform(-3.0, 3.0, (p, c.m))
    elif kind == "grid":                          # exact ties and exact A v
        vals = rng.integers(-3, 4, (p, c.m)).astype(float)
    elif kind == "duplicates":
        vals = rng.uniform(-3.0, 3.0, (max(1, p // 4), c.m))[rng.integers(0, max(1, p // 4), p)]
    elif kind == "chain":
        vals = _chain(rng, c.m, p, tol_group)
    elif kind == "chain+random":
        vals = np.concatenate([_chain(rng, c.m, p, tol_group),
                               rng.uniform(-3.0, 3.0, (p, c.m))])
    else:                                         # one minimal image, the rest above it along e
        vals = rng.uniform(-3.0, 3.0, c.m) + 0.5 * rng.permutation(p)[:, None] * c.e
    _assert_matches_reference(c, vals[rng.permutation(len(vals))], tol_group)


@pytest.mark.parametrize("seed", range(4))
def test_analyze_long_chain_in_random_order(seed):
    """A 200-point tie chain: a few long classes whose members are far apart
    in index order."""
    c = ACCEPTANCE_CONES[seed]
    rng = np.random.default_rng(seed)
    vals = _chain(rng, c.m, 200, 1e-8)[rng.permutation(200)]
    _assert_matches_reference(c, vals)
    assert setorder.analyze(c, vals).w < 200


# --- Q = 2: the sorted staircase against the tensor references ---------------

PLANAR_CONES = (cone.nonnegative_orthant(2), problem.builtin("ex5").cone,
                problem.builtin("ex6").cone)


def _planar_images(kind, rng, p):
    """p images in R^2 of one kind, each built to hit a case of the staircase."""
    if kind == "grid":                            # exact ties, exact A v
        return rng.integers(-4, 5, (p, 2)).astype(float)
    if kind == "repeats":                         # exact repeats in random order
        base = rng.uniform(-3.0, 3.0, (max(1, p // 5), 2))
        return base[rng.integers(0, len(base), p)]
    if kind == "large-p":                         # theta and -theta tie in v_1
        th = 2.0 * np.pi * rng.integers(0, p, p) / p
        off = 0.25 * np.column_stack([np.cos(th) * np.sin(th) ** 2,
                                      np.cos(th) ** 2 * np.sin(th)])
        return rng.uniform(-1.0, 1.0, 2) + off
    if kind == "rounding":                        # distinct pairs whose A v may round to one value
        base = rng.uniform(-3.0, 3.0, (max(1, p // 2), 2))
        axis = rng.integers(0, 2, len(base))
        base[np.arange(len(base)), axis] = 0.0
        twin = base.copy()
        twin[np.arange(len(base)), axis] = 1e-20
        return np.concatenate([base, twin])[:p]
    if kind == "signed-zero":                     # -0.0 against 0.0
        return rng.choice([-1.0, -0.0, 0.0, 1.0], (p, 2))
    return rng.uniform(-3.0, 3.0, (p, 2))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, len(PLANAR_CONES) - 1),
       st.sampled_from(["grid", "repeats", "large-p", "rounding", "signed-zero", "random"]),
       st.one_of(st.just(1), st.integers(1, 400)), st.sampled_from([1e-8, 0.25]),
       st.integers(0, 2**32 - 1))
def test_planar_staircase_matches_reference(which, kind, p, tol_group, seed):
    """The staircase decides on the rounded A v, as the tensor references do.
    The brute-force oracle rounds A (v_i - v_j) instead, so it is compared
    only where integer images and cone rows make both exact: near ties such
    as large_p's theta = 0 and pi may round either way."""
    c = PLANAR_CONES[which]
    rng = np.random.default_rng(seed)
    vals = _planar_images(kind, rng, p)
    vals = vals[rng.permutation(len(vals))]
    idx = setorder._minimal(vals @ c.A.T)
    minimal, classes, varsigma = analyze_ref(c, vals, tol_group)
    assert np.all(np.diff(idx) > 0)
    assert tuple((idx + 1).tolist()) == minimal == minimal_ref(c, vals)
    assert setorder.minimal_elements(c, vals) == minimal
    with mock.patch.object(setorder, "TOL_GROUP", tol_group):
        ms = setorder.analyze(c, vals)
    assert (ms.minimal_indices, ms.classes, ms.w, ms.varsigma) == (minimal, classes,
                                                                   len(classes), varsigma)
    if kind in ("grid", "signed-zero"):
        assert minimal == oracle.brute_min(c, vals)


# --- varsigma: analyze's reduce against cone.varsigma -------------------------

def _slanted(rows):
    """A cone on the facet normals rows, each moved along e = (1, ..., 1) until e is interior."""
    A = np.array(rows)
    dots = A.sum(axis=1)
    A += np.where(dots > 0.0, 0.0, (1.0 - dots) / A.shape[1])[:, None]
    return cone.validate(A, np.ones(A.shape[1]))


# repeated values tie in the max over Q and in the min over the set; numpy's A v
# turns a signed zero into +0, so the sign of a zero varsigma is not at stake
_COORDINATES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                         st.floats(-1e3, 1e3, allow_nan=False))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_analyze_varsigma_is_cone_varsigma_bit_for_bit(data):
    m = data.draw(st.integers(2, 3))
    Q = data.draw(st.integers(max(2, m), 4))
    rows = data.draw(hnp.arrays(float, (Q, m), elements=st.floats(-10.0, 10.0)))
    try:
        c = _slanted(rows)
    except RankDeficient:
        assume(False)
    p = data.draw(st.integers(1, 200))
    vals = data.draw(hnp.arrays(float, (p, m), elements=_COORDINATES))
    ms = setorder.analyze(c, vals)
    assert np.float64(ms.varsigma).tobytes() == np.float64(cone.varsigma(c, vals)).tobytes()

