import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setopt import cone, oracle, setorder
from setopt.errors import EmptyInput


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


def test_grouping(orthant2):
    vals = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
    ms = setorder.analyze(orthant2, vals)
    assert ms.minimal_indices == (1, 2, 3)
    assert ms.classes == ((1, 3), (2,))   # ordered by smallest member
    assert ms.w == 2
    # tolerance clustering
    # two incomparable near-ties (within 1e-9), one distinct minimal value
    vals2 = np.array([[0.0, 1.0], [1e-9, 1.0 - 1e-9], [1.0, 0.0]])
    ms2 = setorder.analyze(orthant2, vals2, tol_group=1e-8)
    assert ms2.classes == ((1, 2), (3,))


def test_grouping_idempotent(any_cone):
    rng = np.random.default_rng(3)
    vals = rng.uniform(-2, 2, (40, any_cone.m))
    ms = setorder.analyze(any_cone, vals)
    reps = vals[[cls[0] - 1 for cls in ms.classes]]
    ms2 = setorder.analyze(any_cone, reps)
    assert ms2.w == ms.w


def test_partition_iter():
    ms = setorder.MinimalStructure(minimal_indices=(1, 2, 3), classes=((1, 2), (3,)), w=2)
    elems = list(setorder.partition_iter(ms))
    assert [e.a for e in elems] == [(1, 3), (2, 3)]
    assert ms.partition_count() == 2

    ms2 = setorder.MinimalStructure((1, 2, 3, 4, 5), ((1, 2), (3, 4, 5)), 2)
    assert len(list(setorder.partition_iter(ms2))) == 6 == ms2.partition_count()


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
       st.sampled_from([0.5, 1.0, 4.0, 12.0]),
       st.sampled_from(["orthant", "slanted"]))
def test_analyze_matches_separate_filters(points, tol, which):
    """analyze's minimal indices are the public filter's, at tol 0, on exact ties.

    Integer images on a small grid make exact ties common; integer cone rows
    keep A(v_i - v_j) exact, so the brute-force oracle agrees bit for bit.
    """
    c = (cone.nonnegative_orthant(2) if which == "orthant"
         else cone.validate([[6.0, -2.0], [-7.0, 10.0]], [1.0, 1.0]))
    vals = np.asarray(points, dtype=float)
    assert setorder.minimal_elements(c, vals, tol) == oracle.brute_min(c, vals, tol)
    assert setorder.weakly_minimal_elements(c, vals) == oracle.brute_wmin(c, vals)
    ms = setorder.analyze(c, vals)
    assert ms.minimal_indices == setorder.minimal_elements(c, vals) == oracle.brute_min(c, vals)
    assert sorted(i for cls in ms.classes for i in cls) == list(ms.minimal_indices)
    for cls in ms.classes:
        assert all(np.array_equal(vals[i - 1], vals[cls[0] - 1]) for i in cls)   # exact ties
