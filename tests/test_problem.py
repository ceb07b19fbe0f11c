import os
import re
import sys
import tempfile
import threading
import traceback
import warnings

import numpy as np
import pytest
from builtins_ref import builtin_ref, uncertainty_grid
from expr_walk import walk_dual, walk_dual_lanes, walk_eval, walk_generate
from hypothesis import HealthCheck, assume, given, reject, settings
from hypothesis import strategies as st
from test_expr import _EXPRESSIONS

from setopt import bench, cone, expr, oracle, problem, solver
from setopt.errors import (DomainError, FormatError, RankDeficient, SetoptError,
                           UnknownProblem)

DIMS = {  # name -> (n, m, p)
    "ex1": (1, 2, 50), "ex2": (1, 3, 30), "ex3": (2, 2, 25),
    "ex4": (2, 3, 10), "ex5": (1, 2, 4), "ex6": (2, 2, 100),
    "ex7": (2, 3, 100),
}


@pytest.mark.parametrize("name", problem.BUILTIN_NAMES)
def test_builtin_dimensions(name):
    ps = problem.builtin(name)
    assert (ps.n, ps.m, ps.p) == DIMS[name]
    assert ps.cone.m == ps.m


def test_builtin_cones():
    assert np.array_equal(problem.builtin("ex1").cone.A, np.eye(2))
    assert np.array_equal(problem.builtin("ex5").cone.A, [[6.0, -2.0], [-7.0, 10.0]])
    assert np.array_equal(problem.builtin("ex6").cone.A, [[2.0, -6.0], [-6.0, 7.0]])


def test_unknown_problem():
    with pytest.raises(UnknownProblem):
        problem.builtin("ex99")


def test_eval_F_trace_anchor_ex1():
    F = problem.eval_F(problem.builtin("ex1"), [2.3])
    assert F[9] == pytest.approx([23.8454, -0.0901], abs=5e-4)
    assert F[24] == pytest.approx([23.0660, -1.5080], abs=5e-4)
    assert F[49] == pytest.approx([22.8153, 0.4762], abs=5e-4)


def test_eval_F_trace_anchor_ex5():
    F = problem.eval_F(problem.builtin("ex5"), [4.0])
    expect = [[85.5982, -0.7345], [86.0982, -1.0209],
              [86.5982, -1.3073], [87.0982, -1.5937]]
    assert F == pytest.approx(np.asarray(expect), abs=5e-4)


def test_ex7_anchor_geometry():
    ps = problem.builtin("ex7")
    shifts = uncertainty_grid()
    assert shifts.shape == (100, 2)
    # 10 equispaced values -1 + 2k/9 on each axis
    assert np.unique(np.round(shifts[:, 0], 12)).size == 10
    l1 = np.array([0.0, 0.0])  # first anchor; verify via the zero-residual identity
    for i in (1, 37, 100):
        x = l1 + shifts[i - 1]
        F = problem.eval_F(ps, x)
        assert F[i - 1, 0] == pytest.approx(0.0, abs=1e-12)
        J = problem.eval_jacobians(ps, x)[i - 1]
        assert J[0] == pytest.approx([0.0, 0.0], abs=1e-12)


@pytest.mark.parametrize("name", problem.BUILTIN_NAMES)
def test_jacobians_match_finite_differences(name):
    ps = problem.builtin(name)
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.uniform(ps.sample_box[:, 0], ps.sample_box[:, 1])
        J = problem.eval_jacobians(ps, x)
        for i in (1, ps.p // 2 + 1, ps.p):
            fd = oracle.fd_jacobian(ps, x, i)
            assert np.all(np.abs(J[i - 1] - fd) <= 1e-5 * (1.0 + np.abs(fd)))


@pytest.mark.parametrize("name", problem.BUILTIN_NAMES)
def test_builtin_matches_problem_file(name):
    """Each shipped file against the hand-coded reference in builtins_ref."""
    b = builtin_ref(name)
    f = problem.load(problem.builtin_file(name))
    assert (f.name, f.n, f.m, f.p) == (b.name, b.n, b.m, b.p)
    assert np.array_equal(f.sample_box, b.sample_box)
    assert np.allclose(f.cone.A, b.cone.A) and np.allclose(f.cone.e, b.cone.e)
    rng = np.random.default_rng(9)
    for _ in range(25):
        x = rng.uniform(b.sample_box[:, 0], b.sample_box[:, 1])
        assert np.all(np.abs(problem.eval_F(b, x) - problem.eval_F(f, x)) <= 1e-10)
        assert np.all(np.abs(problem.eval_jacobians(b, x)
                             - problem.eval_jacobians(f, x)) <= 1e-10)


@pytest.mark.parametrize("name", problem.BUILTIN_NAMES)
def test_builtin_is_its_problem_file(name):
    """A builtin evaluates the code generated from its shipped file, and
    nothing else: the same functions, the same bits."""
    path = problem.builtin_file(name)
    b = problem.builtin(name)
    assert b.values_fn.__code__.co_filename == f"<{path}: values>"
    assert b.jacobians_fn.__code__.co_filename == f"<{path}: jacobians>"
    f = problem.load(path)
    for k in range(20):
        x = bench.sample_start(b, 7, k)
        assert problem.eval_F(b, x).tobytes() == problem.eval_F(f, x).tobytes()
        assert (problem.eval_jacobians(b, x).tobytes()
                == problem.eval_jacobians(f, x).tobytes())


def test_scalarize_identity_and_slanted():
    ps = problem.builtin("ex1")
    sc = problem.ScalarizedComponents(ps)
    x = np.array([1.7])
    assert np.allclose(sc.values(x), problem.eval_F(ps, x))  # A=I, e=ones

    ps5 = problem.builtin("ex5")
    sc5 = problem.ScalarizedComponents(ps5)
    x = np.array([3.1])
    F = problem.eval_F(ps5, x)
    assert sc5.values(x)[:, 0] == pytest.approx((6 * F[:, 0] - 2 * F[:, 1]) / 4.0)
    # max_q h^{i,q} is exactly the scalarizing functional
    assert np.allclose(np.max(sc5.values(x), axis=1),
                       cone.gerstewitz_batch(ps5.cone, F))


def _write(tmp_path, text, name="bad.prob"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


GOOD = """[meta]
name=tiny
n=1
m=2
p=3
[box]
-1 1
[functions]
x1^2 + i
-x1 + 2*i
"""


def test_load_good_file(tmp_path):
    ps = problem.load(_write(tmp_path, GOOD, "tiny.prob"))
    assert (ps.name, ps.n, ps.m, ps.p) == ("tiny", 1, 2, 3)
    assert np.array_equal(ps.cone.A, np.eye(2))  # cone section omitted
    F = problem.eval_F(ps, [2.0])
    assert np.array_equal(F, [[5.0, 0.0], [6.0, 2.0], [7.0, 4.0]])


def test_load_zero_p(tmp_path):
    with pytest.raises(FormatError):
        problem.load(_write(tmp_path, GOOD.replace("p=3", "p=0")))


def test_load_rank_deficient_cone_names_line(tmp_path):
    text = GOOD.replace("[box]", "[cone] rows=2\n1 0\n-1 0\ne=1 1\n[box]")
    with pytest.raises(RankDeficient) as ei:
        problem.load(_write(tmp_path, text))
    assert "line" in str(ei.value)


# a second section of each name, which would load, or fail for another reason, if allowed
REPEATED = {"meta": "[meta]\nname=again\n", "cone": "[cone] rows=2\n2 -1\n-1 2\n",
            "box": "[box]\n", "functions": "[functions]\n"}


@pytest.mark.parametrize("section", REPEATED)
def test_load_repeated_section_is_a_format_error(tmp_path, section):
    text = GOOD.replace("[box]", "[cone] rows=2\n1 0\n0 1\ne=1 1\n[box]")
    line = len(text.splitlines()) + 1
    with pytest.raises(FormatError, match=rf"duplicate section \[{section}\]") as ei:
        problem.load(_write(tmp_path, text + REPEATED[section]))
    assert (ei.value.section, ei.value.line) == (section, line)


def test_load_missing_file():
    with pytest.raises(OSError):
        problem.load("/nonexistent/file.prob")


def test_get_dispatch(tmp_path):
    assert problem.get("ex3").name == "ex3"
    path = _write(tmp_path, GOOD, "tiny.prob")
    assert problem.get(path).name == "tiny"


@pytest.mark.parametrize("name", problem.BUILTIN_NAMES)
def test_problem_file_matches_reference_walk(name, monkeypatch):
    """F and J of each shipped twin are bit-identical to one walk per index."""
    ps = problem.load(problem.builtin_file(name))
    rng = np.random.default_rng(11)
    points = rng.uniform(ps.sample_box[:, 0], ps.sample_box[:, 1], size=(40, ps.n))
    generated = [(problem.eval_F(ps, x), problem.eval_jacobians(ps, x)) for x in points]
    monkeypatch.setattr(expr, "generate", walk_generate)
    walked = problem.load(problem.builtin_file(name))
    for x, (F, J) in zip(points, generated):
        assert np.array_equal(F, problem.eval_F(walked, x))
        assert np.array_equal(J, problem.eval_jacobians(walked, x))


def test_load_makes_one_generated_call_per_evaluation(monkeypatch):
    calls = {"values": 0, "jacobians": 0, "eval": 0, "eval_dual": 0}

    def counted(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    generate = expr.generate
    monkeypatch.setattr(expr, "generate", lambda *args: tuple(
        counted(fn.__name__, fn) for fn in generate(*args)))
    for name in ("eval", "eval_dual"):
        monkeypatch.setattr(expr, name, counted(name, getattr(expr, name)))
    ps = problem.load(problem.builtin_file("ex2"))    # m = 3, p = 30
    problem.eval_F(ps, [0.3])
    assert calls == {"values": 1, "jacobians": 0, "eval": 0, "eval_dual": 0}
    problem.eval_jacobians(ps, [0.3])
    assert calls == {"values": 1, "jacobians": 1, "eval": 0, "eval_dual": 0}


def _family_file(tmp_path, sources, p):
    text = (f"[meta] name=family n=3 m={len(sources)} p={p}\n[box]\n-1 1\n-1 1\n-1 1\n"
            "[functions]\n" + "\n".join(sources) + "\n")
    return _write(tmp_path, text, "family.prob")


def _walk_family(walk, asts, x, p):
    """One walk per component and index: (rows, None), or (rows so far, the
    error a walk meets first: (index, line, column, component))."""
    rows, first = [], None
    for comp, ast in enumerate(asts):
        row = []
        for i in range(1, p + 1):
            try:
                row.append(walk(ast, x, i))
            except DomainError as exc:
                if first is None or i < first[0]:
                    first = (i, exc.line, exc.column, comp + 1)
                break
            except (OverflowError, ValueError, ZeroDivisionError):
                reject()   # untyped float failures of the walk are out of scope
        rows.append(row)
    return rows, first


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(sources=st.lists(_EXPRESSIONS, min_size=2, max_size=3), p=st.integers(1, 5),
       x=st.lists(st.sampled_from([0.0, 1.0, -1.0, 0.5]) | st.floats(-2.0, 2.0),
                  min_size=3, max_size=3))
def test_generated_family_matches_walk(tmp_path, sources, p, x):
    ps = problem.load(_family_file(tmp_path, sources, p))
    asts = [expr.parse(src, 3) for src in sources]
    for evaluate, walk in ((problem.eval_F, walk_eval), (problem.eval_jacobians, walk_dual)):
        rows, error = _walk_family(walk, asts, x, p)
        if error is not None:
            with pytest.raises(DomainError) as ei:
                evaluate(ps, x)
            component = int(re.match(r"f\^\d+ component (\d+): ", str(ei.value)).group(1))
            assert (ei.value.index, ei.value.line, ei.value.column, component) == error
            continue
        if walk is walk_eval:
            want = np.array(rows).T
        else:
            want = np.array([[d.derivatives for d in row] for row in rows]).transpose(1, 0, 2)
        assume(np.all(np.isfinite(want)))
        got = evaluate(ps, x)
        assert got.shape == want.shape and np.allclose(got, want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("src, column", [
    # at x1 = 0 the sqrt fails first, on i = 6 (i = 5 as well for its
    # derivative), the division on i = 3, and the log, last, on i = 1 and 2
    ("sqrt(5 - i + x1) + 1/(i - 3 + x1*i) + log(i - 1 + x1*i)", 39),
    # the x-free 1/(i - 5) fails on i = 5 before the log fails on i = 1
    ("1/(i - 5) + log(x1 + i - 2)", 13),
])
def test_lowest_index_fails_at_a_later_check(tmp_path, src, column):
    ps = problem.load(_family_file(tmp_path, ["x1 + i", src], 6))
    ast = expr.parse(src, 3)
    x = np.zeros(3)
    calls = [(lambda: problem.eval_F(ps, x), "f^1 component 2: "),
             (lambda: problem.eval_jacobians(ps, x), "f^1 component 2: "),
             (lambda: expr.eval(ast, x, np.arange(1, 7)), "f^1 component 1: "),
             (lambda: expr.eval_dual(ast, x, np.arange(1, 7)), "f^1 component 1: ")]
    for call, prefix in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # no numpy RuntimeWarning either
            with pytest.raises(DomainError) as ei:
                call()
        assert (ei.value.index, ei.value.line, ei.value.column) == (1, 1, column)
        assert str(ei.value) == f"{prefix}1:{column}: log of a non-positive value"
        # no internal exception shows as its context
        assert ei.value.__context__ is None or ei.value.__suppress_context__


@pytest.mark.filterwarnings("error")
def test_quotient_derivative_underflow_is_an_overflow(tmp_path):
    # 1/(x1*i) is finite at x1 = 1e-170; its derivative's (x1*i)^2 underflows to 0
    ps = problem.load(_family_file(tmp_path, ["1/(x1*i)"], 2))
    x = [1e-170, 0.0, 0.0]
    assert np.all(np.isfinite(problem.eval_F(ps, x)))
    for call in (lambda: expr.eval_dual(expr.parse("1/(x1*i)", 3), x, np.arange(1, 3)),
                 lambda: problem.eval_jacobians(ps, x)):
        with pytest.raises(DomainError, match="overflow") as ei:
            call()
        assert (ei.value.index, ei.value.line, ei.value.column) == (1, 1, 2)
    # a quotient free of x has no derivative to overflow
    d = expr.eval_dual(expr.parse("x1 + 1/(1e-170*i)", 3), x, np.arange(1, 3))
    assert np.array_equal(d.derivatives, [[1.0, 0.0, 0.0]] * 2)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("offset", ["sqrt(i-1)", "(i-1)^0.5", "pow(i-1, 0.5)"])
def test_subtree_free_of_x_has_no_derivative_check(tmp_path, offset):
    """sqrt and x^0.5 at 0 have no derivative, but a subtree free of x needs
    none: at i = 1 the offset is 0 and the family stays smooth."""
    src = f"x1*x1 + {offset}"
    ps = problem.load(_write(tmp_path, "[meta] name=passive n=1 m=1 p=3\n[box]\n-5 5\n"
                             f"[functions]\n{src}\n", "passive.prob"))
    ast = expr.parse(src, 1)
    for x in ([2.5], [0.0], [-1.5]):
        J = problem.eval_jacobians(ps, x)
        assert np.array_equal(J[:, 0, :], [[2.0 * x[0]]] * 3)
        assert np.array_equal(J[:, 0, :], walk_dual_lanes(ast, x, range(1, 4)))
    for method in ("quasi_newton", "steepest_descent"):
        trace = solver.run(ps, [2.5], solver.SolverConfig(method=method))
        assert trace.status == solver.CONVERGED, (method, trace.message)


def _assert_syntactic_check(tmp_path, src, column, message):
    """At p = 3 and x1 = 2.5, the Jacobian of `src` fails at f^1 with
    `message` at 1:column, generated or walked."""
    ps = problem.load(_write(tmp_path, "[meta] name=syntactic n=1 m=1 p=3\n[box]\n-5 5\n"
                             f"[functions]\n{src}\n", "syntactic.prob"))
    with pytest.raises(DomainError) as ei:
        problem.eval_jacobians(ps, [2.5])
    assert ei.value.index == 1
    assert str(ei.value) == f"f^1 component 1: 1:{column}: {message}"
    ast = expr.parse(src, 1)
    for call in (lambda: expr.eval_dual(ast, [2.5], np.arange(1, 4)),
                 lambda: walk_dual(ast, [2.5], 1)):
        with pytest.raises(DomainError, match=message) as ei:
            call()
        assert (ei.value.line, ei.value.column) == (1, column)


def test_derivative_check_follows_the_syntax(tmp_path):
    """x1 - x1 reads x, so its sqrt is checked, as a walk checks it."""
    _assert_syntactic_check(tmp_path, "x1*x1 + sqrt(x1 - x1 + i - 1)", 9,
                            "sqrt derivative at zero")


def test_pow_takes_the_log_rule_where_the_exponent_reads_x(tmp_path):
    """x1 - x1 + 2 reads x, so a^b takes the log rule, which needs a > 0: at
    i = 1 the base is 0, and the Jacobian fails there."""
    _assert_syntactic_check(tmp_path, "x1*x1 + (i - 1)^(x1 - x1 + 2)", 16,
                            "non-constant exponent needs a positive base")


@pytest.mark.filterwarnings("error")
def test_lane_product_overflow_is_a_domain_error(tmp_path):
    """A product on lanes overflows with a numpy warning, which is typed."""
    ps = problem.load(_family_file(tmp_path, ["x1*i*x1"], 2))
    with pytest.raises(DomainError):
        problem.eval_F(ps, [1e200, 0.0, 0.0])


def _nested(depth):
    """(x1*i/depth + (... + (x1*i/1 + x1*i))): `depth` nested parentheses."""
    source = "x1*i"
    for k in range(1, depth + 1):
        source = f"(x1*i/{k} + {source})"
    return source


class _Loader(threading.Thread):
    """problem.load on a fresh stack: the parser's recursion limit, not the
    depth of the test runner's stack, bounds what it accepts."""

    def __init__(self, path):
        super().__init__()
        self.path, self.outcome = path, None

    def run(self):
        try:
            self.outcome = problem.load(self.path)
        except Exception as exc:     # re-raised in the test's thread
            self.outcome = exc


def _load_on_a_fresh_stack(path):
    loader = _Loader(path)
    loader.start()
    loader.join(timeout=60)
    assert not loader.is_alive()
    if isinstance(loader.outcome, Exception):
        raise loader.outcome
    return loader.outcome


@pytest.mark.parametrize("source", [" + ".join(["x1*i"] * 300), _nested(197)],
                         ids=["sum300", "nested197"])
def test_deep_and_long_expressions_match_walk(tmp_path, source, monkeypatch):
    """Generated code is one assignment per node, so the parser's limits, not
    CPython's limit of 200 nested parentheses, bound a problem file."""
    path = _write(tmp_path, f"[meta] name=deep n=1 m=1 p=4\n[box]\n-1 1\n[functions]\n{source}\n")
    ps = _load_on_a_fresh_stack(path)
    monkeypatch.setattr(expr, "generate", walk_generate)
    walked = _load_on_a_fresh_stack(path)
    for x in ([0.3], [-1.7]):
        assert np.array_equal(problem.eval_F(ps, x), problem.eval_F(walked, x))
        assert np.array_equal(problem.eval_jacobians(ps, x), problem.eval_jacobians(walked, x))


def test_generated_code_shows_in_tracebacks(tmp_path):
    path = _write(tmp_path, GOOD, "tiny.prob")
    ps = problem.load(path)
    with pytest.raises(AttributeError) as ei:
        ps.values_fn([0.5])              # the generated code expects an array
    frame = traceback.extract_tb(ei.value.__traceback__)[-1]
    assert path in frame.filename and frame.name == "values"
    assert frame.line == "xs = x.tolist()"


@pytest.mark.parametrize("p", ["1000000000000", "100000000000000000000"])
def test_load_p_too_large_for_an_index_vector_is_a_format_error(tmp_path, p):
    with pytest.raises(FormatError, match=f"p={p}"):
        problem.load(_write(tmp_path, GOOD.replace("p=3", f"p={p}")))


def test_scalarized_gradients_match_einsum_bit_for_bit():
    """Bit for bit on the orthant, where A = I and Ae = 1 make every product
    exact.  Elsewhere (A/Ae) @ J and einsum(A, J)/Ae each carry a relative
    error of at most gamma_{m+1} = (m+1)u/(1-(m+1)u), u = 2^-53, on
    (|A|/Ae) @ |J|; gamma_{m+2} also covers the rounding of that reference."""
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
    from workloads import large_p_spec

    for ps in [problem.builtin(name) for name in problem.BUILTIN_NAMES] + [large_p_spec(200)]:
        c = ps.cone
        orthant = np.array_equal(c.A, np.eye(c.m))
        k = (c.m + 2) * 2.0 ** -53
        gamma = k / (1.0 - k)
        for s in range(300):
            J = problem.eval_jacobians(ps, bench.sample_start(ps, 7, s))
            want = np.einsum("qm,imn->iqn", c.A, J) / c.Ae[None, :, None]
            got = problem.scalarized_gradients(c, J)
            assert got.shape == want.shape
            if orthant:
                assert np.array_equal(got.view(np.int64), want.view(np.int64))
            else:
                bound = 2.0 * gamma * ((np.abs(c.A) / c.Ae[:, None]) @ np.abs(J))
                assert (np.abs(got - want) <= bound).all()


@pytest.mark.parametrize("evaluate", [problem.eval_F, problem.eval_jacobians])
def test_load_domain_error_names_first_index(tmp_path, evaluate):
    text = GOOD.replace("p=3", "p=5").replace("-x1 + 2*i", "x1 + 1/(i-3)")
    ps = problem.load(_write(tmp_path, text))
    with pytest.raises(DomainError) as ei:
        evaluate(ps, [0.5])
    assert (ei.value.index, ei.value.line, ei.value.column) == (3, 1, 7)
    assert str(ei.value).startswith("f^3 component 2: 1:7: division by zero")


def test_load_domain_error_prefers_lowest_index_over_component(tmp_path):
    # component 1 fails from i = 4 on, component 2 only at i = 2
    text = GOOD.replace("p=3", "p=5").replace("x1^2 + i", "log(4 - i)")
    ps = problem.load(_write(tmp_path, text.replace("-x1 + 2*i", "1/(i - 2)")))
    with pytest.raises(DomainError, match=r"^f\^2 component 2: "):
        problem.eval_F(ps, [0.0])


def test_load_x_free_domain_error_surfaces_at_evaluation(tmp_path):
    ps = problem.load(_write(tmp_path, GOOD.replace("-x1 + 2*i", "x1 + log(i - 1)")))
    with pytest.raises(DomainError, match=r"^f\^1 component 2: 1:6: log"):
        problem.eval_F(ps, [0.0])


def test_arithmetic_error_of_a_problem_callable_is_a_domain_error():
    ps = builtin_ref("ex1")                  # math.exp overflows far from the origin
    with pytest.raises(DomainError, match="OverflowError"):
        problem.eval_F(ps, [800.0])
    with pytest.raises(DomainError, match="OverflowError"):
        problem.eval_jacobians(ps, [800.0])
    inverse = problem.ProblemSpec("inverse", 1, 2, 1, ps.cone, ps.sample_box,
                                  lambda x: np.array([[1.0 / float(x[0]), 0.0]]),
                                  lambda x: np.array([[[-1.0 / x[0] ** 2], [0.0]]]))
    with pytest.raises(DomainError, match="ZeroDivisionError"):
        problem.eval_F(inverse, [0.0])


def _poisoned(name, bad, where):
    """A builtin whose values (where="F") or Jacobians ("J") hold `bad` at
    f^2's first entry."""
    ps = problem.builtin(name)

    def poison(fn):
        def wrapped(x):
            out = fn(x).copy()
            out[1].flat[0] = bad
            return out
        return wrapped

    values = poison(ps.values_fn) if where == "F" else ps.values_fn
    jacobians = poison(ps.jacobians_fn) if where == "J" else ps.jacobians_fn
    return problem.ProblemSpec(ps.name, ps.n, ps.m, ps.p, ps.cone, ps.sample_box,
                               values, jacobians)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("where", ["F", "J"])
def test_non_finite_output_of_a_problem_callable_is_a_domain_error(bad, where):
    ps = _poisoned("ex3", bad, where)
    evaluate = problem.eval_F if where == "F" else problem.eval_jacobians
    with pytest.raises(DomainError, match=r"f\^2 is not finite") as ei:
        evaluate(ps, [0.5, -1.0])
    assert ei.value.index == 2


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("where", ["F", "J"])
def test_start_with_a_non_finite_image_ends_numerical_error(where):
    """An infinite image used to end LineSearchFailure after every backtrack."""
    from setopt import solver

    trace = solver.run(_poisoned("ex3", np.inf, where), [0.5, -1.0], solver.SolverConfig())
    assert trace.status == solver.NUMERICAL_ERROR
    assert "is not finite" in trace.message and trace.iterations == 0


def test_load_non_utf8_is_a_format_error(tmp_path):
    path = tmp_path / "bin.prob"
    path.write_bytes(b"\xff\xfe" + GOOD.encode())
    with pytest.raises(FormatError, match="UTF-8"):
        problem.load(str(path))


# mostly well-formed entries, so that the fuzz reaches the later checks
_FUZZ_SIZES = st.sampled_from([1, 2, 3, 1, 2, 3, 0, -1])
_FUZZ_NUMBERS = st.sampled_from(["-1", "0", "1", "2", "2.5", "-1", "1", "3",
                                 "nan", "inf", "1e400", "x", ""])
_FUZZ_EXPRESSIONS = st.sampled_from(["x1^2 + i", "log(i - 1)", "1/(i - 3)", "x2 + x1", "x1 +",
                                     "floor(x1)", "mod(i, 0)", "sqrt(x1)", "x9", "((x1)",
                                     "exp(x1*i)", "abs(x1 - i)"])
_FUZZ_LINES = st.one_of(
    st.builds("{}={}".format, st.sampled_from(["n", "m", "p", "name", "q"]), _FUZZ_NUMBERS),
    st.sampled_from(["[meta]", "[box]", "[functions]", "[cone]", "[cone] rows=2", "[other]",
                     "[box] x", "e= 1 1", "e=", "# comment", ""]),
    st.lists(_FUZZ_NUMBERS, max_size=3).map(" ".join),
    _FUZZ_EXPRESSIONS,
    st.text(alphabet="x1i2+-*/^(), .#=[]e", max_size=16),
    st.text(max_size=12),
)


@st.composite
def _fuzz_text(draw):
    """A problem file in the documented layout with fuzzed entries."""
    n, m, p = (draw(_FUZZ_SIZES) for _ in range(3))
    lines = [f"[meta] name=fuzz n={n} m={m} p={p}"]
    row = st.lists(_FUZZ_NUMBERS, min_size=max(m, 0), max_size=max(m, 0)).map(" ".join)
    if draw(st.booleans()):
        rows = draw(st.integers(0, 3))
        lines.append(f"[cone] rows={rows}")
        lines += [draw(row) for _ in range(rows + draw(st.sampled_from([0, 0, 0, -1, 1])))]
        lines.append("e= " + draw(row))
    lines.append("[box]")
    lines += [" ".join(draw(st.lists(_FUZZ_NUMBERS, min_size=2, max_size=2)))
              for _ in range(max(n, 0))]
    lines.append("[functions]")
    lines += [draw(_FUZZ_EXPRESSIONS) for _ in range(max(m, 0))]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_FUZZ_LINES))
    return "\n".join(lines)


def _splice(text, junk, at):
    data = text.encode()
    return data[:at] + junk + data[at:]


_FUZZ_FILES = st.one_of(
    st.builds(_splice, _fuzz_text() | st.lists(_FUZZ_LINES, max_size=12).map("\n".join),
              st.just(b"") | st.binary(max_size=3), st.integers(0, 200)),
    st.binary(max_size=64),
)


@settings(max_examples=500, deadline=None)
@given(data=_FUZZ_FILES)
def test_load_fuzz_raises_only_setopt_errors(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.prob")
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            problem.load(path)
        except SetoptError:
            pass
