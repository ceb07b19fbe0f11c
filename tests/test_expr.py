import math
import warnings

import numpy as np
import pytest
from expr_walk import walk_dual, walk_eval
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from setopt import expr
from setopt.errors import (DomainError, LexError, ParseError,
                           UnknownIdentifier, VariableOutOfRange)


def test_parse_family_expression():
    ast = expr.parse("x1*exp(x1) + sin(2*pi*(i-1)/50)", n=1)
    v = expr.eval(ast, [2.3], 10)
    assert v == pytest.approx(23.8454, abs=5e-4)


def test_parse_error_trailing_operator():
    with pytest.raises(ParseError):
        expr.parse("x1 +", n=1)


def test_variable_out_of_range():
    with pytest.raises(VariableOutOfRange):
        expr.parse("x3", n=2)


def test_unknown_identifier_and_lex_error():
    with pytest.raises(UnknownIdentifier):
        expr.parse("foo + 1", n=1)
    with pytest.raises(LexError) as ei:
        expr.parse("x1 + $", n=1)
    assert ei.value.column == 6


def test_constants():
    assert expr.eval(expr.parse("3.5", 1), [0.0], 1) == 3.5
    assert expr.eval(expr.parse("pi", 1), [0.0], 1) == math.pi


def test_precedence():
    # unary minus binds tighter than ^, ^ right-associative
    assert expr.eval(expr.parse("-2^2", 1), [0.0], 1) == 4.0
    assert expr.eval(expr.parse("2^3^2", 1), [0.0], 1) == 512.0
    assert expr.eval(expr.parse("2+3*4", 1), [0.0], 1) == 14.0
    assert expr.eval(expr.parse("1-2-3", 1), [0.0], 1) == -4.0


def test_eval_dual_examples():
    d = expr.eval_dual(expr.parse("x1^2", 1), [3.0], 1)
    assert d.value == 9.0 and d.derivatives[0] == 6.0
    d = expr.eval_dual(expr.parse("x1*exp(x1) + sin(2*pi*(i-1)/50)", 1), [2.3], 1)
    assert d.derivatives[0] == pytest.approx((1 + 2.3) * math.exp(2.3), abs=1e-3)
    d = expr.eval_dual(expr.parse("x1*x2", 2), [2.0, 5.0], 1)
    assert np.array_equal(d.derivatives, [5.0, 2.0])


def test_domain_errors():
    with pytest.raises(DomainError):
        expr.eval(expr.parse("log(x1)", 1), [-1.0], 1)
    with pytest.raises(DomainError):
        expr.eval(expr.parse("sqrt(x1)", 1), [-1.0], 1)
    with pytest.raises(DomainError):
        expr.eval(expr.parse("1/x1", 1), [0.0], 1)
    with pytest.raises(DomainError):
        expr.eval(expr.parse("(-2)^0.5", 1), [0.0], 1)


def test_abs_kink_flag():
    d = expr.eval_dual(expr.parse("abs(x1)", 1), [0.0], 1)
    assert d.value == 0.0 and d.derivatives[0] == 0.0 and d.nondifferentiable
    d = expr.eval_dual(expr.parse("abs(x1)", 1), [-2.0], 1)
    assert d.value == 2.0 and d.derivatives[0] == -1.0 and not d.nondifferentiable


SOURCES = [
    "x1*exp(x1) + sin(2*pi*(i-1)/50)",
    "-x1^2 + pow(x2, 3) / (1 + x1*x2)",
    "cos(2*x1) + 1/(1+exp(2*x1))",
    "sqrt(abs(x2) + 1) - tan(x1/4)",
    "2^3^x1 - -x2",
]


@pytest.mark.parametrize("src", SOURCES)
def test_print_parse_roundtrip(src):
    ast = expr.parse(src, 2)
    printed = expr.to_source(ast)
    assert expr.parse(printed, 2).root == ast.root


def test_deterministic_eval():
    ast = expr.parse(SOURCES[0], 2)
    vals = {expr.eval(ast, [1.234, -0.5], 7) for _ in range(5)}
    assert len(vals) == 1


@settings(max_examples=80, deadline=None)
@given(x=st.floats(-3, 3), i=st.integers(1, 50))
def test_dual_matches_finite_difference(x, i):
    ast = expr.parse("x1*exp(x1) + sin(2*pi*(i-1)/50) + cos(2*x1)*x1", 1)
    h = 1e-6
    fd = (expr.eval(ast, [x + h], i) - expr.eval(ast, [x - h], i)) / (2 * h)
    d = expr.eval_dual(ast, [x], i)
    assert d.derivatives[0] == pytest.approx(fd, abs=1e-5 * (1 + abs(fd)))


def test_error_positions():
    with pytest.raises(ParseError) as ei:
        expr.parse("x1 + (x1 *", 1)
    assert ei.value.line == 1
    with pytest.raises(DomainError) as ei:
        expr.eval(expr.parse("1 + log(0 - x1)", 1), [1.0], 1)
    assert ei.value.column == 5


# --- compiled evaluator against the reference walk ------------------------

def _binary(children):
    return st.tuples(children, st.sampled_from("+-*/^"), children).map(
        lambda t: f"({t[0]} {t[1]} {t[2]})")


_X_FREE = st.recursive(st.sampled_from(["i", "1", "2", "3", "0.5", "10"]), _binary, max_leaves=4)

_EXPRESSIONS = st.recursive(
    st.sampled_from(["x1", "x2", "x3", "i", "pi", "0", "1", "2", "3", "0.5", "2.5"]),
    lambda children: st.one_of(
        _binary(children),
        children.map(lambda s: f"(-{s})"),
        st.tuples(st.sampled_from(["sin", "cos", "tan", "exp", "log", "sqrt", "abs"]),
                  children).map(lambda t: f"{t[0]}({t[1]})"),
        st.tuples(children, children).map(lambda t: f"pow({t[0]}, {t[1]})"),
        _X_FREE.map(lambda s: f"floor({s} / 3)"),
        st.tuples(_X_FREE, _X_FREE).map(lambda t: f"mod({t[0]}, {t[1]})"),
    ),
    max_leaves=10,
)


def _walk_all(walk, ast, x, index):
    """Walk every index in order: (results, None) or (results so far, error)."""
    out = []
    for i in index:
        try:
            out.append(walk(ast, x, i))
        except DomainError as exc:
            return out, (i, exc.line, exc.column)
        except (OverflowError, ValueError, ZeroDivisionError):
            reject()   # untyped float failures of the walk are out of scope
    return out, None


def _close(got, want):
    return np.allclose(got, want, rtol=1e-13, atol=0.0)


@settings(max_examples=300, deadline=None)
@given(src=_EXPRESSIONS, p=st.integers(1, 6),
       x=st.lists(st.sampled_from([0.0, 1.0, -1.0, 0.5]) | st.floats(-2.0, 2.0),
                  min_size=3, max_size=3))
def test_compiled_matches_walk(src, p, x):
    ast = expr.parse(src, 3)
    index = list(range(1, p + 1))
    for compiled, walk in ((expr.eval, walk_eval), (expr.eval_dual, walk_dual)):
        want, error = _walk_all(walk, ast, x, index)
        if error is not None:
            for i in (np.arange(1, p + 1), error[0]):
                with pytest.raises(DomainError) as ei:
                    compiled(ast, x, i)
                assert (ei.value.index, ei.value.line, ei.value.column) == error
            continue
        if compiled is expr.eval:
            values = np.array(want)
            assume(np.all(np.isfinite(values)))
            got = compiled(ast, x, np.arange(1, p + 1))
            assert got.shape == (p,) and _close(got, values)
            scalar = compiled(ast, x, p)
            assert type(scalar) is float and _close(scalar, values[-1])
        else:
            values = np.array([d.value for d in want])
            grads = np.array([d.derivatives for d in want])
            assume(np.all(np.isfinite(values)) and np.all(np.isfinite(grads)))
            got = compiled(ast, x, np.arange(1, p + 1))
            assert got.derivatives.shape == (p, 3)
            assert _close(got.value, values) and _close(got.derivatives, grads)
            assert list(got.nondifferentiable) == [d.nondifferentiable for d in want]
            scalar = compiled(ast, x, p)
            assert _close(scalar.derivatives, grads[-1])
            assert scalar.nondifferentiable == want[-1].nondifferentiable


def test_index_array_returns_one_value_per_index():
    ast = expr.parse("x1*i + sin(2*pi*(i-1)/50)", 1)
    index = np.arange(1, 6)
    values = expr.eval(ast, [0.7], index)
    assert values.shape == (5,)
    assert list(values) == [walk_eval(ast, [0.7], i) for i in index]
    dual = expr.eval_dual(ast, [0.7], index)
    assert dual.derivatives.shape == (5, 1) and list(dual.derivatives[:, 0]) == [1, 2, 3, 4, 5]
    assert type(expr.eval(ast, [0.7], 3)) is float


def test_x_free_domain_error_surfaces_at_evaluation():
    ast = expr.parse("x1 + log(i - 1)", 1)        # parsing and compiling do not fail
    assert expr.eval(ast, [1.0], 2) == 1.0
    for i in (1, np.arange(1, 4)):
        with pytest.raises(DomainError) as ei:
            expr.eval(ast, [1.0], i)
        assert (ei.value.index, ei.value.line, ei.value.column) == (1, 1, 6)


def test_first_failing_index_wins_over_evaluation_order():
    # the sqrt fails for i >= 3, the division (evaluated later) only at i = 2
    ast = expr.parse("sqrt(2 - i + x1) + 1/(i - 2)", 1)
    with pytest.raises(DomainError) as ei:
        expr.eval(ast, [0.0], np.arange(1, 5))
    assert (ei.value.index, ei.value.column) == (2, 21)


@pytest.mark.parametrize("src, x, where", [
    ("exp(x1*i)", 300.0, (3, 1, 1)),            # exp(900) at i = 3
    ("x1 + x1^i", 1e200, (2, 1, 8)),
    ("pow(x1, i) + 1/(i - 3)", 1e200, (2, 1, 1)),   # the overflow at i = 2 comes first
])
def test_array_lane_overflow_is_a_domain_error(src, x, where):
    ast = expr.parse(src, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")          # no numpy RuntimeWarning either
        for evaluate in (expr.eval, expr.eval_dual):
            for i in (np.arange(1, 5), where[0]):
                with pytest.raises(DomainError, match="overflow") as ei:
                    evaluate(ast, [x], i)
                assert (ei.value.index, ei.value.line, ei.value.column) == where
    # the scalar subtree raised before; an x-and-i subtree now raises alike
    with pytest.raises(DomainError, match="^1:1: overflow$"):
        expr.eval(expr.parse("exp(x1*i)", 1), [800.0], 1)
    with pytest.raises(DomainError, match="^1:1: overflow$"):
        expr.eval(expr.parse("exp(x1)", 1), [800.0], 1)


def test_array_lane_derivative_overflow_is_a_domain_error():
    # (1e-200 i)^-1.5 is finite, its derivative's (1e-200 i)^-2.5 is not
    ast = expr.parse("pow(x1*i, 0 - 1.5)", 1)
    assert np.all(np.isfinite(expr.eval(ast, [1e-200], np.arange(1, 4))))
    with pytest.raises(DomainError, match="overflow") as ei:
        expr.eval_dual(ast, [1e-200], np.arange(1, 4))
    assert (ei.value.index, ei.value.column) == (1, 1)


def test_floor_and_mod():
    ast = expr.parse("floor((i-1)/10) + 100*mod(i-1, 10) + x1", 1)
    assert list(expr.eval(ast, [0.0], np.array([1, 10, 11, 37]))) == [0.0, 900.0, 1.0, 603.0]
    assert expr.eval(expr.parse("mod(0 - 3, 10)", 1), [0.0], 1) == 7.0
    with pytest.raises(DomainError) as ei:
        expr.eval(expr.parse("x1 + mod(i, i - 2)", 1), [0.0], np.arange(1, 4))
    assert (ei.value.index, ei.value.column) == (2, 6)


@pytest.mark.parametrize("src, column", [("floor(x1)", 1), ("i + mod(i, 2*x2)", 5),
                                         ("mod(floor(i + x1), 3)", 5)])
def test_floor_and_mod_reject_x(src, column):
    with pytest.raises(ParseError) as ei:
        expr.parse(src, 2)
    assert (ei.value.line, ei.value.column) == (1, column)


def test_deep_nesting_is_a_parse_error():
    with pytest.raises(ParseError):
        expr.parse("(" * 2000 + "x1" + ")" * 2000, 1)
