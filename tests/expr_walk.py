"""Reference evaluator: the per-index tree walk that `setopt.expr` used
before expressions were compiled, extended with `floor` and `mod`.

`walk_eval` and `walk_dual` evaluate one family index i per call by walking
the tree with Python floats, `math` and the point's numpy scalars.  The
tests compare the compiled evaluator against them; keep this module
independent of `setopt.expr`'s evaluation code.
"""

import math

import numpy as np

from setopt.errors import DomainError
from setopt.expr import BinOp, Call, Const, DualNumber, Neg, Param, Var


def walk_eval(ast, x, i: int) -> float:
    """Evaluate at x with family index i."""
    x = np.asarray(x, dtype=float).ravel()
    return _eval(ast.root, x, float(i))


def walk_dual(ast, x, i: int) -> DualNumber:
    """Evaluate with the exact gradient with respect to x.

    `abs` at exactly 0 returns derivative 0 and sets the
    nondifferentiable flag instead of failing.
    """
    x = np.asarray(x, dtype=float).ravel()
    flag = [False]
    value, grad = _eval_dual(ast.root, x, float(i), flag)
    return DualNumber(value=value, derivatives=grad, nondifferentiable=flag[0])


def walk_lanes(ast, x, index):
    """One walk per index: the values as an array over `index`."""
    return np.array([walk_eval(ast, x, i) for i in index])


def walk_dual_lanes(ast, x, index):
    """One dual walk per index: the (len(index), n) gradients."""
    return np.array([walk_dual(ast, x, i).derivatives for i in index])


def _fail(node, message):
    raise DomainError(message, node.line, node.column)


def _eval(node, x, i):
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return x[node.index - 1]
    if isinstance(node, Param):
        return i
    if isinstance(node, Neg):
        return -_eval(node.child, x, i)
    if isinstance(node, BinOp):
        a = _eval(node.left, x, i)
        b = _eval(node.right, x, i)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            if b == 0.0:
                _fail(node, "division by zero")
            return a / b
        return _pow_value(node, a, b)
    if isinstance(node, Call):
        args = [_eval(a, x, i) for a in node.args]
        return _call_value(node, args)
    raise TypeError(node)


def _pow_value(node, a, b):
    if a == 0.0 and b < 0.0:
        _fail(node, "zero raised to a negative power")
    if a < 0.0 and b != round(b):
        _fail(node, "negative base with non-integer exponent")
    return a ** b


def _call_value(node, args):
    name = node.name
    if name == "pow":
        return _pow_value(node, args[0], args[1])
    if name == "mod":
        if args[1] == 0.0:
            _fail(node, "mod by zero")
        return args[0] % args[1]
    (v,) = args
    if name == "floor":
        if not math.isfinite(v):
            _fail(node, "floor of a non-finite value")
        return float(math.floor(v))
    if name == "log":
        if v <= 0.0:
            _fail(node, "log of a non-positive value")
        return math.log(v)
    if name == "sqrt":
        if v < 0.0:
            _fail(node, "sqrt of a negative value")
        return math.sqrt(v)
    if name == "abs":
        return abs(v)
    return getattr(math, name)(v)


def _eval_dual(node, x, i, flag):
    n = x.shape[0]
    if isinstance(node, Const):
        return node.value, np.zeros(n)
    if isinstance(node, Var):
        g = np.zeros(n)
        g[node.index - 1] = 1.0
        return x[node.index - 1], g
    if isinstance(node, Param):
        return i, np.zeros(n)
    if isinstance(node, Neg):
        v, g = _eval_dual(node.child, x, i, flag)
        return -v, -g
    if isinstance(node, BinOp):
        av, ag = _eval_dual(node.left, x, i, flag)
        bv, bg = _eval_dual(node.right, x, i, flag)
        if node.op == "+":
            return av + bv, ag + bg
        if node.op == "-":
            return av - bv, ag - bg
        if node.op == "*":
            return av * bv, av * bg + bv * ag
        if node.op == "/":
            if bv == 0.0:
                _fail(node, "division by zero")
            return av / bv, (ag * bv - av * bg) / (bv * bv)
        return _pow_dual(node, av, ag, bv, bg)
    if isinstance(node, Call):
        duals = [_eval_dual(a, x, i, flag) for a in node.args]
        return _call_dual(node, duals, flag)
    raise TypeError(node)


def _pow_dual(node, av, ag, bv, bg):
    value = _pow_value(node, av, bv)
    if np.any(bg != 0.0):
        if av <= 0.0:
            _fail(node, "non-constant exponent needs a positive base")
        grad = value * (bg * math.log(av) + bv * ag / av)
    else:
        if av == 0.0:
            if bv == 1.0:
                grad = ag.copy()
            elif bv > 1.0 or bv == 0.0:
                grad = np.zeros_like(ag)
            else:
                _fail(node, "derivative of x^b unbounded at x=0 for 0<b<1")
        else:
            grad = bv * av ** (bv - 1.0) * ag
    return value, grad


def _call_dual(node, duals, flag):
    name = node.name
    if name == "pow":
        (av, ag), (bv, bg) = duals
        return _pow_dual(node, av, ag, bv, bg)
    if name in ("floor", "mod"):   # x-free by the parser's rule
        return _call_value(node, [v for v, _ in duals]), np.zeros_like(duals[0][1])
    ((v, g),) = duals
    if name == "sin":
        return math.sin(v), math.cos(v) * g
    if name == "cos":
        return math.cos(v), -math.sin(v) * g
    if name == "tan":
        t = math.tan(v)
        return t, (1.0 + t * t) * g
    if name == "exp":
        e = math.exp(v)
        return e, e * g
    if name == "log":
        if v <= 0.0:
            _fail(node, "log of a non-positive value")
        return math.log(v), g / v
    if name == "sqrt":
        if v < 0.0:
            _fail(node, "sqrt of a negative value")
        if v == 0.0:
            _fail(node, "sqrt derivative at zero")
        s = math.sqrt(v)
        return s, g / (2.0 * s)
    if name == "abs":
        if v == 0.0:
            flag[0] = True
            return 0.0, np.zeros_like(g)
        return abs(v), math.copysign(1.0, v) * g
    raise TypeError(name)
