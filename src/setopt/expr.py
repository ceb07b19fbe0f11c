"""Small scalar expression language with exact forward-mode derivatives.

Problem files describe each image component as one expression in the decision
variables ``x1..xn`` and the function-family parameter ``i``.  Evaluation is
plain IEEE double arithmetic; `eval_dual` carries an n-vector of derivatives
through every operation, so one pass yields the exact gradient.

Each parsed expression is compiled once.  `eval` and `eval_dual` then take the
family index as an int or as an index array, and one call evaluates every
index in the array (see "compilation and evaluation" below).
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, LexError, ParseError, UnknownIdentifier, VariableOutOfRange

FUNCTIONS = {"sin", "cos", "tan", "exp", "log", "sqrt", "abs", "pow", "floor", "mod"}
_ARITY = {name: (2 if name in ("pow", "mod") else 1) for name in FUNCTIONS}
# Integer arithmetic on the family index; their arguments may not depend on x.
INDEX_ONLY = {"floor", "mod"}


# --- AST -------------------------------------------------------------------

@dataclass(frozen=True)
class Node:
    line: int = field(compare=False)
    column: int = field(compare=False)


@dataclass(frozen=True)
class Const(Node):
    value: float


@dataclass(frozen=True)
class Var(Node):
    index: int  # 1-based


@dataclass(frozen=True)
class Param(Node):
    """The function-family index i, entering as a real constant."""


@dataclass(frozen=True)
class Neg(Node):
    child: Node


@dataclass(frozen=True)
class BinOp(Node):
    op: str  # one of + - * / ^
    left: Node
    right: Node


@dataclass(frozen=True)
class Call(Node):
    name: str
    args: tuple


@dataclass(frozen=True)
class ExprAst:
    """Parsed expression plus the dimension it was parsed against.

    `plan` is the expression compiled for evaluation, built once here.
    """

    root: Node
    n: int
    plan: "_Plan" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "plan", _Plan(self.root, self.n))


@dataclass
class DualNumber:
    """Value and gradient; for an index array, arrays over the indices:
    values (p,), derivatives (p, n) and nondifferentiable (p,)."""

    value: float
    derivatives: np.ndarray
    nondifferentiable: bool = False


# --- lexer -----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


@dataclass
class _Token:
    kind: str   # num | ident | op | end
    text: str
    line: int
    column: int


def _tokenize(source: str):
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None or m.end() == m.start():
            # skip pure whitespace tail
            rest = source[pos:]
            if rest.strip() == "":
                break
            idx = pos + (len(rest) - len(rest.lstrip()))
            line = source.count("\n", 0, idx) + 1
            col = idx - (source.rfind("\n", 0, idx) + 1) + 1
            raise LexError(f"unexpected character {source[idx]!r}", line, col)
        start = m.start() + len(m.group(0)) - len(m.group(0).lstrip())
        line = source.count("\n", 0, start) + 1
        col = start - (source.rfind("\n", 0, start) + 1) + 1
        if m.group("num") is not None:
            kind, text = "num", m.group(0).strip()
        elif m.group("ident") is not None:
            kind, text = "ident", m.group("ident")
        else:
            kind, text = "op", m.group("op")
        tokens.append(_Token(kind, text, line, col))
        pos = m.end()
    last_line = source.count("\n") + 1
    tokens.append(_Token("end", "", last_line, len(source) - (source.rfind("\n") + 1) + 1))
    return tokens


# --- parser ----------------------------------------------------------------

class _Parser:
    def __init__(self, tokens, n):
        self.tokens = tokens
        self.k = 0
        self.n = n

    @property
    def tok(self):
        return self.tokens[self.k]

    def advance(self):
        self.k += 1

    def expect(self, text):
        t = self.tok
        if t.kind != "op" or t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text or 'end of input'!r}", t.line, t.column)
        self.advance()

    def parse(self):
        node = self.expr()
        t = self.tok
        if t.kind != "end":
            raise ParseError(f"unexpected trailing input {t.text!r}", t.line, t.column)
        return node

    def expr(self):
        node = self.term()
        while self.tok.kind == "op" and self.tok.text in "+-":
            t = self.tok
            self.advance()
            node = BinOp(t.line, t.column, t.text, node, self.term())
        return node

    def term(self):
        node = self.power()
        while self.tok.kind == "op" and self.tok.text in "*/":
            t = self.tok
            self.advance()
            node = BinOp(t.line, t.column, t.text, node, self.power())
        return node

    def power(self):
        # unary minus binds tighter than ^; ^ is right-associative
        node = self.unary()
        if self.tok.kind == "op" and self.tok.text == "^":
            t = self.tok
            self.advance()
            node = BinOp(t.line, t.column, "^", node, self.power())
        return node

    def unary(self):
        if self.tok.kind == "op" and self.tok.text == "-":
            t = self.tok
            self.advance()
            return Neg(t.line, t.column, self.unary())
        return self.atom()

    def atom(self):
        t = self.tok
        if t.kind == "num":
            self.advance()
            return Const(t.line, t.column, float(t.text))
        if t.kind == "ident":
            self.advance()
            name = t.text
            if name in FUNCTIONS:
                self.expect("(")
                args = [self.expr()]
                while self.tok.kind == "op" and self.tok.text == ",":
                    self.advance()
                    args.append(self.expr())
                self.expect(")")
                if len(args) != _ARITY[name]:
                    raise ParseError(
                        f"{name} takes {_ARITY[name]} argument(s), got {len(args)}", t.line, t.column
                    )
                if name in INDEX_ONLY and any(_deps(a) & _X for a in args):
                    raise ParseError(f"{name} takes only i and constants, not x", t.line, t.column)
                return Call(t.line, t.column, name, tuple(args))
            if name == "pi":
                return Const(t.line, t.column, math.pi)
            if name == "i":
                return Param(t.line, t.column)
            m = re.fullmatch(r"x(\d+)", name)
            if m:
                j = int(m.group(1))
                if not 1 <= j <= self.n:
                    raise VariableOutOfRange(
                        f"variable x{j} out of range for n={self.n}", t.line, t.column
                    )
                return Var(t.line, t.column, j)
            raise UnknownIdentifier(f"unknown identifier {name!r}", t.line, t.column)
        if t.kind == "op" and t.text == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        raise ParseError(f"expected a value, found {t.text or 'end of input'!r}", t.line, t.column)


def parse(source: str, n: int) -> ExprAst:
    """Parse and compile one expression over x1..xn and the family parameter i."""
    try:
        root = _Parser(_tokenize(source), n).parse()
    except RecursionError:
        raise ParseError("expression nested too deeply") from None
    return ExprAst(root, n)


# --- printer ---------------------------------------------------------------

def to_source(ast: ExprAst) -> str:
    """Print an AST so that re-parsing yields a structurally identical tree."""
    return _print(ast.root)


def _print(node: Node) -> str:
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return f"x{node.index}"
    if isinstance(node, Param):
        return "i"
    if isinstance(node, Neg):
        return f"(-{_print(node.child)})"
    if isinstance(node, BinOp):
        return f"({_print(node.left)} {node.op} {_print(node.right)})"
    if isinstance(node, Call):
        return f"{node.name}({', '.join(_print(a) for a in node.args)})"
    raise TypeError(node)


# --- compilation and evaluation --------------------------------------------
#
# An expression is compiled once into closures.  The family index enters as a
# vector of lanes, one per requested i, and a subtree is evaluated by what it
# depends on:
#   - not on x: folded lane by lane with Python floats and `math`, once per
#     index vector, and cached (e.g. sin(2*pi*(i-1)/50) becomes a vector);
#   - on x only: once per call with Python floats and `math`, shared by all
#     lanes;
#   - on x and i: numpy arithmetic over the lanes.
# The first two round exactly like a scalar tree walk.  numpy's + - * / round
# like Python's, so wherever the x-and-i subtrees use only those, every lane
# is bit-identical to evaluating that index alone; numpy's transcendental
# functions and powers may differ from `math` in the last bit.
#
# A check that fails marks its lanes instead of raising; each lane keeps its
# first failure in evaluation order and the lowest failing index is raised,
# which is the error a walk over i = 1, 2, ... meets first.

_X, _I = 1, 2
_XI = _X | _I


def _children(node):
    if isinstance(node, Neg):
        return (node.child,)
    if isinstance(node, BinOp):
        return (node.left, node.right)
    if isinstance(node, Call):
        return node.args
    return ()


def _deps(node) -> int:
    """Bit mask of what a subtree depends on: _X (some xj) and _I (i)."""
    if isinstance(node, Var):
        return _X
    if isinstance(node, Param):
        return _I
    deps = 0
    for child in _children(node):
        deps |= _deps(child)
    return deps


class _Fail(Exception):
    """A check failed in a scalar evaluation; the lane context records it."""

    def __init__(self, node, message):
        super().__init__(message)
        self.node = node
        self.message = message


class _Scalar:
    """Context of a subtree that does not depend on both x and i: Python
    floats and `math`, for one index value `i` (None where i is not used)."""

    __slots__ = ("i", "kink")
    sin, cos, tan, exp, log, sqrt, copysign, pow = (
        math.sin, math.cos, math.tan, math.exp, math.log, math.sqrt, math.copysign,
        operator.pow)
    any = all = bool
    not_ = operator.not_

    def __init__(self, i=None):
        self.i = i
        self.kink = False

    @staticmethod
    def where(cond, a, b):
        return a if cond else b

    @staticmethod
    def nonint(b):
        return not (math.isfinite(b) and b == math.floor(b))

    @staticmethod
    def check(node, bad, message):
        if bad:
            raise _Fail(node, message)
        return False

    @staticmethod
    def finite(node, v, *operands, where=True):
        return v    # math.exp and float ** raise OverflowError themselves

    def flag(self, kink):
        if kink:
            self.kink = True


class _Lanes:
    """Context of a subtree that depends on x and i: numpy arrays over the
    lanes `iv`, checks that mark failing lanes, and the folds of x-free
    subtrees for this index vector."""

    __slots__ = ("iv", "p", "folds", "failed", "kinks", "shared_ctx")
    sin, cos, tan, log, sqrt, copysign, where = (
        np.sin, np.cos, np.tan, np.log, np.sqrt, np.copysign, staticmethod(np.where))
    any, all, not_ = staticmethod(np.any), staticmethod(np.all), np.logical_not

    def __init__(self, iv, folds):
        self.iv = iv
        self.p = iv.shape[0]
        self.folds = folds
        self.failed = None       # lane -> (node, message) of its first failure
        self.kinks = None        # (p,) bool: abs met 0 on the lane
        self.shared_ctx = _Scalar()

    @staticmethod
    def nonint(b):
        return np.logical_not(np.isfinite(b) & (b == np.floor(b)))

    def check(self, node, bad, message):
        """Record lanes where `bad` holds; True if any did."""
        if not (bad.any() if isinstance(bad, np.ndarray) else bad):
            return False
        self._record(np.flatnonzero(np.broadcast_to(bad, (self.p,))).tolist(), node, message)
        return True

    # numpy overflows to inf where `math` and float ** raise; `finite` marks it.
    @staticmethod
    def exp(v):
        with np.errstate(over="ignore"):
            return np.exp(v)

    @staticmethod
    def pow(a, b):
        with np.errstate(over="ignore"):
            return a ** b

    def finite(self, node, v, *operands, where=True):
        """Mark lanes (of `where`) where finite operands gave an infinite
        result; they become nan."""
        bad = np.isinf(v) & where
        for a in operands:
            bad &= np.isfinite(a)
        if self.check(node, bad, "overflow"):
            return np.where(bad, math.nan, v)
        return v

    def _record(self, lanes, node, message):
        if self.failed is None:
            self.failed = {}
        for k in lanes:
            self.failed.setdefault(k, (node, message))

    def flag(self, kink):
        if np.any(kink):
            if self.kinks is None:
                self.kinks = np.zeros(self.p, dtype=bool)
            self.kinks |= kink

    def shared(self, fn, xs, dual):
        """Evaluate an x-only subtree once for all lanes."""
        try:
            return fn(xs, self.shared_ctx)
        except _Fail as fail:
            self._record(range(self.p), fail.node, fail.message)
            return (math.nan, None) if dual else math.nan

    def fold(self, fn, dual):
        """The cached lane vector of an x-free subtree; replays its failures."""
        entry = self.folds.get(fn)
        if entry is None:
            entry = self.folds[fn] = _fold(fn, self.iv, dual)
        values, failed, kinks = entry
        for k, (node, message) in failed.items():
            self._record((k,), node, message)
        if kinks is not None:
            self.flag(kinks)
        return values

    def finish(self):
        """Raise the lowest failing lane's first failure; settle shared kinks."""
        if self.failed:
            k = min(self.failed)
            node, message = self.failed[k]
            exc = DomainError(message, node.line, node.column)
            exc.index = self.iv[k].item()
            raise exc
        if self.shared_ctx.kink:
            self.flag(True)


def _fold(fn, iv, dual):
    values = np.empty(iv.shape[0])
    failed = {}
    kinks = np.zeros(iv.shape[0], dtype=bool)
    for k, i in enumerate(iv.tolist()):
        ctx = _Scalar(float(i))
        try:
            v = fn(None, ctx)
            values[k] = v[0] if dual else v
        except _Fail as fail:
            failed[k] = (fail.node, fail.message)
            values[k] = math.nan
        kinks[k] = ctx.kink
    values.setflags(write=False)
    return values, failed, (kinks if kinks.any() else None)


# Gradients are None where known to be zero, an (n,) array shared by all
# lanes, or a (p, n) array.  A dropped zero term leaves the walk's formula
# otherwise unchanged, so the rounding is the same.

def _col(v):
    return v[:, None] if isinstance(v, np.ndarray) and v.ndim == 1 else v


def _scale(v, g):
    return None if g is None else _col(v) * g


def _over(g, d):
    return None if g is None else g / _col(d)


def _plus(ag, bg):
    if ag is None:
        return bg
    return ag if bg is None else ag + bg


def _minus(ag, bg):
    if bg is None:
        return ag
    return -bg if ag is None else ag - bg


# Operations: value op (c, node, *values) and dual op (c, node, *(value, grad)),
# where c is the _Scalar or _Lanes context.

def _neg(c, node, a):
    return -a


def _neg_d(c, node, a):
    return -a[0], (None if a[1] is None else -a[1])


def _add(c, node, a, b):
    return a + b


def _add_d(c, node, a, b):
    return a[0] + b[0], _plus(a[1], b[1])


def _sub(c, node, a, b):
    return a - b


def _sub_d(c, node, a, b):
    return a[0] - b[0], _minus(a[1], b[1])


def _mul(c, node, a, b):
    return a * b


def _mul_d(c, node, a, b):
    (av, ag), (bv, bg) = a, b
    return av * bv, _plus(_scale(av, bg), _scale(bv, ag))


def _divisor(c, node, b):
    if c.check(node, b == 0.0, "division by zero"):
        return c.where(b == 0.0, 1.0, b)
    return b


def _div(c, node, a, b):
    return a / _divisor(c, node, b)


def _div_d(c, node, a, b):
    (av, ag), (bv, bg) = a, b
    bv = _divisor(c, node, bv)
    return av / bv, _over(_minus(_scale(bv, ag), _scale(av, bg)), bv * bv)


def _pow_base(c, node, a, b):
    zero_neg = (a == 0.0) & (b < 0.0)
    neg_frac = (a < 0.0) & c.nonint(b)
    if (c.check(node, zero_neg, "zero raised to a negative power")
            | c.check(node, neg_frac, "negative base with non-integer exponent")):
        return c.where(zero_neg | neg_frac, 1.0, a)
    return a


def _power(c, node, a, b, where=True):
    return c.finite(node, c.pow(a, b), a, b, where=where)


def _pow(c, node, a, b):
    return _power(c, node, _pow_base(c, node, a, b), b)


def _moving(g):
    """Whether an exponent's gradient is nonzero, per lane if it varies."""
    if g is None:
        return False
    if g.ndim == 1:
        return bool((g != 0.0).any())
    return (g != 0.0).any(axis=1)


def _pow_d(c, node, a, b):
    (av, ag), (bv, bg) = a, b
    av = _pow_base(c, node, av, bv)
    value = _power(c, node, av, bv)
    moving = _moving(bg)
    grad = None
    if c.any(moving):
        c.check(node, moving & (av <= 0.0), "non-constant exponent needs a positive base")
        pos = c.where(av > 0.0, av, 1.0)
        grad = _scale(value, _plus(_scale(c.log(pos), bg), _over(_scale(bv, ag), pos)))
    if not c.all(moving):
        zero = av == 0.0
        c.check(node, c.not_(moving) & zero & c.not_((bv == 1.0) | (bv > 1.0) | (bv == 0.0)),
                "derivative of x^b unbounded at x=0 for 0<b<1")
        coef = c.where(zero, c.where(bv == 1.0, 1.0, 0.0),
                       bv * _power(c, node, c.where(zero, 1.0, av), bv - 1.0,
                                   where=c.not_(moving)))
        fixed = _scale(coef, ag)
        if grad is None:
            grad = fixed
        else:
            grad = np.where(moving[:, None], grad, 0.0 if fixed is None else fixed)
    return value, grad


def _sin_d(c, node, a):
    return c.sin(a[0]), _scale(c.cos(a[0]), a[1])


def _cos_d(c, node, a):
    return c.cos(a[0]), _scale(-c.sin(a[0]), a[1])


def _tan_d(c, node, a):
    t = c.tan(a[0])
    return t, _scale(1.0 + t * t, a[1])


def _exp(c, node, v):
    return c.finite(node, c.exp(v), v)


def _exp_d(c, node, a):
    e = _exp(c, node, a[0])
    return e, _scale(e, a[1])


def _positive(c, node, v):
    if c.check(node, v <= 0.0, "log of a non-positive value"):
        return c.where(v <= 0.0, 1.0, v)
    return v


def _log(c, node, v):
    return c.log(_positive(c, node, v))


def _log_d(c, node, a):
    v = _positive(c, node, a[0])
    return c.log(v), _over(a[1], v)


def _sqrt(c, node, v):
    if c.check(node, v < 0.0, "sqrt of a negative value"):
        v = c.where(v < 0.0, 0.0, v)
    return c.sqrt(v)


def _sqrt_d(c, node, a):
    v, g = a
    bad = c.check(node, v < 0.0, "sqrt of a negative value")
    if c.check(node, v == 0.0, "sqrt derivative at zero") or bad:
        v = c.where(v <= 0.0, 1.0, v)
    s = c.sqrt(v)
    return s, _over(g, 2.0 * s)


def _abs(c, node, v):
    return abs(v)


def _abs_d(c, node, a):
    v, g = a
    kink = v == 0.0
    c.flag(kink)
    return abs(v), _scale(c.where(kink, 0.0, c.copysign(1.0, v)), g)


# floor and mod only ever see the _Scalar context: parse rejects x in their
# arguments.

def _floor(c, node, v):
    c.check(node, not math.isfinite(v), "floor of a non-finite value")
    return float(math.floor(v))


def _mod(c, node, a, b):
    c.check(node, b == 0.0, "mod by zero")
    return a % b


_OPS = {  # node kind -> (value op, dual op)
    "neg": (_neg, _neg_d),
    "+": (_add, _add_d), "-": (_sub, _sub_d), "*": (_mul, _mul_d), "/": (_div, _div_d),
    "^": (_pow, _pow_d), "pow": (_pow, _pow_d),
    "sin": (lambda c, node, v: c.sin(v), _sin_d),
    "cos": (lambda c, node, v: c.cos(v), _cos_d),
    "tan": (lambda c, node, v: c.tan(v), _tan_d),
    "exp": (_exp, _exp_d),
    "log": (_log, _log_d),
    "sqrt": (_sqrt, _sqrt_d),
    "abs": (_abs, _abs_d),
    "floor": (_floor, lambda c, node, a: (_floor(c, node, a[0]), None)),
    "mod": (_mod, lambda c, node, a, b: (_mod(c, node, a[0], b[0]), None)),
}


def _apply(op, node, args, lanes):
    if len(args) == 1:
        (fa,) = args

        def call(xs, c):
            return op(c, node, fa(xs, c))
    else:
        fa, fb = args

        def call(xs, c):
            return op(c, node, fa(xs, c), fb(xs, c))
    if lanes:
        return call

    def checked(xs, c):
        # `math` and float `**` raise where numpy would return inf or nan
        try:
            return call(xs, c)
        except OverflowError:
            raise _Fail(node, "overflow") from None
        except ValueError:
            raise _Fail(node, "math domain error") from None
    return checked


def _compile(node, n):
    """(deps, value closure, dual closure) of a subtree.

    The closures take (xs, c): xs the point as Python floats and c the
    _Scalar context, or the _Lanes context where deps is _XI.
    """
    if isinstance(node, Const):
        v = node.value
        return 0, (lambda xs, c: v), (lambda xs, c: (v, None))
    if isinstance(node, Var):
        j = node.index - 1
        unit = np.zeros(n)
        unit[j] = 1.0
        unit.setflags(write=False)
        return _X, (lambda xs, c: xs[j]), (lambda xs, c: (xs[j], unit))
    if isinstance(node, Param):
        return _I, (lambda xs, c: c.i), (lambda xs, c: (c.i, None))
    if isinstance(node, Neg):
        key = "neg"
    elif isinstance(node, BinOp):
        key = node.op
    elif isinstance(node, Call):
        key = node.name
    else:
        raise TypeError(node)
    codes = [_compile(child, n) for child in _children(node)]
    deps = 0
    for code in codes:
        deps |= code[0]
    lanes = deps == _XI
    pairs = [_on_lanes(code) if lanes else code[1:] for code in codes]
    value_op, dual_op = _OPS[key]
    return (deps, _apply(value_op, node, [pair[0] for pair in pairs], lanes),
            _apply(dual_op, node, [pair[1] for pair in pairs], lanes))


def _on_lanes(code):
    """A subtree's (value, dual) closures as operands in the _Lanes context."""
    deps, value, dual = code
    if deps == _XI:
        return value, dual
    if deps == _X:
        return (lambda xs, c: c.shared(value, xs, False),
                lambda xs, c: c.shared(dual, xs, True))
    return (lambda xs, c: c.fold(value, False),
            lambda xs, c: (c.fold(dual, True), None))


class _Plan:
    """A compiled expression: evaluates every lane of an index vector."""

    def __init__(self, root, n):
        self.n = n
        self._value, self._dual = _on_lanes(_compile(root, n))
        self._folds = (None, {})  # (index vector key, folds of the x-free subtrees)

    def _start(self, x, i):
        xs = np.asarray(x, dtype=float).ravel().tolist()
        iv = np.asarray(i)
        if iv.ndim == 0:
            return xs, _Lanes(iv.reshape(1), {}), True
        iv = iv.ravel()
        key = (iv.dtype.str, iv.tobytes())
        folds = self._folds
        if folds[0] != key:
            folds = self._folds = (key, {})
        return xs, _Lanes(iv, folds[1]), False

    def value(self, x, i):
        xs, lanes, scalar = self._start(x, i)
        v = self._value(xs, lanes)
        lanes.finish()
        out = np.empty(lanes.p)
        out[:] = v
        return float(out[0]) if scalar else out

    def dual(self, x, i):
        xs, lanes, scalar = self._start(x, i)
        v, g = self._dual(xs, lanes)
        lanes.finish()
        values = np.empty(lanes.p)
        values[:] = v
        grads = np.zeros((lanes.p, self.n))
        if g is not None:
            grads[:] = g
        kinks = np.zeros(lanes.p, dtype=bool) if lanes.kinks is None else lanes.kinks
        if scalar:
            return DualNumber(float(values[0]), grads[0], bool(kinks[0]))
        return DualNumber(values, grads, kinks)


def eval(ast: ExprAst, x, i):  # noqa: A001 - spec operation name
    """Evaluate at x with family index i.

    An int i gives a float; an index array gives one value per index.  A
    failed domain check raises DomainError at the failing node's line:column,
    for the first failing index, which is also stored as its `index`.
    """
    return ast.plan.value(x, i)


def eval_dual(ast: ExprAst, x, i) -> DualNumber:
    """Evaluate with the exact gradient with respect to x (i as in `eval`).

    `abs` at exactly 0 returns derivative 0 and sets the
    nondifferentiable flag instead of failing.
    """
    return ast.plan.dual(x, i)
