"""Small scalar expression language with exact forward-mode derivatives.

Problem files describe each image component as one expression in the decision
variables ``x1..xn`` and the function-family parameter ``i``.  Evaluation is
plain IEEE double arithmetic; the Jacobians carry an n-vector of derivatives
through every operation, so one pass yields the exact gradient.

Expressions are translated into Python source, one assignment per node, and
compiled (see "evaluation by generated code" below): `generate` makes one
values and one Jacobian function for all m expressions of a problem file, over
an index array.  `eval` and `eval_dual` run the code `generate` makes for a
single expression (`eval` only its values function), at an int family index
or an index array; one call evaluates every index in the array.  Their
errors are `generate`'s, "f^i component 1: line:column: message", and
`eval_dual`'s nondifferentiable flag comes from the generated values of the
expression's `abs` arguments.
"""

from __future__ import annotations

import copy
import linecache
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

    `families` holds the generated functions of `eval` (values) and of
    `eval_dual` (values and Jacobians of a family that adds one expression
    per `abs` argument) for the index they were last called with.
    """

    root: Node
    n: int
    families: dict = field(init=False, repr=False, compare=False, default_factory=dict)


@dataclass
class DualNumber:
    """Value and gradient; for an index array, arrays over the indices:
    values (p,), derivatives (p, n) and nondifferentiable (p,)."""

    value: float
    derivatives: np.ndarray
    nondifferentiable: bool = False


# --- lexer -----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])"
    r"|(?P<space>\s+)"
    r"|(?P<bad>.)", re.DOTALL)


@dataclass
class _Token:
    kind: str   # num | ident | op | end
    text: str
    line: int
    column: int


def _tokenize(source: str):
    # 1-based positions; only a space token holds a newline, so the line and the
    # offset where it starts carry over from one token to the next
    tokens, line, start = [], 1, 0
    for m in _TOKEN_RE.finditer(source):
        if m.lastgroup == "bad":
            raise LexError(f"unexpected character {m.group()!r}", line, m.start() - start + 1)
        if m.lastgroup != "space":
            tokens.append(_Token(m.lastgroup, m.group(), line, m.start() - start + 1))
        elif breaks := m.group().count("\n"):
            line, start = line + breaks, m.start() + m.group().rfind("\n") + 1
    return tokens + [_Token("end", "", line, len(source) - start + 1)]


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
                if name in INDEX_ONLY and any(isinstance(sub, Var)
                                              for a in args for sub in _postorder(a)):
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
    """Parse one expression over x1..xn and the family parameter i."""
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


# --- evaluation by generated code ------------------------------------------
#
# A family of m expressions is translated into the Python source of one
# function over every index of an index vector (the lanes), compiled once.
# A subtree is translated by what it depends on:
#   - not on x: folded lane by lane with Python floats and `math` when the
#     index vector is bound (e.g. sin(2*pi*(i-1)/50) becomes a vector), and a
#     subtree free of i as well becomes one constant;
#   - on x only: Python float statements with `math`, run once per call; a
#     gradient is n floats;
#   - on x and i: numpy arithmetic over the lanes.
# Each node is one assignment, in the order of a tree walk, performing the
# walk's floating-point operations, so the first two round exactly like it.
# numpy's + - * / round like Python's, so wherever the x-and-i subtrees use
# only those, every lane is bit-identical to evaluating that index alone;
# numpy's transcendental functions and powers may differ from `math` in the
# last bit.  A subtree free of x has no gradient, so it adds no gradient
# term and no derivative check, and its folds serve the values and the
# Jacobians alike; the zero entries of a variable's unit vector are operands
# like any other.  So a^b takes the log rule, with its check a > 0, exactly
# where the exponent reads x.  `x * 1.0` is `x`, and operations on constants
# are done once, at generation.
#
# The error raised is the one a walk over i = 1, 2, ... meets first: a
# family reports the lowest index, then the lowest component.  The first
# check to fail on any lane raises _Fail with the lanes it failed on; so does
# a fold with failing lanes where the walk meets it, and on every lane a
# `math` call or float ** that raises, caught on its own line (`guarded`).
# No check failed before it, so it is the first failure of its lowest lane
# k.  A lower lane may fail at a later check, so `_raise` evaluates
# lanes[:k] alone first, which raises if one does.  Checks whose operands
# are constants or folds are decided at generation.

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


def _postorder(root):
    """Every node of a tree, children left to right before their parent."""
    order, stack = [], [root]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(_children(node))
    order.reverse()
    return order


# run-time support of the generated code

class _Fail(Exception):
    """The first failed check: its site, and `bad`, the mask of the lanes it
    failed on, or True for every lane."""

    def __init__(self, site, bad=True):
        super().__init__(site)
        self.site, self.bad = site, bad


def _fold_lanes(fn, lanes):
    """A subtree free of x over the lanes: values, and None or the _Fail of
    its lowest failing lane, naming every failing lane; a failing lane is
    nan."""
    values, sites = [], []
    for i in lanes:
        site = None
        try:
            value = fn(i)
        except _Fail as fail:
            value, site = math.nan, fail.site
        values.append(value)
        sites.append(site)
    bad = np.array([site is not None for site in sites])
    return values, _Fail(sites[bad.argmax()], bad) if bad.any() else None


# numpy overflows to inf where `math` and float ** raise; a finite check
# after them fails there.
def _nexp(v):
    with np.errstate(over="ignore"):
        return np.exp(v)


def _npow(a, b):
    with np.errstate(over="ignore"):
        return a ** b


_RUNTIME = {
    "_Fail": _Fail, "_nexp": _nexp, "_npow": _npow,
    "_empty": np.empty, "_zeros": np.zeros, "_nan": math.nan, "_inf": math.inf,
    "_sin": math.sin, "_cos": math.cos, "_tan": math.tan, "_exp": math.exp,
    "_log": math.log, "_sqrt": math.sqrt, "_copysign": math.copysign,
    "_isfinite": math.isfinite, "_floor": math.floor,
    "_nsin": np.sin, "_ncos": np.cos, "_ntan": np.tan, "_nlog": np.log,
    "_nsqrt": np.sqrt, "_ncopysign": np.copysign, "_nwhere": np.where,
    "_nisinf": np.isinf, "_nisfinite": np.isfinite, "_nfloor": np.floor,
    "_nnot": np.logical_not,
}

# operand kinds: a constant known at generation (`value`), a Python float,
# or a numpy object (a lane array, or a fold array with its `value`)
_C, _S, _N = "C", "S", "N"

_FOLD_ARITH = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}
_COMPARE = {"==": operator.eq, "<": operator.lt, "<=": operator.le, ">": operator.gt}
_LOCAL = re.compile(r"\b[vbx]\d+\b")


class _V:
    __slots__ = ("code", "kind", "value")

    def __init__(self, code, kind, value=None):
        self.code, self.kind, self.value = code, kind, value


def _const(value) -> _V:
    if isinstance(value, (bool, np.bool_)):
        return _V(repr(bool(value)), _C, bool(value))
    value = float(value)
    if math.isnan(value):
        code = "(-_nan)" if math.copysign(1.0, value) < 0 else "_nan"
    elif math.isinf(value):
        code = "_inf" if value > 0 else "(-_inf)"
    else:
        code = repr(value)
        if code.startswith("-"):
            code = f"({code})"
    return _V(code, _C, value)


_ONE, _ZERO = _const(1.0), _const(0.0)


def _join(*operands) -> str:
    return _N if any(a.kind == _N for a in operands) else _S


class _Emitter:
    """The statements of one generated function.

    A statement is (lines, targets, pure): a pure statement whose targets
    are never read is dropped (`program`).  `lanes` says whether the node
    being emitted depends on x and i; `component` goes into its failure
    sites.
    """

    def __init__(self, ns):
        self.ns = ns
        self.stmts = []
        self.count = 0
        self.component = 0
        self.lanes = False

    # statements and names

    def name(self, prefix="v"):
        self.count += 1
        return f"{prefix}{self.count}"

    def put(self, lines, targets=(), pure=False):
        self.stmts.append((list(lines), tuple(targets), pure))

    def let(self, expr, kind, prefix="v") -> _V:
        target = self.name(prefix)
        self.put([f"{target} = {expr}"], (target,), pure=True)
        return _V(target, _S if kind == _C else kind)

    def glob(self, prefix, obj, kind=_N, value=None) -> _V:
        name = f"{prefix}{len(self.ns)}"
        self.ns[name] = obj
        return _V(name, kind, value)

    def site(self, node, message) -> str:
        return self.glob("S", (self.component, node.line, node.column, message)).code

    def guarded(self, expr, node, error) -> _V:
        """A `math` call or float ** in a `try` of its own, failing at `node`
        on `error`: exp and ** raise only OverflowError here, and sin, cos
        and tan only ValueError (on ±inf); the checks before ** rule out its
        other failures."""
        target = self.name()
        message = "overflow" if error == "OverflowError" else "math domain error"
        self.put(["try:", f"    {target} = {expr}", f"except {error}:",
                  f"    raise _Fail({self.site(node, message)})"], (target,))
        return _V(target, _S)

    def program(self, indent, start=0, reads=""):
        """The source lines of the statements from `start` on, indented; pure
        statements whose targets neither a later statement nor the code
        `reads` reads are dropped."""
        live, kept = set(_LOCAL.findall(reads)), []
        for lines, targets, pure in reversed(self.stmts[start:]):
            if pure and live.isdisjoint(targets):
                continue
            live.difference_update(targets)
            for line in lines:
                live.update(_LOCAL.findall(line))
            kept.append(lines)
        pad = " " * indent
        return [pad + line for lines in reversed(kept) for line in lines]

    # values

    def arith(self, op, a, b) -> _V:
        if a.kind == _C and b.kind == _C:
            with np.errstate(all="ignore"):
                return _const(_FOLD_ARITH[op](np.float64(a.value), np.float64(b.value)))
        if op == "*" and b.kind == _C and b.value == 1.0:
            return a
        if op == "*" and a.kind == _C and a.value == 1.0:
            return b
        return self.let(f"{a.code} {op} {b.code}", _join(a, b))

    def neg(self, a) -> _V:
        return _const(-a.value) if a.kind == _C else self.let(f"-{a.code}", a.kind)

    def call(self, fn, a, node=None) -> _V:
        """math.fn on Python floats, failing at `node` if given; np.fn on lanes."""
        if self.lanes:
            if a.kind == _C:
                with np.errstate(all="ignore"):
                    return _const(getattr(np, fn)(np.float64(a.value)))
            return self.let(f"_n{fn}({a.code})", _N)
        if node is not None:
            return self.guarded(f"_{fn}({a.code})", node,
                                "OverflowError" if fn == "exp" else "ValueError")
        if a.kind == _C:
            try:
                return _const(getattr(math, fn)(a.value))
            except ValueError:
                pass            # log or sqrt after a check that always fails: never run
        return self.let(f"_{fn}({a.code})", _S)

    def select(self, cond, a, b) -> _V:
        """c.where(cond, a, b): both operands are already evaluated."""
        if cond.kind == _C:
            return a if cond.value else b
        if self.lanes:
            return self.let(f"_nwhere({cond.code}, {a.code}, {b.code})", _N)
        return self.let(f"{a.code} if {cond.code} else {b.code}", _join(a, b))

    # conditions: constants fold, Python bools stay inline, numpy ones get a name

    def compare(self, a, op, value) -> _V:
        if a.kind == _C:
            return _const(_COMPARE[op](a.value, value))
        if a.value is not None:            # a fold: decided per lane now
            mask = _COMPARE[op](a.value, value)
            return _const(mask[0]) if mask.all() or not mask.any() else self.glob("M", mask)
        code = f"{a.code} {op} {_const(value).code}"
        return _V(f"({code})", _S) if a.kind == _S else self.let(code, a.kind, "b")

    def both(self, a, b) -> _V:
        if a.kind == _C:
            return b if a.value else a
        if b.kind == _C:
            return a if b.value else b
        kind = _join(a, b)
        code = f"{a.code} & {b.code}"
        return _V(f"({code})", _S) if kind == _S else self.let(code, kind, "b")

    def either(self, *conds) -> _V:
        conds = [c for c in conds if not (c.kind == _C and not c.value)]
        if not conds:
            return _const(False)
        if any(c.kind == _C for c in conds):
            return _const(True)
        if len(conds) == 1:
            return conds[0]
        kind = _join(*conds)
        code = " | ".join(c.code for c in conds)
        return _V(f"({code})", _S) if kind == _S else self.let(code, kind, "b")

    def negate(self, a) -> _V:
        if a.kind == _C:
            return _const(not a.value)
        if a.kind == _S:
            return _V(f"(not {a.code})", _S)
        return self.let(f"_nnot({a.code})", _N, "b")

    def nonint(self, b) -> _V:
        if b.kind == _C or b.value is not None:
            v = b.value
            bad = np.logical_not(np.isfinite(v) & (v == np.floor(v)))
            if b.kind == _C or bad.all() or not bad.any():
                return _const(np.all(bad))
            return self.glob("M", bad)
        if b.kind == _S:
            return _V(f"(not (_isfinite({b.code}) and {b.code} == _floor({b.code})))", _S)
        return self.let(f"_nnot(_nisfinite({b.code}) & ({b.code} == _nfloor({b.code})))",
                        _N, "b")

    def check(self, bad, node, message):
        """Fail where `bad` holds: raise _Fail with the lanes it holds on."""
        if bad.kind == _C:
            if bad.value:
                self.put([f"raise _Fail({self.site(node, message)})"])
            return
        site = self.site(node, message)
        if bad.kind == _S:
            self.put([f"if {bad.code}:", f"    raise _Fail({site})"])
        else:
            self.put([f"if {bad.code}.any():", f"    raise _Fail({site}, {bad.code})"])

    def finite(self, node, v, *operands) -> _V:
        """On lanes: fail where finite operands gave an infinite v."""
        terms = [f"_nisinf({v.code})"]
        for a in operands:
            if a.kind != _C:
                terms.append(f"_nisfinite({a.code})")
            elif not math.isfinite(a.value):
                return v
        self.check(self.let(" & ".join(terms), _N, "b"), node, "overflow")
        return v

    def power(self, node, a, b) -> _V:
        if not self.lanes:
            return self.guarded(f"{a.code} ** {b.code}", node, "OverflowError")
        return self.finite(node, self.let(f"_npow({a.code}, {b.code})", _N), a, b)

    # gradients: a map from column to operand, an absent column a structural
    # zero; the empty map is the zero gradient

    def g_neg(self, g):
        return {j: self.neg(c) for j, c in g.items()}

    def g_plus(self, a, b, op="+"):
        """a + b, or a - b for op "-": a column of one map alone is its operand,
        negated if it is b's under "-"."""
        out = dict(a)
        for j, c in b.items():
            if j in a:
                out[j] = self.arith(op, a[j], c)
            else:
                out[j] = self.neg(c) if op == "-" else c
        return out

    def g_scale(self, v, g):
        return {j: self.arith("*", v, c) for j, c in g.items()}

    def g_over(self, g, d):
        return {j: self.arith("/", c, d) for j, c in g.items()}

    # nodes

    def node(self, node, args):
        """(value, gradient) of a node from its operands' (value, gradient)."""
        if isinstance(node, Neg):
            (a, g), = args
            return self.neg(a), self.g_neg(g)
        if isinstance(node, BinOp) and node.op in "+-*":
            (a, ag), (b, bg) = args
            if node.op == "+":
                return self.arith("+", a, b), self.g_plus(ag, bg)
            if node.op == "-":
                return self.arith("-", a, b), self.g_plus(ag, bg, "-")
            return self.arith("*", a, b), self.g_plus(self.g_scale(a, bg), self.g_scale(b, ag))
        key = node.op if isinstance(node, BinOp) else node.name
        if key == "/":
            return self.divide(node, *args)
        if key in ("^", "pow"):
            return self.pow(node, *args)
        if key == "floor":
            (a, _), = args
            self.check(self.negate(_V(f"_isfinite({a.code})", _S)), node,
                       "floor of a non-finite value")
            return self.let(f"float(_floor({a.code}))", _S), {}
        if key == "mod":
            (a, _), (b, _) = args
            self.check(self.compare(b, "==", 0.0), node, "mod by zero")
            return self.let(f"{a.code} % {b.code}", _S), {}
        (a, g), = args
        return getattr(self, "f_" + key)(node, a, g)

    def divide(self, node, left, right):
        (a, ag), (b, bg) = left, right
        self.check(self.compare(b, "==", 0.0), node, "division by zero")
        value = self.arith("/", a, b)
        if not ag and not bg:            # no derivative to overflow
            return value, {}
        numerator = self.g_plus(self.g_scale(b, ag), self.g_scale(a, bg), "-")
        d = self.arith("*", b, b)
        self.check(self.compare(d, "==", 0.0), node, "overflow")     # b*b underflowed
        return value, self.g_over(numerator, d)

    def pow(self, node, left, right):
        (a, ag), (b, bg) = left, right
        zero_neg = self.both(self.compare(a, "==", 0.0), self.compare(b, "<", 0.0))
        neg_frac = self.both(self.compare(a, "<", 0.0), self.nonint(b))
        self.check(zero_neg, node, "zero raised to a negative power")
        self.check(neg_frac, node, "negative base with non-integer exponent")
        if a.kind == _S and _N in (zero_neg.kind, neg_frac.kind):
            # a scalar base checked on lanes enters as lanes (the checks
            # passed, so it is `a` on each): numpy's power rounds a scalar
            # operand differently
            a = self.let(f"_nwhere({self.either(zero_neg, neg_frac).code}, 1.0, {a.code})", _N)
        value = self.power(node, a, b)
        if not ag and not bg:
            return value, {}
        if bg:                           # the exponent reads x: the log rule
            self.check(self.compare(a, "<=", 0.0), node,
                       "non-constant exponent needs a positive base")
            pos = self.select(self.compare(a, ">", 0.0), a, _ONE)
            log = self.call("log", pos)
            return value, self.g_scale(value, self.g_plus(
                self.g_scale(log, bg), self.g_over(self.g_scale(b, ag), pos)))
        zero = self.compare(a, "==", 0.0)
        self.check(self.both(zero, self.negate(self.either(
            self.compare(b, "==", 1.0), self.compare(b, ">", 1.0), self.compare(b, "==", 0.0)))),
            node, "derivative of x^b unbounded at x=0 for 0<b<1")
        coef = self.select(zero, self.select(self.compare(b, "==", 1.0), _ONE, _ZERO),
                           self.arith("*", b, self.power(node, self.select(zero, _ONE, a),
                                                         self.arith("-", b, _ONE))))
        return value, self.g_scale(coef, ag)

    # Without a gradient, the derivative's sin or cos is not evaluated: it
    # fails exactly where the value's cos or sin already has.

    def f_sin(self, node, a, g):
        return self.call("sin", a, node), g and self.g_scale(self.call("cos", a, node), g)

    def f_cos(self, node, a, g):
        return self.call("cos", a, node), g and self.g_scale(self.neg(self.call("sin", a, node)), g)

    def f_tan(self, node, a, g):
        t = self.call("tan", a, node)
        return t, g and self.g_scale(self.arith("+", _ONE, self.arith("*", t, t)), g)

    def f_exp(self, node, a, g):
        if self.lanes:
            e = self.finite(node, self.let(f"_nexp({a.code})", _N), a)
        else:
            e = self.call("exp", a, node)
        return e, self.g_scale(e, g)

    def f_log(self, node, a, g):
        self.check(self.compare(a, "<=", 0.0), node, "log of a non-positive value")
        return self.call("log", a), self.g_over(g, a)

    def f_sqrt(self, node, a, g):
        self.check(self.compare(a, "<", 0.0), node, "sqrt of a negative value")
        if not g:
            return self.call("sqrt", a), {}
        self.check(self.compare(a, "==", 0.0), node, "sqrt derivative at zero")
        s = self.call("sqrt", a)
        return s, self.g_over(g, self.arith("*", _const(2.0), s))

    def f_abs(self, node, a, g):
        value = self.let(f"abs({a.code})", a.kind)
        if not g:
            return value, {}
        kink = self.compare(a, "==", 0.0)
        sign = self.let(f"_{'n' if self.lanes else ''}copysign(1.0, {a.code})",
                        _N if self.lanes else _S)
        return value, self.g_scale(self.select(kink, _ZERO, sign), g)


def _analyse(asts):
    """Per component: the nodes to emit in evaluation order, their deps,
    and the roots of the subtrees free of x, folded when a vector is bound."""
    comps = []
    for ast in asts:
        order = _postorder(ast.root)
        deps = {}
        for node in order:
            d = _X if isinstance(node, Var) else _I if isinstance(node, Param) else 0
            for child in _children(node):
                d |= deps[id(child)]
            deps[id(node)] = d
        roots = [] if deps[id(ast.root)] & _X else [ast.root]
        for node in order:
            if deps[id(node)] & _X:
                roots += [c for c in _children(node) if not deps[id(c)] & _X]
        comps.append((order, deps, roots))
    return comps


class _Family:
    """Generated evaluators of m expressions over one point x: their values
    (p, m) and their Jacobians (p, m, n).  Subtrees free of x have no
    gradient, so the two share their folds."""

    def __init__(self, asts, n, filename=None):
        self.asts, self.n, self.filename = asts, n, filename
        self.comps = _analyse(asts)
        self.ns = dict(_RUNTIME)
        # one function `fold<j>(i)` per subtree free of x, compiled once; the
        # constants among them (free of i as well) are evaluated once
        em = _Emitter(self.ns)
        consts, folds = [], []
        for c, (_, deps, roots) in enumerate(self.comps):
            em.component = c
            for root in roots:
                start = len(em.stmts)
                results = {}
                for node in _postorder(root):
                    if isinstance(node, Const):
                        results[id(node)] = (_V(repr(node.value), _S) if math.isfinite(node.value)
                                             else _const(node.value)), {}
                    elif isinstance(node, Param):
                        results[id(node)] = _V("i", _S), {}
                    else:
                        args = [results[id(ch)] for ch in _children(node)]
                        results[id(node)] = em.node(node, args)
                value = results[id(root)][0].code
                body = em.program(4, start, reads=value)
                del em.stmts[start:]
                (folds if deps[id(root)] else consts).append((root, body, value))
        src = []
        for j, (root, body, value) in enumerate(folds + consts):
            src += [f"def fold{j}(i):"] + body + [f"    return {value}"]
        filename = f"<{self.filename or 'setopt.expr'}: folds>"
        exec(compile("\n".join(src) + "\n", filename, "exec"), self.ns)
        fns = [(id(root), self.ns[f"fold{j}"]) for j, (root, _, _) in enumerate(folds + consts)]
        self.folds = fns[:len(folds)]
        self.consts = {}
        for key, fn in fns[len(folds):]:
            (value,), fail = _fold_lanes(fn, [None])
            self.consts[key] = value, fail

    def bind(self, lanes: list, functions=("values", "jacobians")):
        """The evaluators x -> result named in `functions` for the index
        vector `lanes` (a list), generated from one fold of the lanes."""
        folded = dict(self.consts)
        floats = [float(i) for i in lanes]
        for key, fn in self.folds:
            values, fail = _fold_lanes(fn, floats)
            folded[key] = np.array(values, dtype=float), fail
        return tuple(self._emit(lanes, folded, function) for function in functions)

    def _emit(self, lanes, folded, function):
        """The generated function "values" or "jacobians" over the lanes."""
        jacobians = function == "jacobians"
        em = _Emitter(dict(self.ns))
        p, m, n = len(lanes), len(self.asts), self.n
        em.put(["xs = x.tolist()"])
        for j in range(n):
            em.put([f"x{j} = xs[{j}]"], [f"x{j}"], pure=True)
        outputs = []
        for c, (order, deps, roots) in enumerate(self.comps):
            em.component = c
            results = {}
            fold_roots = {id(root) for root in roots}
            for node in order:
                d = deps[id(node)]
                if id(node) in fold_roots:                # where the walk meets it
                    results[id(node)] = self._folded(em, *folded[id(node)]), {}
                elif isinstance(node, Var):
                    results[id(node)] = _V(f"x{node.index - 1}", _S), (
                        {node.index - 1: _ONE} if jacobians else {})
                elif d & _X:
                    em.lanes = d == _XI
                    args = [results[id(ch)] for ch in _children(node)]
                    if em.lanes:
                        # a constant enters lanes as a vector, as a fold does:
                        # numpy's power rounds a scalar operand differently
                        args = [(self._lanes(em, v, p), g) for v, g in args]
                    results[id(node)] = em.node(node, args)
            outputs.append(results[id(self.asts[c].root)])
        self._outputs(em, outputs, p, m, n, jacobians)
        src = [f"def {function}(x):", "    try:"] + em.program(8)
        src += ["    except _Fail as fail:", "        _raise(fail, x)",
                f"    return {'J' if jacobians else 'out'}"]
        src = "\n".join(src) + "\n"
        filename = f"<{self.filename or 'setopt.expr'}: {function}>"
        if self.filename is not None:
            linecache.cache[filename] = (len(src), None, src.splitlines(True), filename)
        ns = em.ns
        ns["_raise"] = lambda fail, x: self._raise(lanes, function, fail, x)
        exec(compile(src, filename, "exec"), ns)
        return ns[function]

    def _raise(self, lanes, function, fail, x):
        """Raise the DomainError of the first failed check at x, whose lowest
        failing lane k failed there first.  A lower lane may fail at a later
        check, so lanes[:k] are evaluated first, by `function` alone, and
        raise if one does."""
        k = int(np.argmax(fail.bad))
        if k:
            lower = copy.copy(self)
            lower.filename = None          # keeps the linecache entry of `lanes`
            lower.bind(lanes[:k], (function,))[0](x)
        component, line, column, message = fail.site
        exc = DomainError(message, line, column)
        exc.index = lanes[k]
        exc.args = (f"f^{exc.index} component {component + 1}: {exc}",)
        raise exc from None

    @staticmethod
    def _lanes(em, v, p) -> _V:
        if v.kind != _C:
            return v
        values = np.full(p, v.value)
        return em.glob("F", values, _N, values)

    @staticmethod
    def _folded(em, values, fail) -> _V:
        """A folded subtree as an operand, or its failure raised."""
        if fail is not None:
            em.put([f"raise _Fail({em.glob('S', fail.site).code}, {em.glob('M', fail.bad).code})"])
            return _const(math.nan)
        if isinstance(values, float):
            return _const(values)
        return em.glob("F", values, _N, values)

    @staticmethod
    def _outputs(em, outputs, p, m, n, jacobians):
        if not jacobians:
            em.put([f"out = _empty(({p}, {m}))"])
            for c, (value, _) in enumerate(outputs):
                em.put([f"out[:, {c}] = {value.code}"])
            return
        em.put([f"J = _zeros(({p}, {m}, {n}))"])
        for c, (_, g) in enumerate(outputs):
            em.put([f"J[:, {c}, {j}] = {a.code}" for j, a in sorted(g.items())])


def generate(asts, n: int, index, filename=None):
    """Generated (values, jacobians) of a problem file's m expressions over
    the family indices `index`: x -> (p, m) and x -> (p, m, n).

    A failed domain check raises DomainError at the failing node's
    line:column, for the lowest failing index (`index`), then the lowest
    component, as "f^i component c: line:column: message".  With a
    `filename`, the generated source is registered in `linecache` under a
    name that contains it, for tracebacks and profiles.
    """
    return _Family(asts, n, filename).bind(np.asarray(index).tolist())


@np.errstate(over="ignore", invalid="ignore")   # overflow on lanes is inf, as in scalars
def _evaluate(ast, x, i, dual):
    x = np.asarray(x, dtype=float).ravel()
    if x.shape[0] != ast.n:
        raise DomainError(f"x has length {x.shape[0]}, expected {ast.n}")
    iv = np.asarray(i)
    scalar = iv.ndim == 0
    iv = iv.reshape(-1)
    if iv.shape[0] == 0:
        empty = np.empty(0)
        return DualNumber(empty, np.zeros((0, ast.n)), np.zeros(0, dtype=bool)) if dual else empty
    key = (iv.dtype.str, iv.tobytes())
    cached = ast.families.get(dual)
    if cached is None or cached[0] != key:
        # for the nondifferentiable flag: a column per `abs` argument
        abs_args = [ExprAst(node.args[0], ast.n) for node in _postorder(ast.root)
                    if dual and isinstance(node, Call) and node.name == "abs"]
        cached = ast.families[dual] = key, _Family([ast] + abs_args, ast.n).bind(
            iv.tolist(), ("values", "jacobians") if dual else ("values",))
    if not dual:
        out = cached[1][0](x)[:, 0]
        return float(out[0]) if scalar else out
    values, jacobians = cached[1]
    J = jacobians(x)[:, 0]      # first: its checks hold every check of `values`
    out = values(x)
    kinks = (out[:, 1:] == 0.0).any(axis=1)
    if scalar:
        return DualNumber(float(out[0, 0]), J[0], bool(kinks[0]))
    return DualNumber(out[:, 0], J, kinks)


def eval(ast: ExprAst, x, i):  # noqa: A001 - spec operation name
    """Evaluate at x with family index i: the values function of
    `generate([ast], ast.n, i)`, generated alone.

    An int i gives a float; an index array gives one value per index.  A
    failed domain check raises `generate`'s DomainError, "f^i component 1:
    line:column: message", with the first failing index as its `index`.
    """
    return _evaluate(ast, x, i, False)


def eval_dual(ast: ExprAst, x, i) -> DualNumber:
    """Evaluate with the exact gradient with respect to x (i as in `eval`):
    the Jacobian function of `generate`, then its values function, whose
    checks the Jacobian's include.

    `abs` at exactly 0 returns derivative 0 instead of failing.  Every `abs`
    argument is generated as one more expression; the nondifferentiable
    flag is set where one of them is 0.0.
    """
    return _evaluate(ast, x, i, True)
