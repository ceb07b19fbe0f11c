"""Problem definitions: built-in benchmark families and the file loader.

A problem is a finite family of p smooth vector functions R^n -> R^m ordered
by a polyhedral cone.  Built-ins carry hand-coded analytic Jacobians; loaded
problems evaluate compiled expressions with dual-number derivatives, one call
per image component for all p family indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from typing import Callable

import numpy as np

from . import cone as cone_mod
from . import expr as expr_mod
from .cone import ConeSpec
from .errors import DomainError, FormatError, UnknownProblem

BUILTIN_NAMES = ("ex1", "ex2", "ex3", "ex4", "ex5", "ex6", "ex7")


@dataclass(frozen=True)
class ProblemSpec:
    name: str
    n: int
    m: int
    p: int
    cone: ConeSpec
    sample_box: np.ndarray                      # (n, 2) rows of (lo, hi)
    values_fn: Callable[[np.ndarray], np.ndarray]     # x -> (p, m)
    jacobians_fn: Callable[[np.ndarray], np.ndarray]  # x -> (p, m, n)


def _call(fn, x):
    """fn(x), with an arithmetic failure (overflow, division by zero) typed."""
    try:
        return fn(x)
    except ArithmeticError as exc:
        raise DomainError(f"{type(exc).__name__}: {exc}") from exc


def eval_F(ps: ProblemSpec, x) -> np.ndarray:
    """All p image vectors at x, index-aligned: row i-1 is f^i(x)."""
    x = np.asarray(x, dtype=float).ravel()
    if x.shape[0] != ps.n:
        raise DomainError(f"x has length {x.shape[0]}, expected {ps.n}")
    return _call(ps.values_fn, x)


def eval_jacobians(ps: ProblemSpec, x) -> np.ndarray:
    """All p Jacobians (m x n each) at x, index-aligned as in eval_F: (p, m, n)."""
    x = np.asarray(x, dtype=float).ravel()
    if x.shape[0] != ps.n:
        raise DomainError(f"x has length {x.shape[0]}, expected {ps.n}")
    return _call(ps.jacobians_fn, x)


@dataclass(frozen=True)
class ScalarizedComponents:
    """Cone-row expansion of a problem.

    For each function i and cone row q, h^{i,q}(x) = (A f^i(x))_q / (Ae)_q,
    so that max_q h^{i,q}(x) equals the scalarizing functional of f^i(x).
    """

    ps: ProblemSpec

    @property
    def cone(self) -> ConeSpec:
        return self.ps.cone

    def values(self, x) -> np.ndarray:
        """(p, Q) array of h^{i,q}(x)."""
        F = eval_F(self.ps, x)
        c = self.cone
        return (F @ c.A.T) / c.Ae

    def gradients(self, x) -> np.ndarray:
        """(p, Q, n) array of grad h^{i,q}(x)."""
        return scalarized_gradients(self.cone, eval_jacobians(self.ps, x))


def scalarized_gradients(c: ConeSpec, J) -> np.ndarray:
    """Map Jacobians (p, m, n) to the (p, Q, n) gradients of every h^{i,q}."""
    # (A @ J_i) scaled per row by 1/(Ae)_q
    return np.einsum("qm,imn->iqn", c.A, J) / c.Ae[None, :, None]


def scalarize(ps: ProblemSpec) -> ScalarizedComponents:
    return ScalarizedComponents(ps)


# --- built-in families -----------------------------------------------------

def _box(*pairs):
    return np.asarray(pairs, dtype=float)


def _make_ex1():
    p = 50
    th = 2.0 * np.pi * np.arange(p) / 50.0

    def values(x):
        t = x[0]
        return np.column_stack([
            t * math.exp(t) + np.sin(th),
            2.0 * t * math.cos(2.0 * t) + np.cos(th),
        ])

    def jacobians(x):
        t = x[0]
        J = np.empty((p, 2, 1))
        J[:, 0, 0] = (1.0 + t) * math.exp(t)
        J[:, 1, 0] = 2.0 * math.cos(2.0 * t) - 4.0 * t * math.sin(2.0 * t)
        return J

    return ProblemSpec("ex1", 1, 2, p, cone_mod.nonnegative_orthant(2),
                       _box((-5.0, 5.0)), values, jacobians)


def _make_ex2():
    p = 30
    th = 2.0 * np.pi * np.arange(p) / 30.0

    def values(x):
        t = x[0]
        return np.column_stack([
            0.27 * np.sin(th) * np.cos(th) + t * t,
            math.cos(2.0 * t) + 1.0 / (1.0 + math.exp(2.0 * t)) + 0.27 * np.cos(th),
            0.27 * t * t + np.arange(p) / 30.0,
        ])

    def jacobians(x):
        t = x[0]
        e2 = math.exp(2.0 * t)
        J = np.empty((p, 3, 1))
        J[:, 0, 0] = 2.0 * t
        J[:, 1, 0] = -2.0 * math.sin(2.0 * t) - 2.0 * e2 / (1.0 + e2) ** 2
        J[:, 2, 0] = 0.54 * t
        return J

    return ProblemSpec("ex2", 1, 3, p, cone_mod.nonnegative_orthant(3),
                       _box((-5.0, 5.0)), values, jacobians)


def _make_ex3():
    p = 25
    th = 2.0 * np.pi * np.arange(p) / 100.0
    off1 = np.cos(th) * np.sin(th) ** 2
    off2 = np.cos(th) ** 2 * np.sin(th)

    def values(x):
        x1, x2 = x
        return np.column_stack([
            x1 * x1 + math.cos(x2) + off1 + x2 * x2,
            2.0 * x1 * x1 + math.sin(x1) + off2 + 2.0 * x2 * x2,
        ])

    def jacobians(x):
        x1, x2 = x
        J = np.empty((p, 2, 2))
        J[:, 0, 0] = 2.0 * x1
        J[:, 0, 1] = -math.sin(x2) + 2.0 * x2
        J[:, 1, 0] = 4.0 * x1 + math.cos(x1)
        J[:, 1, 1] = 4.0 * x2
        return J

    return ProblemSpec("ex3", 2, 2, p, cone_mod.nonnegative_orthant(2),
                       _box((-5.0, 5.0), (-5.0, 5.0)), values, jacobians)


def _make_ex4():
    p = 10
    th = 2.0 * np.pi * np.arange(p) / 20.0

    def values(x):
        x1, x2 = x
        e1, e2 = math.exp(x1), math.exp(x2)
        return np.column_stack([
            e1 + np.sin(th) + e2,
            2.0 * e1 + np.cos(th) + 2.0 * e2,
            x1 * x1 + np.arange(p) / 20.0 + x2 * x2,
        ])

    def jacobians(x):
        x1, x2 = x
        e1, e2 = math.exp(x1), math.exp(x2)
        J = np.empty((p, 3, 2))
        J[:, 0, 0] = e1
        J[:, 0, 1] = e2
        J[:, 1, 0] = 2.0 * e1
        J[:, 1, 1] = 2.0 * e2
        J[:, 2, 0] = 2.0 * x1
        J[:, 2, 1] = 2.0 * x2
        return J

    return ProblemSpec("ex4", 2, 3, p, cone_mod.nonnegative_orthant(3),
                       _box((-4.0, 3.0), (-4.0, 3.0)), values, jacobians)


def _make_ex5():
    p = 4
    i = np.arange(1, p + 1)
    K = cone_mod.validate([[6.0, -2.0], [-7.0, 10.0]], [1.0, 1.0])

    def values(x):
        t = x[0]
        s = math.sin(t)
        return np.column_stack([
            2.0 * t * t + math.exp(t) + (i - 3.0) / 2.0,
            (t / 2.0) * math.cos(t) + (3.0 - i) / 2.0 * s * s,
        ])

    def jacobians(x):
        t = x[0]
        s, c = math.sin(t), math.cos(t)
        J = np.empty((p, 2, 1))
        J[:, 0, 0] = 4.0 * t + math.exp(t)
        J[:, 1, 0] = c / 2.0 - (t / 2.0) * s + (3.0 - i) * s * c
        return J

    return ProblemSpec("ex5", 1, 2, p, K, _box((2.3350, 4.4010)), values, jacobians)


def _make_ex6():
    p = 100
    th = 2.0 * np.pi * np.arange(p) / 100.0
    off1 = 0.25 * np.cos(th) * np.sin(th) ** 2
    off2 = 0.25 * np.cos(th) ** 2 * np.sin(th)
    # e = (1,1) is not interior for this cone; (-1,-0.5) is.
    K = cone_mod.validate([[2.0, -6.0], [-6.0, 7.0]], [-1.0, -0.5])

    def values(x):
        x1, x2 = x
        e12 = math.exp(x1 + x2)
        return np.column_stack([
            x1 * x1 + math.sin(x1) + x1 * x1 * math.cos(x2) + off1 + e12 + x2 * x2,
            2.0 * x1 * x1 + x2 * x2 * math.cos(x1) + off2 + math.cos(x2) + e12 + 2.0 * x2 * x2,
        ])

    def jacobians(x):
        x1, x2 = x
        e12 = math.exp(x1 + x2)
        J = np.empty((p, 2, 2))
        J[:, 0, 0] = 2.0 * x1 + math.cos(x1) + 2.0 * x1 * math.cos(x2) + e12
        J[:, 0, 1] = -x1 * x1 * math.sin(x2) + e12 + 2.0 * x2
        J[:, 1, 0] = 4.0 * x1 - x2 * x2 * math.sin(x1) + e12
        J[:, 1, 1] = 2.0 * x2 * math.cos(x1) - math.sin(x2) + e12 + 4.0 * x2
        return J

    return ProblemSpec("ex6", 2, 2, p, K,
                       _box((-math.pi, math.pi), (-math.pi, math.pi)), values, jacobians)


def uncertainty_grid() -> np.ndarray:
    """The (100, 2) grid of shifts used by the facility-location family."""
    pts = -1.0 + 2.0 * np.arange(10) / 9.0
    a, b = np.meshgrid(pts, pts, indexing="ij")
    return np.column_stack([a.ravel(), b.ravel()])


def _make_ex7():
    p = 100
    anchors = np.asarray([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0]])
    shifts = uncertainty_grid()
    # centers[i, r, :] = l_r + u_i
    centers = anchors[None, :, :] + shifts[:, None, :]

    def values(x):
        d = x[None, None, :] - centers
        return 0.5 * np.sum(d * d, axis=2)

    def jacobians(x):
        return x[None, None, :] - centers

    return ProblemSpec("ex7", 2, 3, p, cone_mod.nonnegative_orthant(3),
                       _box((-50.0, 50.0), (-50.0, 50.0)), values, jacobians)


_BUILTIN_FACTORIES = {
    "ex1": _make_ex1, "ex2": _make_ex2, "ex3": _make_ex3, "ex4": _make_ex4,
    "ex5": _make_ex5, "ex6": _make_ex6, "ex7": _make_ex7,
}


def builtin(name: str) -> ProblemSpec:
    """One of the seven built-in benchmark problems."""
    try:
        return _BUILTIN_FACTORIES[name]()
    except KeyError:
        raise UnknownProblem(f"unknown problem {name!r}; choose from {', '.join(BUILTIN_NAMES)}") from None


def builtin_file(name: str) -> str:
    """Path to the shipped problem-file encoding of a built-in (ex1..ex7)."""
    if name not in BUILTIN_NAMES:
        raise UnknownProblem(f"no problem file for {name!r}")
    return str(resources.files("setopt").joinpath(f"problems/{name}.prob"))


# --- problem-file loader ----------------------------------------------------

def _strip(line: str) -> str:
    cut = line.find("#")
    if cut >= 0:
        line = line[:cut]
    return line.strip()


def _number(text: str, kind, section: str, lineno):
    """int(text) or float(text), with a malformed token reported as a FormatError."""
    try:
        return kind(text)
    except ValueError:
        raise FormatError(f"expected {'an integer' if kind is int else 'a decimal'}, "
                          f"got {text!r}", section, lineno) from None


def _numbers(text: str, section: str, lineno: int) -> list:
    values = [_number(v, float, section, lineno) for v in text.split()]
    if not all(map(math.isfinite, values)):
        raise FormatError(f"expected finite decimals, got {text!r}", section, lineno)
    return values


def _parse_meta(text: str, lineno: int) -> dict:
    out = {}
    for part in text.split():
        if "=" not in part:
            raise FormatError(f"expected key=value, got {part!r}", "meta", lineno)
        key, val = part.split("=", 1)
        out[key] = val
    return out


def load(path: str) -> ProblemSpec:
    """Load a problem from a text file (see the file-format docs in README)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.readlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"not UTF-8 text ({exc.reason} at byte {exc.start})") from None

    lines = [(k + 1, _strip(s)) for k, s in enumerate(raw)]
    lines = [(no, s) for no, s in lines if s]

    meta = None
    cone_rows, cone_e, cone_line = None, None, None
    box_rows = []
    exprs = []
    section = None
    expect_rows = 0

    for no, text in lines:
        if text.startswith("["):
            header, _, rest = text.partition("]")
            section = header[1:].strip()
            rest = rest.strip()
            if section == "meta":
                meta = _parse_meta(rest, no)
            elif section == "cone":
                opts = _parse_meta(rest, no)
                if "rows" not in opts:
                    raise FormatError("cone section needs rows=<Q>", "cone", no)
                expect_rows = _number(opts["rows"], int, "cone", no)
                cone_rows, cone_line = [], no
            elif section in ("box", "functions"):
                if rest:
                    raise FormatError(f"unexpected text after [{section}]", section, no)
            else:
                raise FormatError(f"unknown section [{section}]", section, no)
            continue
        if section == "meta":
            meta.update(_parse_meta(text, no))
        elif section == "cone":
            if text.startswith("e="):
                cone_e = _numbers(text[2:], "cone", no)
            else:
                if len(cone_rows) >= expect_rows:
                    raise FormatError("more cone rows than declared", "cone", no)
                cone_rows.append((_numbers(text, "cone", no), no))
        elif section == "box":
            vals = _numbers(text, "box", no)
            if len(vals) != 2:
                raise FormatError("box lines are 'lo hi'", "box", no)
            box_rows.append(tuple(vals))
        elif section == "functions":
            exprs.append((no, text))
        else:
            raise FormatError(f"text outside any section: {text!r}", None, no)

    if meta is None:
        raise FormatError("missing [meta] section")
    try:
        name = meta["name"]
        n, m, p = (_number(meta[key], int, "meta", None) for key in ("n", "m", "p"))
    except KeyError as exc:
        raise FormatError(f"meta is missing {exc.args[0]}", "meta") from None
    if p < 1 or n < 1 or m < 1:
        raise FormatError(f"need n, m, p >= 1 (got n={n}, m={m}, p={p})", "meta")

    if cone_rows is None:
        K = cone_mod.nonnegative_orthant(m)
    else:
        if len(cone_rows) != expect_rows:
            raise FormatError(f"declared rows={expect_rows} but found {len(cone_rows)}",
                              "cone", cone_line)
        for row, no in cone_rows:
            if len(row) != m:
                raise FormatError(f"cone row has {len(row)} entries, expected {m}", "cone", no)
        if cone_e is None or len(cone_e) != m:
            raise FormatError("cone section needs an 'e=' line of m decimals", "cone", cone_line)
        try:
            K = cone_mod.validate([row for row, _ in cone_rows], cone_e)
        except Exception as exc:
            exc.args = (f"line {cone_line}: {exc}",)
            raise

    if len(box_rows) != n:
        raise FormatError(f"box has {len(box_rows)} lines, expected n={n}", "box")
    if len(exprs) != m:
        raise FormatError(f"functions section has {len(exprs)} lines, expected m={m}", "functions")

    asts = []
    for no, src in exprs:
        try:
            asts.append(expr_mod.parse(src, n))
        except Exception as exc:
            exc.args = (f"line {no}: {exc}",)
            raise

    index = np.arange(1, p + 1)

    def per_component(evaluate, out):
        """out[:, c] = evaluate(component c) over all i; a domain error names
        the lowest failing i, then the lowest component."""
        first = None
        for comp, ast in enumerate(asts):
            try:
                out[:, comp] = evaluate(ast)
            except DomainError as exc:
                if first is None or exc.index < first[0].index:
                    first = exc, comp
        if first is not None:
            exc, comp = first
            exc.args = (f"f^{exc.index} component {comp + 1}: {exc}",)
            raise exc
        return out

    def values(x):
        return per_component(lambda ast: expr_mod.eval(ast, x, index), np.empty((p, m)))

    def jacobians(x):
        return per_component(lambda ast: expr_mod.eval_dual(ast, x, index).derivatives,
                             np.empty((p, m, n)))

    return ProblemSpec(name, n, m, p, K, np.asarray(box_rows, dtype=float), values, jacobians)


def get(name_or_path: str) -> ProblemSpec:
    """Resolve a problem reference: a built-in name or a file path."""
    if name_or_path in _BUILTIN_FACTORIES:
        return builtin(name_or_path)
    import os
    if os.path.exists(name_or_path):
        return load(name_or_path)
    raise UnknownProblem(f"unknown problem {name_or_path!r} (not a built-in, not a file)")
