"""Problem definitions: built-in benchmark families and the file loader.

A problem is a finite family of p smooth vector functions R^n -> R^m ordered
by a polyhedral cone.  The seven built-ins are the shipped problem files
under `problems/`.  Loading a file generates code from its expressions, one
call for all m components and p family indices (see `expr.generate`); a
`ProblemSpec` may also be built by hand from two callables.
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


def _call(fn, x, what):
    """fn(x), with an arithmetic failure (overflow, division by zero), a numpy
    RuntimeWarning raised as an error, or a non-finite entry of the result typed."""
    try:
        out = fn(x)
    except (ArithmeticError, RuntimeWarning) as exc:
        raise DomainError(f"{type(exc).__name__}: {exc}") from exc
    if not np.isfinite(out).all():
        i = int(np.argwhere(~np.isfinite(out))[0, 0]) + 1
        err = DomainError(f"{what} of f^{i} is not finite at x = {x}")
        err.index = i
        raise err
    return out


def eval_F(ps: ProblemSpec, x) -> np.ndarray:
    """All p image vectors at x, index-aligned: row i-1 is f^i(x)."""
    x = np.asarray(x, dtype=float).ravel()
    if x.shape[0] != ps.n:
        raise DomainError(f"x has length {x.shape[0]}, expected {ps.n}")
    return _call(ps.values_fn, x, "the value")


def eval_jacobians(ps: ProblemSpec, x) -> np.ndarray:
    """All p Jacobians (m x n each) at x, index-aligned as in eval_F: (p, m, n)."""
    x = np.asarray(x, dtype=float).ravel()
    if x.shape[0] != ps.n:
        raise DomainError(f"x has length {x.shape[0]}, expected {ps.n}")
    return _call(ps.jacobians_fn, x, "the Jacobian")


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
    return c.A_scaled @ J


# --- built-in families -----------------------------------------------------

def builtin(name: str) -> ProblemSpec:
    """One of the seven built-in benchmark problems, loaded from its shipped
    problem file."""
    return load(builtin_file(name))


def builtin_file(name: str) -> str:
    """Path to the shipped problem file of a built-in (ex1..ex7), in the package
    this module was imported from, under whatever name."""
    if name not in BUILTIN_NAMES:
        raise UnknownProblem(f"unknown problem {name!r}; choose from {', '.join(BUILTIN_NAMES)}")
    return str(resources.files(__package__).joinpath(f"problems/{name}.prob"))


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
    section, seen = None, set()
    expect_rows = 0

    for no, text in lines:
        if text.startswith("["):
            header, _, rest = text.partition("]")
            section = header[1:].strip()
            if section in seen:
                raise FormatError(f"duplicate section [{section}]", section, no)
            seen.add(section)
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

    try:
        index = np.arange(1, p + 1)
    except (MemoryError, ValueError):   # numpy cannot hold p indices
        raise FormatError(f"p={p} is too large: cannot build the index vector 1..p",
                          "meta") from None
    values, jacobians = expr_mod.generate(asts, n, index, path)
    return ProblemSpec(name, n, m, p, K, np.asarray(box_rows, dtype=float), values, jacobians)


def get(name_or_path: str) -> ProblemSpec:
    """Resolve a problem reference: a built-in name or a file path."""
    if name_or_path in BUILTIN_NAMES:
        return builtin(name_or_path)
    import os
    if os.path.exists(name_or_path):
        return load(name_or_path)
    raise UnknownProblem(f"unknown problem {name_or_path!r} (not a built-in, not a file)")
