"""Exception types shared across the package."""


class SetoptError(Exception):
    """Base class for all library errors."""


# --- cone / order errors ---

class DimensionMismatch(SetoptError):
    pass


class RankDeficient(SetoptError):
    pass


class NotInterior(SetoptError):
    pass


class EmptyMatrix(SetoptError):
    pass


class EmptyInput(SetoptError):
    pass


# --- expression language errors ---

class ExprError(SetoptError):
    """Base for expression errors; carries a 1-based line:column position."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{line}:{column}: {message}"
        super().__init__(message)


class LexError(ExprError):
    pass


class ParseError(ExprError):
    pass


class UnknownIdentifier(ExprError):
    pass


class VariableOutOfRange(ExprError):
    pass


class DomainError(ExprError):
    """A failed domain check during evaluation."""

    index = None   # the family index i it failed at; set by `expr.eval`/`eval_dual`


# --- problem errors ---

class UnknownProblem(SetoptError):
    pass


class FormatError(SetoptError):
    def __init__(self, message, section=None, line=None):
        self.section = section
        self.line = line
        prefix = ""
        if section is not None:
            prefix += f"[{section}] "
        if line is not None:
            prefix += f"line {line}: "
        super().__init__(prefix + message)


# --- numerical errors ---

class NumericalBreakdown(SetoptError):
    pass


class SingularSystem(SetoptError):
    pass


class LineSearchFailure(SetoptError):
    def __init__(self, message, violating_component=None):
        self.violating_component = violating_component
        super().__init__(message)


# --- oracle errors ---

class GridTooLarge(SetoptError):
    pass


class BracketFailure(SetoptError):
    pass
