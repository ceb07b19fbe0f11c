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


class NonFiniteInput(SetoptError):
    """An image set, a cone matrix or an interior direction holds inf or nan,
    where the order is undefined."""


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

    # the family index i it failed at; set by every generated evaluator and
    # by `problem._call`
    index = None


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


class PartitionTooLarge(SetoptError):
    """A tie structure whose selectors are too many to enumerate."""


class LineSearchFailure(SetoptError):
    def __init__(self, message, violating_component=None):
        self.violating_component = violating_component
        super().__init__(message)


# --- bench errors ---

class WorkerDied(SetoptError):
    """A forked bench child ended without sending its results."""

    def __init__(self, pid, status):
        self.pid = pid
        self.status = status
        super().__init__(f"bench child process {pid} ended with status {status} "
                         f"before sending its results")


# --- oracle errors ---

class GridTooLarge(SetoptError):
    pass


class BracketFailure(SetoptError):
    pass
