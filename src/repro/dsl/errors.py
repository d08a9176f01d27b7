"""Exception hierarchy for the heuristic DSL.

Every error raised while handling generated code derives from
:class:`DslError` so callers (the Checker and Evaluator) can distinguish
"the candidate is broken" from genuine bugs in the framework.
"""

from __future__ import annotations


class DslError(Exception):
    """Base class for all DSL-related failures."""


class DslSyntaxError(DslError):
    """Raised when candidate text cannot be parsed.

    Attributes
    ----------
    message:
        What went wrong, without the position ``str(exc)`` appends.
    line, column:
        1-based position of the offending token, when known.  They are kept
        on the exception so the Checker can hand structured feedback back to
        the Generator (mimicking a compiler's stderr).
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.message = message
        self.line = line
        self.column = column
        location = ""
        if line is not None:
            location = f" (line {line}"
            if column is not None:
                location += f", column {column}"
            location += ")"
        super().__init__(f"{message}{location}")


class DslRuntimeError(DslError):
    """Raised when a candidate fails while being interpreted.

    Examples: division by zero, reference to an unknown feature, calling an
    unknown method on a feature object.
    """


class DslTimeoutError(DslRuntimeError):
    """Raised when a candidate exceeds its interpretation step budget.

    Generated code may contain loops; the interpreter enforces a step budget
    so a pathological candidate cannot stall the whole search.
    """
