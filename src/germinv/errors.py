"""Error taxonomy shared across the package.

Input problems and resource exhaustion are kept apart because the command
line maps them to different exit codes (1 and 2).
"""


class GermInputError(ValueError):
    """Bad user input: files, expressions, contexts, preconditions."""


class ParseError(GermInputError):
    """Syntax error with a position; line and column are 1-based."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.reason = message
        self.line = line
        self.column = column


class ResourceLimitError(RuntimeError):
    """A configured computation limit was exceeded; never an approximation.

    `stage` names the computation that stopped, `limit` the bound it hit (a
    `ComputeConfig` field, or a fixed cap) and `value` that bound's value.
    """

    def __init__(self, message: str, stage: str, limit: str, value: int):
        super().__init__(message)
        self.stage = stage
        self.limit = limit
        self.value = value
