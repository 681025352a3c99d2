"""Error taxonomy shared across the package.

Input problems and resource exhaustion are kept apart because the command
line maps them to different exit codes (1 and 2). Both survive a pickle
round trip, message and attributes kept, so a forked worker can send them
back to the process that reports them.
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

    def __reduce__(self):
        # `args` holds only the formatted message; rebuild from the parts
        return type(self), (self.reason, self.line, self.column)


class ResourceLimitError(RuntimeError):
    """A configured computation limit was exceeded; never an approximation.

    `stage` names the computation that stopped, `limit` the bound it hit (a
    `ComputeConfig` field, or a fixed cap) and `value` the configured value
    of `limit`. When the inputs set a degree bound above `max_degree`,
    `value` is still `max_degree`; only the message names the bound in force.
    """

    def __init__(self, message: str, stage: str, limit: str, value: int):
        super().__init__(message)
        self.stage = stage
        self.limit = limit
        self.value = value

    def __reduce__(self):
        return type(self), (str(self), self.stage, self.limit, self.value)
