"""Exception types shared across the package."""


class InputError(ValueError):
    """Caller-supplied data violates a documented precondition."""


class ParseError(InputError):
    """A graph file could not be parsed.

    Carries the 1-based line number when the offending line is known.
    """

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class InternalInvariantError(RuntimeError):
    """A checker produced output that its own verifier rejects.

    This is never an input problem; it signals a bug in the library and
    maps to a distinct process exit code in the CLI.
    """
