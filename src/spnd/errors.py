"""Exception types shared across the package."""


class ParseError(ValueError):
    """Raised when an instance file is malformed. Carries the offending line number."""

    def __init__(self, lineno, message):
        self.lineno = lineno
        super().__init__(f"line {lineno}: {message}" if lineno else message)


class NotSeriesParallelError(ValueError):
    """Raised when a graph admits no two-terminal series-parallel decomposition.

    ``witness`` describes the smallest irreducible remainder over all the
    terminal pairs tried, ``tried_pairs`` lists every terminal pair that was
    attempted.
    """

    def __init__(self, message, witness=None, tried_pairs=()):
        self.witness = witness
        self.tried_pairs = tuple(tried_pairs)
        super().__init__(message)


class InfeasibleError(ValueError):
    """Raised when a problem instance has no feasible solution (demand above

    the best attainable flow)."""
