"""Exception types shared across the package."""


class ParseError(ValueError):
    """Raised when an instance file is malformed. Carries the offending line number."""

    def __init__(self, lineno, message):
        self.lineno = lineno
        super().__init__(f"line {lineno}: {message}" if lineno else message)


class NotSeriesParallelError(ValueError):
    """Raised when a graph admits no two-terminal series-parallel decomposition.

    ``witness`` is the irreducible remainder the first (or declared)
    terminal pair leaves, and ``tried_pairs`` holds that one pair: no other
    pair is ever tried, since when it fails, one reduction protecting no
    vertex either reduces the graph or shows that no pair can. A
    disconnected or edgeless graph has neither.
    """

    def __init__(self, message, witness=None, tried_pairs=()):
        self.witness = witness
        self.tried_pairs = tuple(tried_pairs)
        super().__init__(message)


class InfeasibleError(ValueError):
    """Raised when a problem instance has no feasible solution (demand above

    the best attainable flow)."""
