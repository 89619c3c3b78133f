"""Exception types raised across the package."""


class TailriskError(Exception):
    """Base class for all errors raised by this package."""


class EmptySampleError(TailriskError):
    """A sample or atom list was empty where at least one value is required."""


class ShapeMismatchError(TailriskError):
    """Parallel sequences disagree in length or shape."""


class EmptyTailError(TailriskError):
    """A tail conditional expectation had no observations at or above its threshold."""


class EmptyScenarioSetError(TailriskError):
    """A distribution forecast carried no scenario values."""


class InsufficientDataError(TailriskError):
    """A statistical test received fewer observations than it needs."""


class DegenerateDenominatorError(TailriskError):
    """A ratio-based index was requested with a zero or nonpositive denominator."""


class CounterexampleNotFoundError(TailriskError):
    """An exhaustive counterexample search ran out of grid; widen the search space."""


class ParseError(TailriskError):
    """A CSV input could not be parsed; carries the offending location."""

    def __init__(self, message: str, row: int | None = None, column: str | None = None):
        self.row = row
        self.column = column
        where = []
        if row is not None:
            where.append(f"row {row}")
        if column is not None:
            where.append(f"column {column!r}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)
