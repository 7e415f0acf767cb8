"""Shared exception types."""


class GcdLabError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(GcdLabError, ValueError):
    """An argument violates an operation's precondition."""


class DomainError(GcdLabError, ValueError):
    """Inputs are outside the hypotheses the quantity is defined under."""


class ResourceLimitError(GcdLabError, RuntimeError):
    """The requested computation exceeds a configured size guard."""


# the one memory budget; each guard passes the bytes it is about to allocate
BYTE_BUDGET = 1 << 29


def check_bytes(nbytes: float, what: str) -> None:
    """Raise ResourceLimitError, before allocating, when nbytes exceed BYTE_BUDGET."""
    if nbytes > BYTE_BUDGET:
        raise ResourceLimitError(f"{what} needs {nbytes} bytes, above budget {BYTE_BUDGET}")


class ConvergenceError(GcdLabError, RuntimeError):
    """An iterative solver ran out of budget; carries the best iterate."""

    def __init__(self, message, best=None, value=None, gap=None):
        super().__init__(message)
        self.best = best
        self.value = value
        self.gap = gap


class SolverError(GcdLabError, RuntimeError):
    """A root finder could not bracket or refine a solution."""
