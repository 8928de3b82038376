"""Exception types shared across the toolkit."""


class SimdomError(Exception):
    """Base class for all toolkit errors."""


class GraphParseError(SimdomError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DisconnectedGraphError(SimdomError):
    """Raised when an operation requires a connected graph."""


class BudgetExceededError(SimdomError):
    """Raised when an exponential-time routine exceeds its work budget."""


class InvalidBipartitionError(SimdomError):
    """Raised when the given sides do not form a bipartition of the graph."""


class InvalidDecompositionError(SimdomError):
    """Raised when a tree decomposition violates one of its properties."""


class WidthBudgetError(SimdomError):
    """Raised when a decomposition is too wide for the dynamic program."""


class InvalidSdSetError(SimdomError):
    """Raised when a set claimed to be simultaneously dominating is not."""


class GuaranteeError(SimdomError):
    """Raised when a result breaks a bound or property its method proves."""
