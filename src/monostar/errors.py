"""Exception types shared across the package."""


class MonostarError(Exception):
    """Base class for package errors."""


class EdgeListParseError(MonostarError):
    """Malformed edge-list input. Carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class BudgetExceededError(MonostarError):
    """An operation refused to run because its cost guard tripped."""

    def __init__(self, message: str, cost: int | None = None, budget: int | None = None):
        super().__init__(message)
        self.cost = cost
        self.budget = budget


class InvalidParamsError(MonostarError):
    """Limit-law parameters violate the representability constraints."""
