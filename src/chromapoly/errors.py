"""Shared exception types and the one operation-budget rule."""

DEFAULT_BUDGET = 10 ** 8


class ChromapolyError(Exception):
    """Base class for errors raised by this package."""


class BudgetExceededError(ChromapolyError):
    """An enumeration would exceed the configured operation budget.

    Exceeding the budget is always an error, never a silent approximation.
    """

    def __init__(self, cost: int, budget: int, what: str = "enumeration"):
        self.cost = cost
        self.budget = budget
        super().__init__(f"{what} needs {cost} operations, budget is {budget}")


def check_budget(cost: int, budget: int | None, what: str) -> None:
    """Raise BudgetExceededError when ``cost`` operations exceed ``budget``
    (None means DEFAULT_BUDGET)."""
    limit = DEFAULT_BUDGET if budget is None else budget
    if cost > limit:
        raise BudgetExceededError(cost, limit, what)


class NotPolynomialError(ChromapolyError):
    """A coloring property failed the polynomiality audit on the given graph.

    Carries the audit report; callers should fall back to per-k counts.
    """

    def __init__(self, report):
        self.report = report
        super().__init__(f"property failed polynomiality audit: {report.summary()}")
