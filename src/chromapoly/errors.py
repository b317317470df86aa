"""Shared exception types, the operation budget and its one rule."""

from contextlib import contextmanager
from contextvars import ContextVar

DEFAULT_BUDGET = 10 ** 8

_LIMIT = ContextVar("chromapoly_budget", default=DEFAULT_BUDGET)


class ChromapolyError(Exception):
    """Base class for errors raised by this package."""


class BudgetExceededError(ChromapolyError):
    """An enumeration would exceed the configured operation budget, or a
    dynamic program its cap on the counts it keeps (``unit`` and ``bound``
    name them in the message).

    Exceeding the budget is always an error, never a silent approximation.
    """

    def __init__(self, cost: int, limit: int, what: str = "enumeration",
                 unit: str = "operations", bound: str = "budget"):
        self.cost = cost
        self.budget = limit
        # a cost past 4300 decimal digits, the interpreter's default limit
        # on int-to-str conversion, is given as a power of two
        needs = (str(cost) if cost < 10 ** 4300
                 else f"at least 2^{cost.bit_length() - 1}")
        super().__init__(f"{what} needs {needs} {unit}, {bound} is {limit}")


@contextmanager
def budget(limit: int):
    """Within the block, every enumeration counts its work against
    ``limit`` operations instead of DEFAULT_BUDGET."""
    token = _LIMIT.set(limit)
    try:
        yield
    finally:
        _LIMIT.reset(token)


def budget_limit() -> int:
    """The limit ``check_budget`` compares a cost against."""
    return _LIMIT.get()


def check_budget(cost: int, what: str) -> None:
    """Raise BudgetExceededError when ``cost`` operations exceed the limit
    of the innermost ``budget`` block (DEFAULT_BUDGET outside any)."""
    limit = _LIMIT.get()
    if cost > limit:
        raise BudgetExceededError(cost, limit, what)


class NotPolynomialError(ChromapolyError):
    """A coloring property failed the polynomiality audit on the given graph.

    Carries the audit report; callers should fall back to per-k counts.
    """

    def __init__(self, report):
        self.report = report
        super().__init__(f"property failed polynomiality audit: {report.summary()}")
