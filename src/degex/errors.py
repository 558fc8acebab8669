"""Exception hierarchy shared across the package, and its one refusal check.

The CLI maps these onto exit codes: ValidationError (and subclasses) exit 2,
LimitExceeded exits 3, anything else exits 1.  Every size refusal goes
through refuse_above before anything of that size is allocated: tables,
generated subsets, sampled trials, link masks, exact (1,2) rows and exact
sweep tasks against MAX_ENTRIES, and enumerations and exact sweeps against
the caller's budget or limit.
"""

# Most entries any table, generator or trial batch may hold: 80 MB of int64.
MAX_ENTRIES = 10**7


class DegexError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(DegexError, ValueError):
    """Invalid input: bad parameters, malformed edges, out-of-range vertices."""


class FormatError(ValidationError):
    """Malformed .hg text. Carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class LimitExceeded(DegexError):
    """An enumeration or exact-computation budget was exceeded."""


def refuse_above(count: int, what: str, limit: int = MAX_ENTRIES, advice: str = "") -> None:
    """Raise LimitExceeded when count, the size of what, is above limit (>= 0)."""
    if limit < 0:
        raise ValidationError(f"the limit on {what} must be at least 0, got {limit}")
    if count > limit:
        tail = f"; {advice}" if advice else ""
        raise LimitExceeded(f"{what} = {count} exceeds the limit of {limit}{tail}")
