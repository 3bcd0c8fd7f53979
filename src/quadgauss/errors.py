"""Exception taxonomy.

Every failure mode maps onto one of four families so callers (and the
CLI exit-code mapping) can discriminate without string matching:

* DomainError          -- argument outside the documented domain
* PrecisionError       -- a result came out non-finite or outside its
                          certified accuracy at the working precision
                          (never silently degraded)
* ResourceBudgetError  -- the work required exceeds a configured budget
* TruncationError      -- a series truncation cannot meet the requested
                          tolerance (reported, not silent)
"""


class QuadGaussError(Exception):
    """Base class for all package errors."""


class DomainError(QuadGaussError, ValueError):
    """Input lies outside the documented domain of an operation."""


class PrecisionError(QuadGaussError, ArithmeticError):
    """The requested precision could not be attained."""


class ResourceBudgetError(QuadGaussError, RuntimeError):
    """The requested computation exceeds the configured work budget."""


class TruncationError(QuadGaussError, RuntimeError):
    """A truncated series cannot meet its tolerance."""


class ExprError(QuadGaussError, ValueError):
    """Base class for number-expression parse errors."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class ExprSyntaxError(ExprError):
    """Malformed number expression; ``offset`` is the byte position."""


class UnknownIdentifierError(ExprError):
    """Identifier other than ``pi`` / ``sqrt`` in a number expression."""
