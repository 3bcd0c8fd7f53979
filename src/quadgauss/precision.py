"""Working-precision plumbing shared by every numeric module.

A :class:`PrecisionContext` bundles the user-facing precision (significant
decimal digits) with a private mpmath context running ``GUARD_DIGITS``
beyond it, so contract tolerances expressed in ``eps = 10**(1-digits)``
leave headroom for internal rounding.  Each instance owns its own
``MPContext``; nothing in this package touches the global ``mpmath.mp``,
so routines stay pure and two threads using *different* contexts never
race.  (A single context should not be shared between threads while a
call is in flight -- construction costs well under a millisecond, so give
each thread its own.)  No module holds mutable state: ``core``'s cos/sin
table and Taylor coefficients of the phase kernel and ``special``'s
Euler--Maclaurin ratios of B_2m/(2m)! are memos (``functools``) of their
precision, tuples of integers that every caller and thread reads alike.
"""

from __future__ import annotations

from mpmath import MPContext

from .errors import DomainError, PrecisionError

GUARD_DIGITS = 15

MIN_DIGITS = 15


class PrecisionContext:
    """Significant-decimal-digit precision plus derived tolerances.

    ``eps`` is the unit-roundoff proxy ``10**(1-digits)``; internal
    arithmetic runs at ``digits + GUARD_DIGITS`` decimal places.
    """

    __slots__ = ("digits", "eps", "mp")

    def __init__(self, digits: int = 30):
        if not isinstance(digits, int) or isinstance(digits, bool):
            raise DomainError(f"digits must be an integer, got {digits!r}")
        if digits < MIN_DIGITS:
            raise DomainError(f"digits must be >= {MIN_DIGITS}, got {digits}")
        self.digits = digits
        self.mp = MPContext()
        self.mp.dps = digits + GUARD_DIGITS
        self.eps = self.mp.mpf(10) ** (1 - digits)

    def __repr__(self):
        return f"PrecisionContext(digits={self.digits})"


def ensure_finite(mp, value, what: str):
    """Reject NaN/inf escaping a numeric kernel, in either part of an mpc."""
    if not mp.isfinite(value):
        raise PrecisionError(f"{what}: non-finite result")
    return value
