"""Working-precision plumbing shared by every numeric module.

A :class:`PrecisionContext` bundles the user-facing precision (significant
decimal digits) with a private mpmath context running ``GUARD_DIGITS``
beyond it, so contract tolerances expressed in ``eps = 10**(1-digits)``
leave headroom for internal rounding.  Each instance owns its own
``MPContext``; nothing in this package touches the global ``mpmath.mp``,
so routines stay pure and two threads using *different* contexts never
race.  (A single context should not be shared between threads while a
call is in flight -- construction costs well under a millisecond, so give
each thread its own.)

Also here: exact mod-2 phase reduction and a Neumaier-compensated complex
accumulator used by every long summation.
"""

from __future__ import annotations

from mpmath.ctx_mp import MPContext

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

    def __eq__(self, other):
        return isinstance(other, PrecisionContext) and other.digits == self.digits

    def __hash__(self):
        return hash(("PrecisionContext", self.digits))


def mod2(mp, p):
    """Reduce a real phase to [0, 2) by subtracting an exact even integer.

    floor and the scaling by 2 are exact in binary floating point, so the
    only error is the correctly-rounded final subtraction; the absolute
    error of the reduced phase equals that of ``p`` itself.
    """
    return p - 2 * mp.floor(p / 2)


def ensure_finite(mp, value, what: str):
    """Reject NaN/inf escaping a numeric kernel."""
    if hasattr(value, "imag"):
        ok = mp.isfinite(value.real) and mp.isfinite(value.imag)
    else:
        ok = mp.isfinite(value)
    if not ok:
        raise PrecisionError(f"{what}: non-finite result")
    return value


class CompensatedSum:
    """Neumaier-compensated accumulator for complex mpmath values.

    mpmath additions are correctly rounded at the active precision, so the
    classic two-sum error term is exact and the accumulated roundoff stays
    O(eps) per term instead of growing with the partial-sum magnitude.
    """

    __slots__ = ("_sr", "_cr", "_si", "_ci", "_mp")

    def __init__(self, mp):
        self._mp = mp
        zero = mp.mpf(0)
        self._sr = zero
        self._cr = zero
        self._si = zero
        self._ci = zero

    def add(self, value):
        value = self._mp.mpc(value)
        self._sr, self._cr = self._add1(self._sr, self._cr, value.real)
        self._si, self._ci = self._add1(self._si, self._ci, value.imag)

    @staticmethod
    def _add1(s, c, y):
        t = s + y
        if abs(s) >= abs(y):
            c = c + ((s - t) + y)
        else:
            c = c + ((y - t) + s)
        return t, c

    def total(self):
        return self._mp.mpc(self._sr + self._cr, self._si + self._ci)
