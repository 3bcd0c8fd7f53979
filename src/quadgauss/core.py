"""Parameter handling and the direct-summation oracle.

The central object is the quadratic exponential sum

    S_N(x, theta) = sum_{j=1}^{N} f(j),
    f(t) = exp(pi i x t^2 + 2 pi i theta t),

with 0 < x < 1, -1/2 <= theta <= 1/2 and N a positive integer.  Raw
parameters outside the canonical ranges are folded in by three exact
term-wise identities:

    S_N(x + 2, theta) = S_N(x, theta)
    S_N(x, theta + 1) = S_N(x, theta)
    S_N(-x, -theta)   = conj(S_N(x, theta))

Every phase x t^2 + 2 theta t goes straight to mpmath's ``expjpi``,
which reduces it by the nearest half-integer on the exact binary
mantissa, so a phase loses nothing to its size once it is formed.
``phase_term`` forms it exactly.  The oracle loop rounds each phase
(at most N^2 + N) and each partial sum (at most N) at the working
precision, ``GUARD_DIGITS`` beyond ``digits``, so the direct sum's error
stays within N * eps for every N the term budget admits.  That makes it
the ground truth every other evaluation path is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, ResourceBudgetError
from .precision import PrecisionContext, ensure_finite

__all__ = [
    "GaussParams",
    "NearestSplit",
    "NormalizationRecord",
    "phase_term",
    "phase_sum",
    "direct_sum",
    "split_nearest",
    "normalize_params",
]

DEFAULT_MAX_TERMS = 10**8


class GaussParams:
    """Validated (x, theta, N) with x, theta held at full context precision.

    Accepts anything ``mpf`` accepts (decimal strings keep all digits);
    derived quantities must use these stored values, never re-read
    truncated decimal forms.
    """

    __slots__ = ("x", "theta", "N", "ctx")

    def __init__(self, x, theta, N: int, ctx: PrecisionContext):
        mp = ctx.mp
        x = mp.mpf(x)
        theta = mp.mpf(theta)
        half = mp.mpf(1) / 2
        if not (0 < x < 1):
            raise DomainError(f"GaussParams: x must lie in (0, 1), got {x}")
        if not (-half <= theta <= half):
            raise DomainError(f"GaussParams: theta must lie in [-1/2, 1/2], got {theta}")
        if not isinstance(N, int) or isinstance(N, bool) or N < 1:
            raise DomainError(f"GaussParams: N must be a positive integer, got {N!r}")
        self.x = x
        self.theta = theta
        self.N = N
        self.ctx = ctx

    def __repr__(self):
        mp = self.ctx.mp
        return (f"GaussParams(x={mp.nstr(self.x, 12)}, "
                f"theta={mp.nstr(self.theta, 12)}, N={self.N})")


@dataclass(frozen=True)
class NearestSplit:
    """N*x + theta split as value = whole + frac, frac in (-1/2, 1/2].

    At the tie value = m + 1/2 the split keeps whole = m, frac = 1/2.
    """

    value: object
    whole: int
    frac: object


@dataclass(frozen=True)
class NormalizationRecord:
    """Exact transform that carried raw (x, theta) into canonical ranges.

    ``x_shift`` counts multiples of 2 removed from x, ``theta_shift``
    integers removed from theta; both leave the sum unchanged.  When
    ``conjugated`` the normalized sum is the conjugate of the raw one.
    """

    conjugated: bool
    x_shift: int
    theta_shift: int

    def unapply(self, value):
        """Map a sum over normalized parameters back to raw parameters."""
        return value.conjugate() if self.conjugated else value


def phase_term(t, params: GaussParams, ctx: PrecisionContext | None = None):
    """f(t) = exp(i pi (x t^2 + 2 theta t)), phase formed exactly for any t."""
    mp = (ctx or params.ctx).mp
    t = mp.mpf(t)
    p = mp.fadd(mp.fmul(params.x, mp.fmul(t, t, exact=True), exact=True),
                mp.fmul(2 * params.theta, t, exact=True), exact=True)
    return mp.expjpi(p)


def _phase_partial_sums(x, theta, count: int, mp, stride: int):
    """Yield (j, S_j) for j = stride, 2 stride, ... <= count, where
    S_j = sum_{k=1}^{j} exp(i pi (x k^2 + 2 theta k)).

    The one phase loop, in plain working-precision arithmetic.  phase_sum
    takes the last partial sum, the curlicue export every stride-th one.
    """
    total = mp.mpc(0)
    two_theta = 2 * mp.mpf(theta)
    x = mp.mpf(x)
    for j in range(1, count + 1):
        total += mp.expjpi(x * (j * j) + two_theta * j)
        if j % stride == 0:
            yield j, total


def phase_sum(x, theta, count: int, mp):
    """sum_{j=1}^{count} exp(i pi (x j^2 + 2 theta j)) for arbitrary real x, theta.

    The last partial sum of the phase loop, shared by the validated
    oracle, the renormalization term (whose first argument -1/x is far
    outside (0, 1)) and rational-case identity checks.  count = 0 gives 0.
    """
    total = mp.mpc(0)
    for _, total in _phase_partial_sums(x, theta, count, mp, max(count, 1)):
        pass
    return total


def direct_sum(params: GaussParams, ctx: PrecisionContext | None = None):
    """S_N(x, theta) by term-by-term summation.

    The ground-truth oracle: accumulated error <= N * C * eps for a small
    constant C.  Raises ResourceBudgetError when N exceeds
    ``DEFAULT_MAX_TERMS``.
    """
    ctx = ctx or params.ctx
    if params.N > DEFAULT_MAX_TERMS:
        raise ResourceBudgetError(
            f"direct_sum: N={params.N} exceeds the budget of {DEFAULT_MAX_TERMS} terms")
    value = phase_sum(params.x, params.theta, params.N, ctx.mp)
    return ensure_finite(ctx.mp, value, "direct_sum")


def split_nearest(params: GaussParams) -> NearestSplit:
    """Split N*x + theta into nearest integer and signed fractional part.

    The whole part is >= 0 automatically (N*x + theta > -1/2), and
    frac lands in (-1/2, 1/2] with ties resolved upward to 1/2.  Both
    come from the exact N*x + theta, so frac keeps every bit: it feeds
    phases frac^2/x of size up to 1/(4x), which a frac rounded from
    N*x + theta would throw off by up to ~N eps.  ``value`` is the exact
    sum rounded once, so value == whole + frac at working precision.
    """
    mp = params.ctx.mp
    exact = mp.fadd(mp.fmul(params.N, params.x, exact=True), params.theta,
                    exact=True)
    whole = int(mp.ceil(mp.fsub(exact, mp.mpf(1) / 2, exact=True)))
    frac = mp.fsub(exact, whole, exact=True)
    return NearestSplit(value=+exact, whole=whole, frac=frac)


def normalize_params(x_raw, theta_raw, N: int, ctx: PrecisionContext):
    """Fold arbitrary real (x, theta) into the canonical ranges.

    Applies x -> x mod 2; conjugation (x, theta) -> (2 - x, -theta) when
    the reduced x lies in (1, 2); theta -> theta mod 1 into (-1/2, 1/2].
    Raw x reducing to 0 or 1 mod 2 degenerates to a geometric sum and is
    rejected.  Returns (GaussParams, NormalizationRecord) such that
    ``record.unapply(direct_sum(normalized))`` equals the raw sum.
    """
    mp = ctx.mp
    x_raw = mp.mpf(x_raw)
    theta_raw = mp.mpf(theta_raw)
    half = mp.mpf(1) / 2
    x_shift = mp.floor(x_raw / 2)
    x_mod = x_raw - 2 * x_shift
    if x_mod == 0 or x_mod == 1:
        raise DomainError(
            f"normalize_params: x={x_raw} reduces to {x_mod} mod 2; the sum "
            "degenerates to a geometric series outside this evaluator's domain")
    if x_mod > 1:
        conjugated = True
        x_norm = 2 - x_mod
        theta_pre = -theta_raw
    else:
        conjugated = False
        x_norm = x_mod
        theta_pre = theta_raw
    theta_shift = mp.ceil(theta_pre - half)
    theta_norm = theta_pre - theta_shift
    params = GaussParams(x_norm, theta_norm, N, ctx)
    record = NormalizationRecord(conjugated=conjugated,
                                 x_shift=int(x_shift),
                                 theta_shift=int(theta_shift))
    return params, record
