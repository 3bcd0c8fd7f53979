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

``normalize_params`` applies them with exact subtractions, so only
``GaussParams`` rounds, once.  ``GaussParams`` also carries the pair both
certified routes are built on: ``whole``, the nearest integer M to
N x + theta, and ``frac`` = N x + theta - M, both from the exact sum.

``phase_term`` forms one phase x t^2 + 2 theta t exactly and hands it
to mpmath's ``expjpi``.  The phase loop behind the oracle, the
renormalized short sum and the curlicue (``_phase_partial_sums``) reads
x and 2 theta once in fixed point, reduced mod 2, steps every phase by
exact integer adds and takes cos/sin of pi times its distance to the
nearest half-integer in fixed point: no phase loses bits to its size,
and the loop's own error is at most count 2^(8-B) < 2^(-prec-12) before
one rounding per partial sum, B = prec + bitlen(count) + 20.  So the
direct sum stays within N * eps of the exact sum on its inputs for
every N the term budget admits, and is the ground truth every other
evaluation path is tested against.  That budget, ``DEFAULT_MAX_TERMS``,
is kept by the loop alone: it refuses a longer run before its first
term, for the oracle, both routes' short sums and the curlicue alike.
"""

from __future__ import annotations

from mpmath.libmp import fhalf, from_man_exp, pi_fixed, round_nearest
from mpmath.libmp.libelefun import cos_sin_basecase

from .errors import DomainError, ResourceBudgetError
from .precision import PrecisionContext, ensure_finite

__all__ = [
    "GaussParams",
    "phase_term",
    "phase_sum",
    "direct_sum",
    "normalize_params",
]

DEFAULT_MAX_TERMS = 10**8


class GaussParams:
    """Validated (x, theta, N) with x, theta held at full context precision.

    Accepts anything ``mpf`` accepts (decimal strings keep all digits);
    derived quantities must use these stored values, never re-read
    truncated decimal forms.  ``whole`` and ``frac`` split N x + theta,
    formed once and exactly in integers however large N is, into its
    nearest integer and the rest, frac in (-1/2, 1/2] with the tie
    m + 1/2 kept as whole = m, frac = 1/2.  whole >= 0, since
    N x + theta > -1/2.  frac keeps every bit: it feeds phases frac^2/x
    of size up to 1/(4x), which a frac rounded from N x + theta would
    throw off by up to ~N eps.
    """

    __slots__ = ("x", "theta", "N", "ctx", "whole", "frac")

    def __init__(self, x, theta, N: int, ctx: PrecisionContext):
        mp = ctx.mp
        x = mp.mpf(x)
        theta = mp.mpf(theta)
        half = mp.make_mpf(fhalf)
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
        # N x + theta = v 2^e exactly, in integers (e < 0, as x < 1)
        _, mx, ex, _ = x._mpf_
        st, mt, et, _ = theta._mpf_
        e = min(ex, et) if mt else ex
        v = (N * mx << ex - e) + ((-mt if st else mt) << et - e)
        self.whole = -((1 << -e - 1) - v >> -e)  # ceil(v 2^e - 1/2)
        self.frac = mp.make_mpf(from_man_exp(v - (self.whole << -e), e))

    def __repr__(self):
        mp = self.ctx.mp
        return (f"GaussParams(x={mp.nstr(self.x, 12)}, "
                f"theta={mp.nstr(self.theta, 12)}, N={self.N})")


def phase_term(t, params: GaussParams, ctx: PrecisionContext | None = None):
    """f(t) = exp(i pi (x t^2 + 2 theta t)), phase formed exactly for any t."""
    mp = (ctx or params.ctx).mp
    t = mp.mpf(t)
    p = mp.fadd(mp.fmul(params.x, mp.fmul(t, t, exact=True), exact=True),
                mp.fmul(2 * params.theta, t, exact=True), exact=True)
    return mp.expjpi(p)


def _fixed_mod2(v, F: int, mask: int) -> int:
    """v 2^F truncated to an integer, mod 2^(F+1): v mod 2 with F fractional
    bits, off by less than 2^-F, for any finite mpf v.  An exponent >= 1 makes v an
    even integer, 0 mod 2, so no huge shift is ever formed."""
    sign, man, exp, _ = v._mpf_
    if not man and exp:
        raise DomainError(f"phase loop: arguments must be finite, got {v}")
    if exp > 0:
        return 0
    n = man << (exp + F) if exp + F >= 0 else man >> -(exp + F)
    return (-n if sign else n) & mask


def _phase_partial_sums(x, theta, count: int, mp, stride: int):
    """Yield (j, S_j) for j = stride, 2 stride, ... <= count, where
    S_j = sum_{k=1}^{j} exp(i pi (x k^2 + 2 theta k)).

    The one phase loop, in fixed point.  x and 2 theta are read once
    with F = B + 2 bitlen(count) + 4 fractional bits and reduced mod 2
    by a mask, B = prec + bitlen(count) + 20, prec the context's.  The
    phase p_k = x k^2 + 2 theta k then advances by two masked integer
    adds per term, d += 2x and p += d, so every p_k is exact mod 2 for
    the inputs as read: nothing drifts, and no phase loses bits to its
    size.  p_k is split at its nearest half-integer h/2, and cos/sin of
    pi times the remainder (|.| <= pi/4) come from libmp's
    ``cos_sin_basecase`` at B bits, the step ``mpf_cos_sin`` takes after
    its own reduction (a private libmp function, mpmath 1.3).  They are
    summed in integers by h mod 4, and the quarter turns i^h, signs and
    a swap, combine those sums once per yielded partial sum before its
    one rounding.  More than ``DEFAULT_MAX_TERMS`` terms raise
    ResourceBudgetError before the first.

    Error of each yielded S_j before that rounding, at most
    j 2^(8-B) < 2^(-prec-12) in modulus:
    - reading x and 2 theta moves p_k by under (k^2 + k) 2^-F
      <= 2^(-B-4), so pi p_k by under 2^(-B-2);
    - pi r is formed from a fixed pi good to 1 unit of 2^-B, |r| <= 1/4,
      and floored: under 2 units;
    - ``cos_sin_basecase`` sums a Taylor series with truncating integer
      steps, about 2 units per series term, under 50 terms at B <= 400
      (above 400 bits mpmath's ``exponential_series`` keeps its own guard
      bits), plus its table entry and the final product: under 2^7 units
      per component.
    The rounding then adds at most 2^-prec |S_j|.  phase_sum takes the
    last partial sum, the curlicue export every stride-th one; terms past
    the last multiple of stride are never yielded.
    """
    if count > DEFAULT_MAX_TERMS:
        raise ResourceBudgetError(
            f"phase loop: {count} terms exceed the budget of {DEFAULT_MAX_TERMS} terms")
    prec = mp.prec
    B = prec + count.bit_length() + 20
    F = B + 2 * count.bit_length() + 4
    mask = (1 << (F + 1)) - 1
    half, quarter = F - 1, 1 << (F - 2)
    xf = _fixed_mod2(mp.mpf(x), F, mask)
    two_x = (2 * xf) & mask
    d = (_fixed_mod2(2 * mp.mpf(theta), F, mask) - xf) & mask  # p_1 - p_0 - 2x
    p = 0
    cs, ss = [0, 0, 0, 0], [0, 0, 0, 0]
    pi = pi_fixed(B)
    for j in range(stride, count + 1, stride):
        for _ in range(stride):
            d = (d + two_x) & mask
            p = (p + d) & mask
            h = (p + quarter) >> half
            c, s = cos_sin_basecase(((p - (h << half)) * pi) >> F, B)
            cs[h & 3] += c
            ss[h & 3] += s
        re = cs[0] - ss[1] - cs[2] + ss[3]
        im = ss[0] + cs[1] - ss[2] - cs[3]
        yield j, mp.make_mpc((from_man_exp(re, -B, prec, round_nearest),
                              from_man_exp(im, -B, prec, round_nearest)))


def phase_sum(x, theta, count: int, mp):
    """sum_{j=1}^{count} exp(i pi (x j^2 + 2 theta j)) for arbitrary real x, theta.

    The last partial sum of the fixed-point phase loop
    (``_phase_partial_sums``): within count 2^(8-B) < 2^(-prec-12) of the
    exact sum over the inputs as given, plus one rounding at the context
    precision prec, for any real x and theta, however large, since both
    are reduced mod 2 exactly.  Shared by the validated oracle, the
    renormalization term (whose first argument -1/x is far outside
    (0, 1)) and rational-case identity checks.  count = 0 gives 0.
    """
    total = mp.mpc(0)
    for _, total in _phase_partial_sums(x, theta, count, mp, max(count, 1)):
        pass
    return total


def direct_sum(params: GaussParams, ctx: PrecisionContext | None = None):
    """S_N(x, theta) by term-by-term summation.

    The ground-truth oracle: the phase loop's error on the stored x and
    theta is at most N 2^(8-B) < 2^(-prec-12), B = prec + bitlen(N) + 20
    (``_phase_partial_sums`` derives it), plus one rounding at the working
    precision, so well within N * eps.  The loop raises
    ResourceBudgetError when N exceeds ``DEFAULT_MAX_TERMS``.
    """
    ctx = ctx or params.ctx
    value = phase_sum(params.x, params.theta, params.N, ctx.mp)
    return ensure_finite(ctx.mp, value, "direct_sum")


def normalize_params(x_raw, theta_raw, N: int, ctx: PrecisionContext):
    """Fold arbitrary real (x, theta) into the canonical ranges, exactly.

    Applies x -> x - 2k into [-1, 1], k the nearest integer to x/2;
    conjugation (x, theta) -> (-x, -theta) when that x is negative;
    theta -> theta - l into (-1/2, 1/2], l the nearest integer.  Each
    step is an exact subtraction of an integer, so the canonical image
    is exact and ``GaussParams`` rounds it once: a tiny negative x keeps
    every bit.  Raw x reducing to 0 or 1 mod 2 degenerates to a
    geometric sum and is rejected.  Returns (GaussParams, conjugated):
    the raw sum is ``direct_sum(params)``, conjugated when ``conjugated``.
    """
    mp = ctx.mp
    x = mp.mpf(x_raw)
    theta = mp.mpf(theta_raw)
    x = mp.fsub(x, 2 * mp.nint(x / 2), exact=True)
    if x == 0 or abs(x) == 1:
        raise DomainError(
            f"normalize_params: x={x_raw} reduces to {abs(x)} mod 2; the sum "
            "degenerates to a geometric series outside this evaluator's domain")
    conjugated = x < 0
    if conjugated:
        x, theta = mp.fneg(x, exact=True), mp.fneg(theta, exact=True)
    theta = mp.fsub(theta, mp.nint(theta), exact=True)
    if theta == -0.5:
        theta = -theta
    return GaussParams(x, theta, N, ctx), conjugated
