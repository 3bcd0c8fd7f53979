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
every bit of x and 2 theta once in fixed point, reduced mod 2, and steps
every phase by exact integer adds.  Each phase splits exactly at the
nearest step of one shared table of cos/sin over a quarter turn; short
Taylor series cover the rest, and one complex product turns them by the
table entry, all in integers: no phase loses bits to its size, and the
loop's own error is at most count 2^(8-B) < 2^(-prec-12) before one
rounding per partial sum, B = prec + bitlen(count) + 20.  So the
direct sum stays within N * eps of the exact sum on its inputs for
every N the term budget admits, and is the ground truth every other
evaluation path is tested against.  That budget, ``DEFAULT_MAX_TERMS``,
is kept by the loop alone: it refuses a longer run before its first
term, for the oracle, both routes' short sums and the curlicue alike.
"""

from __future__ import annotations

from mpmath.libmp import fhalf, from_man_exp, mpf_cos_sin_pi, pi_fixed, round_nearest, to_fixed

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


# The phase loop's table steps by 2^-(_TABLE_BITS + 1) half-turns, so its
# 2^_TABLE_BITS entries cover a quarter turn.
_TABLE_BITS = 10

# (W, cos, sin): the table of ``_quarter_turn`` at W bits, W the highest B
# asked for so far; about 70 KB at W = 184.  Replaced whole, never changed
# in place, so it is safe to share.
_TABLE = (0, (), ())


def _quarter_turn(B: int):
    """(T, cos, sin): cos and sin of pi i 2^-(_TABLE_BITS + 1) for
    i = 0 .. 2^_TABLE_BITS - 1 in fixed point at T bits, B <= T <= B + 32,
    each within 2 units of 2^-T.

    The first eighth turn is built once, at the highest B asked for so
    far, as successive powers of one root of unity w at 16 guard bits.  w
    is within 2 units of 2^-(B+16) per component (libmp's ``mpf_cos_sin_pi``
    and a floor), and each power's floors add under sqrt(2) in modulus, so
    the i-th power is within 5 i of them: the 512th within 2^12, under
    1/16 unit of 2^-B.  The floor to B bits adds under one unit.  The
    second eighth is the first one reflected, cos(pi/2 - a) = sin a,
    sharing its integers.  A table up to 32 bits finer than B is used as
    it is, which makes the loop's products at most one 30-bit digit longer
    and costs less than shifting it; a finer one is shifted down to B,
    under one more unit.
    """
    global _TABLE
    have, cos_t, sin_t = _TABLE
    if have < B:
        guard = 16
        W = B + guard
        wc, ws = (to_fixed(v, W) for v in mpf_cos_sin_pi(from_man_exp(1, -_TABLE_BITS - 1), W))
        c, s = 1 << W, 0
        cos_t, sin_t = [c], [s]
        for _ in range(1 << (_TABLE_BITS - 1)):
            c, s = (c * wc - s * ws) >> W, (c * ws + s * wc) >> W
            cos_t.append(c)
            sin_t.append(s)
        have = B
        cos_t, sin_t = [v >> guard for v in cos_t], [v >> guard for v in sin_t]
        cos_t, sin_t = tuple(cos_t + sin_t[-2:0:-1]), tuple(sin_t + cos_t[-2:0:-1])
        _TABLE = (have, cos_t, sin_t)
    if have - B <= 32:
        return have, cos_t, sin_t
    return B, [v >> have - B for v in cos_t], [v >> have - B for v in sin_t]


def _taylor(B: int, F: int):
    """Coefficients of cos(pi u) and of sin(pi u)/u as polynomials in u^2,
    highest degree first, in fixed point at F bits, each within 2 units:
    (-1)^j pi^(2j)/(2j)! and (-1)^j pi^(2j+1)/(2j+1)!, j < m.

    m is the least for which the first omitted term, pi^(2m) |u|^(2m)/(2m)!
    at |u| <= 2^-(_TABLE_BITS + 2), is under 2^(6-B); the one after it,
    of sin, is smaller still.  At _TABLE_BITS = 10 that is m = 7 for
    B <= 187.
    """
    P, step = F + 8, _TABLE_BITS + 2
    pi = pi_fixed(P)
    terms = [1 << P]  # pi^k/k! at P bits
    # until a term of even degree k is under 2^(6-B) at |u| = 2^-step
    while len(terms) % 2 == 0 or terms[-1] >> (len(terms) - 1) * step + P + 6 - B:
        terms.append(terms[-1] * pi // (len(terms) << P))
    signed = [(-v if k & 2 else v) >> 8 for k, v in enumerate(terms[:-1])]
    return signed[-2::-2], signed[::-2]


def _phase_partial_sums(x, theta, count: int, mp, stride: int):
    """Yield (j, S_j) for j = stride, 2 stride, ... <= count, where
    S_j = sum_{k=1}^{j} exp(i pi (x k^2 + 2 theta k)).

    The one phase loop, in fixed point.  x and 2 theta are read once, every
    bit of an mpf argument (any other is converted at the working
    precision first), with F = B + 2 bitlen(count) + 4 fractional bits and
    reduced mod 2 by a mask, B = prec + bitlen(count) + 20, prec the
    context's.  The phase p_k = x k^2 + 2 theta k then advances by two
    masked integer adds per term, d += 2x and p += d, so every p_k is exact
    mod 2 for the inputs as read: nothing drifts, and no phase loses bits
    to its size.  p_k is kept offset by half a table step, so its top
    _TABLE_BITS + 2 bits are the nearest table step k, a quarter turn q =
    k >> _TABLE_BITS and an index i into a table of the quarter turn
    (``_quarter_turn``), and the rest, less the offset, the exact remainder
    u, |u| <= 2^-(_TABLE_BITS + 2) half-turns.  cos(pi u) and sin(pi u)
    are short Taylor series at F bits (``_taylor``, in Horner form), turned
    by the table entry (at T >= B bits) in one complex product at F + T
    bits, which is summed exactly into one of four integer sums by q.  The
    quarter turns i^q, signs and a swap, combine those sums once per
    yielded partial sum before its one rounding.  More than
    ``DEFAULT_MAX_TERMS`` terms raise ResourceBudgetError before the first.

    Error of each yielded S_j before that rounding, at most
    j 2^(8-B) < 2^(-prec-12) in modulus; per term, in units of 2^-B:
    - reading x and 2 theta moves p_k by under (k^2 + k) 2^-F
      <= 2^(-B-4), so pi p_k by under 2^(-B-2): under 1/4 unit;
    - u is exact; the coefficients and Horner floors of each series add
      under 2^5 units of 2^-F, under 2^(B-F+5) <= 1/2 unit, and what it
      leaves out under 2^6 units;
    - the table entry is within 2 units per component, and the product
      and the sums are exact.
    In all under 1/4 + sqrt(2) (2^6 + 1/2) + 2 sqrt(2) < 2^7 units.  The
    rounding then adds at most 2^-prec |S_j|.  phase_sum takes the last
    partial sum, the curlicue export every stride-th one; terms past the
    last multiple of stride are never yielded.
    """
    if count > DEFAULT_MAX_TERMS:
        raise ResourceBudgetError(
            f"phase loop: {count} terms exceed the budget of {DEFAULT_MAX_TERMS} terms")
    prec = mp.prec
    B = prec + count.bit_length() + 20
    F = B + 2 * count.bit_length() + 4
    mask = (1 << (F + 1)) - 1
    G = F - _TABLE_BITS - 1  # the bits below one table step
    low, offset = (1 << G) - 1, 1 << (G - 1)
    top, index = _TABLE_BITS, (1 << _TABLE_BITS) - 1
    xf = _fixed_mod2(mp.convert(x), F, mask)
    two_x = (2 * xf) & mask
    d = (_fixed_mod2(mp.convert(theta), F + 1, mask) - xf) & mask  # p_1 - p_0 - 2x
    p = offset  # p_0 = 0, offset
    T, cos_t, sin_t = _quarter_turn(B)
    (c_top, s_top), *horner = zip(*_taylor(B, F))
    cs, ss = [0, 0, 0, 0], [0, 0, 0, 0]
    for j in range(stride, count + 1, stride):
        for _ in range(stride):
            d = (d + two_x) & mask
            p = (p + d) & mask
            u = (p & low) - offset
            u2 = u * u >> F
            c, s = c_top, s_top
            for a, b in horner:
                c = a + (c * u2 >> F)
                s = b + (s * u2 >> F)
            s = s * u >> F
            k = p >> G
            i, q = k & index, k >> top
            C, S = cos_t[i], sin_t[i]
            cs[q] += c * C - s * S
            ss[q] += s * C + c * S
        re = cs[0] - ss[1] - cs[2] + ss[3]
        im = ss[0] + cs[1] - ss[2] - cs[3]
        yield j, mp.make_mpc((from_man_exp(re, -F - T, prec, round_nearest),
                              from_man_exp(im, -F - T, prec, round_nearest)))


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
