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
to mpmath's ``expjpi``.  Every other phase goes through one fixed-point
kernel (``_exp_quadratic``): its arguments are read once, every bit,
reduced mod 2, and each phase of a run A k^2 + C k is stepped by exact
integer adds, split exactly at the nearest step of a table of cos/sin
over a quarter turn, with short Taylor series for the rest and
one complex product by the table entry, all in integers: no phase loses
bits to its size.  Two sums run on it:

- the phase loop (``_phase_partial_sums``), one kernel value a term,
  behind the oracle ``direct_sum``, ``phase_sum`` and the curlicue:
  within count 2^(8-B) < 2^(-prec-12) before one rounding per partial
  sum, B = prec + bitlen(count) + 20;
- the chirp (``_chirp_sum``), behind the routes' short sums at every
  length: Bluestein's identity turns count phases into about
  4 sqrt(count) kernel values and one exact integer convolution, within
  count 2^(9-B) < 2^(-prec-11) before its one rounding.

Both read their arguments in one way (``_read_in``) and round in one way
(``_rounded``).

So the direct sum stays within N * eps of the exact sum on its inputs for
every N the term budget admits, and is the ground truth every other
evaluation path is tested against; it stays term by term, so that it
shares only the kernel with the routes.  That budget,
``DEFAULT_MAX_TERMS``, is the one term budget of both sums: each refuses
a longer run before its first phase, for the oracle, both routes' short
sums and the curlicue alike.
"""

from __future__ import annotations

from functools import cache, lru_cache
from itertools import islice
from math import isqrt

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


def phase_term(t, params: GaussParams):
    """f(t) = exp(i pi (x t^2 + 2 theta t)), phase formed exactly for any t."""
    mp = params.ctx.mp
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

# One table is about 120 KB at T = 192 and 370 KB at T = 1120.  T = 192
# serves every B of the sweeps and of the CLI's sum and curlicue at digits
# 30, T = 256 the tables at digits 50 and the oracle at digits 45, and 224
# or 288 the sweeps' other reference runs: four tables keep them all, where
# an unbounded memo would keep one for every precision a process visits.
@lru_cache(maxsize=4)
def _quarter_turn(T: int):
    """(cos, sin): cos and sin of pi i 2^-(_TABLE_BITS + 1) for
    i = 0 .. 2^_TABLE_BITS - 1 in fixed point at T bits, each within 2
    units of 2^-T.

    The first eighth turn is built as successive powers of one root of
    unity w at 16 guard bits.  w is within 2 units of 2^-(T+16) per
    component (libmp's ``mpf_cos_sin_pi`` and a floor), and each power's
    floors add under sqrt(2) in modulus, so the i-th power is within 5 i
    of them: the 512th within 2^12, under 1/16 unit of 2^-T.  The floor to
    T bits adds under one unit.  The second eighth is the first one
    reflected, cos(pi/2 - a) = sin a, sharing its integers.
    """
    guard = 16
    W = T + guard
    wc, ws = (to_fixed(v, W) for v in mpf_cos_sin_pi(from_man_exp(1, -_TABLE_BITS - 1), W))
    c, s = 1 << W, 0
    cos_t, sin_t = [c], [s]
    for _ in range(1 << (_TABLE_BITS - 1)):
        c, s = (c * wc - s * ws) >> W, (c * ws + s * wc) >> W
        cos_t.append(c)
        sin_t.append(s)
    cos_t, sin_t = [v >> guard for v in cos_t], [v >> guard for v in sin_t]
    return tuple(cos_t + sin_t[-2:0:-1]), tuple(sin_t + cos_t[-2:0:-1])


@cache
def _taylor(B: int, F: int):
    """Coefficients of cos(pi u) and of sin(pi u)/u as polynomials in u^2,
    highest degree first, in fixed point at F bits, each within 8 units:
    (-1)^j pi^(2j)/(2j)! and (-1)^j pi^(2j+1)/(2j+1)!, j < m.

    m is the least for which the first omitted term, pi^(2m) |u|^(2m)/(2m)!
    at |u| <= 2^-(_TABLE_BITS + 2), is under 2^(6-B); the one after it,
    of sin, is smaller still.  At _TABLE_BITS = 10 that is m = 7 for
    B <= 187.  Tuples, since every call at (B, F) shares them.

    No guard bits: pi^k/k! is the floor of pi^(k-1)/(k-1)! times pi (to 1
    unit) over k, so its error e_k <= e_(k-1) pi/k + pi^(k-1)/(k-1)!/k + 1,
    e_1 <= 1, peaks under 8 units at k = 4; and the series weigh every
    coefficient but the exact 1 by |u| <= 2^-12 or less.
    """
    step = _TABLE_BITS + 2
    pi = pi_fixed(F)
    terms = [1 << F]  # pi^k/k! at F bits
    # until a term of even degree k is under 2^(6-B) at |u| = 2^-step
    while len(terms) % 2 == 0 or terms[-1] >> (len(terms) - 1) * step + F + 6 - B:
        terms.append(terms[-1] * pi // (len(terms) << F))
    signed = [-v if k & 2 else v for k, v in enumerate(terms[:-1])]
    return tuple(signed[-2::-2]), tuple(signed[::-2])


def _read_in(a, b, count: int, prec: int):
    """(B, F, A, C) of a sum of count phases exp(i pi (a k^2 + 2 b k)) at
    the precision prec, for the loop and the chirp alike.

    A count that is not a non-negative int raises DomainError, and more
    than ``DEFAULT_MAX_TERMS`` terms are refused next, before any phase is
    formed: the one term budget.  Then the kernel's B = prec +
    bitlen(count) + 20 bits, F = B + 2 bitlen(count) + 4 fractional bits,
    and a and 2 b, mpf, read once with F bits, every bit, and reduced
    mod 2 (``_fixed_mod2``): A = a 2^F and C = 2 b 2^F, mod 2^(F+1).  The
    read drops under 2^-F of each, so phase k moves by under (k^2 + k) 2^-F
    < 2^(2 bitlen(count) - F) half-turns, pi times that in its term: under
    1/4 unit of 2^-B per term, within the loop's j 2^(8-B).  Where the
    phases barely turn, these errors add up instead of cancelling, and
    B + 6 fractional bits break that bound
    (``test_phase_kernel_reads_every_bit_of_a_long_argument``).
    """
    if not isinstance(count, int) or isinstance(count, bool) or count < 0:
        raise DomainError(f"phase loop: count must be a non-negative integer, got {count!r}")
    if count > DEFAULT_MAX_TERMS:
        raise ResourceBudgetError(
            f"phase loop: {count} terms exceed the budget of {DEFAULT_MAX_TERMS} terms")
    B = prec + count.bit_length() + 20
    F = B + 2 * count.bit_length() + 4
    mask = (1 << (F + 1)) - 1
    return B, F, _fixed_mod2(a, F, mask), _fixed_mod2(b, F + 1, mask)


def _rounded(re: int, im: int, scale: int, mp):
    """(re + i im) 2^-scale as an mpc of mp, each part rounded once to
    nearest at mp's precision: the one rounding of the loop and the chirp."""
    prec = mp.prec
    return mp.make_mpc((from_man_exp(re, -scale, prec, round_nearest),
                        from_man_exp(im, -scale, prec, round_nearest)))


def _exp_quadratic(runs, B: int, F: int):
    """(scale, values): for each run (A, C, start, stop) in turn, values
    yields (q, re, im) for k = start .. stop - 1, with i^q (re + i im)
    2^-scale within 95 units of 2^-B of exp(i pi p_k), p_k = (A k^2 + C k)
    2^-F mod 2, for any integers A and C, F >= B + 6.

    The one per-phase kernel, behind the loop and the chirp.  p_k advances
    by two masked integer adds per term, so every phase is exact mod 2:
    nothing drifts, and no phase loses bits to its size.  It is kept offset
    by half a table step, so its top _TABLE_BITS + 2 bits are the nearest
    table step: a quarter turn q and an index into a table of the quarter
    turn (``_quarter_turn``), and the rest, less the offset, is the exact
    remainder u, |u| <= 2^-(_TABLE_BITS + 2) half-turns.  The table is at
    T bits, B rounded up to a multiple of 32: up to 31 bits finer than B,
    which makes the products at most one 30-bit digit longer, so one table
    serves 32 values of B.  cos(pi u) and sin(pi u) are short Taylor series
    at F bits (``_taylor``, in Horner form), turned by the table entry in
    one complex product at scale = F + T bits.  Table and series are memos
    of their precision, so the values depend on the arguments alone.

    Error of each value, in units of 2^-B: u is exact; the coefficients and
    Horner floors of each series add under 2^5 units of 2^-F, under
    2^(B-F+5) <= 1/2 unit, and what it leaves out under 2^6 units; the
    table entry is within 2 units per component, and the product is exact.
    In all under sqrt(2) (2^6 + 1/2) + 2 sqrt(2) < 95.
    """
    T = -(-B // 32) * 32
    cos_t, sin_t = _quarter_turn(T)
    return F + T, _exp_values(runs, F, cos_t, sin_t, _taylor(B, F))


def _exp_values(runs, F, cos_t, sin_t, series):
    """The generator of ``_exp_quadratic``, everything in locals."""
    mask = (1 << (F + 1)) - 1
    G = F - _TABLE_BITS - 1  # the bits below one table step
    low, offset = (1 << G) - 1, 1 << (G - 1)
    top, index = _TABLE_BITS, (1 << _TABLE_BITS) - 1
    (c_top, s_top), *horner = zip(*series)
    for A, C, start, stop in runs:
        two_a = (2 * A) & mask
        p = (A * start * start + C * start + offset) & mask  # p_start, offset
        d = (A * (2 * start + 1) + C) & mask  # p_(start+1) - p_start
        for _ in range(start, stop):
            u = (p & low) - offset
            u2 = u * u >> F
            c, s = c_top, s_top
            for a, b in horner:
                c = a + (c * u2 >> F)
                s = b + (s * u2 >> F)
            s = s * u >> F
            k = p >> G
            i = k & index
            cos_i, sin_i = cos_t[i], sin_t[i]
            yield k >> top, c * cos_i - s * sin_i, s * cos_i + c * sin_i
            p = (p + d) & mask
            d = (d + two_a) & mask


def _fixed_partial_sums(x, theta, count: int, prec: int, stride: int):
    """Yield (j, re, im, scale) for j = stride, 2 stride, ... <= count, with
    (re + i im) 2^-scale within j 2^(8-B) < 2^(-prec-12) of
    S_j = sum_{k=1}^{j} exp(i pi (x k^2 + 2 theta k)), B = prec +
    bitlen(count) + 20: the phase loop before its rounding.

    x and 2 theta, mpf, are read once, every bit, with F = B + 2 bitlen(count)
    + 4 fractional bits and reduced mod 2 (``_read_in``).  Each phase
    then goes through the kernel (``_exp_quadratic``), and its value is
    summed exactly into one of four integer sums by quarter turn q; the
    quarter turns i^q, signs and a swap, combine them once per partial sum.
    More than ``DEFAULT_MAX_TERMS`` terms raise ResourceBudgetError before
    the first.

    Error per term, in units of 2^-B: reading x and 2 theta moves p_k by
    under (k^2 + k) 2^-F <= 2^(-B-4), so pi p_k by under 2^(-B-2): under
    1/4 unit; the kernel adds under 95, the sums are exact.  In all under
    2^7 units, so j 2^(7-B) over j terms; the bound keeps a factor 2.
    """
    B, F, A, C = _read_in(x, theta, count, prec)
    scale, values = _exp_quadratic([(A, C, 1, count + 1)], B, F)
    cs, ss = [0, 0, 0, 0], [0, 0, 0, 0]
    for j in range(stride, count + 1, stride):
        for q, re, im in islice(values, stride):
            cs[q] += re
            ss[q] += im
        yield j, cs[0] - ss[1] - cs[2] + ss[3], ss[0] + cs[1] - ss[2] - cs[3], scale


def _phase_partial_sums(x, theta, count: int, mp, stride: int):
    """Yield (j, S_j) for j = stride, 2 stride, ... <= count, where
    S_j = sum_{k=1}^{j} exp(i pi (x k^2 + 2 theta k)): the one phase loop
    (``_fixed_partial_sums``), behind the oracle, ``phase_sum`` and the
    curlicue, each partial sum rounded once at the context's precision
    prec (``_rounded``).

    An mpf argument is read with every bit, any other is converted at the
    working precision first.  Each S_j is within j 2^(8-B) < 2^(-prec-12)
    of the exact sum over the inputs as read before its rounding, which
    adds at most 2^-prec |S_j|.  phase_sum takes the last partial sum, the
    curlicue export every stride-th one; terms past the last multiple of
    stride are never yielded.
    """
    for j, re, im, scale in _fixed_partial_sums(mp.convert(x), mp.convert(theta),
                                                count, mp.prec, stride):
        yield j, _rounded(re, im, scale, mp)


def _units(runs, B: int, F: int):
    """[(re, im)]: the kernel's values over runs (``_exp_quadratic``), their
    quarter turns applied, floored to B bits: each within 95 + sqrt(2) < 97
    units of 2^-B."""
    scale, values = _exp_quadratic(runs, B, F)
    shift = scale - B
    out = []
    for q, re, im in values:
        re, im = re >> shift, im >> shift
        out.append((re, im) if q == 0 else (-im, re) if q == 1 else
                   (-re, -im) if q == 2 else (im, -re))
    return out


def _slots(count: int, width: int) -> int:
    """sum_{m<count} 2^(8 width (m + 1) - 1): half of every slot of width bytes."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")


def _pack(values, width: int) -> int:
    """sum_m values[m] 2^(8 width m), each |values[m]| < 2^(8 width - 1):
    biased into unsigned slots, joined as bytes, and the bias taken off."""
    half = 1 << (8 * width - 1)
    raw = b"".join((v + half).to_bytes(width, "little") for v in values)
    return int.from_bytes(raw, "little") - _slots(len(values), width)


def _unpack(packed: int, count: int, width: int, lo: int, hi: int):
    """Slots lo .. hi - 1 of packed = sum_{m<count} r_m 2^(8 width m), each
    |r_m| < 2^(8 width - 1): a bias of half a slot in every slot leaves no
    borrow, so one ``to_bytes`` splits it in linear time."""
    half = 1 << (8 * width - 1)
    raw = (packed + _slots(count, width)).to_bytes(count * width, "little")
    return [int.from_bytes(raw[m * width:(m + 1) * width], "little") - half
            for m in range(lo, hi)]


def _chirp_fixed(a, b, count: int, prec: int):
    """(re, im, scale), (re + i im) 2^-scale within count 2^(9-B) <
    2^(-prec-11) of S = sum_{j=1}^{count} exp(i pi (a j^2 + 2 b j)) over a
    and b as read, B = prec + bitlen(count) + 20: the chirp before its
    rounding.

    Bluestein's identity.  With L = isqrt(count), Q = count // L and
    j = beta L + k, 0 <= beta < Q, 1 <= k <= L, and
    2 beta k = beta^2 + k^2 - (beta - k)^2, the first Q L terms are

        sum_beta c_beta sum_k u_k v_(beta-k),
        c_beta = e(a (L^2 + L) beta^2 + 2 b L beta),
        u_k = e(a (L + 1) k^2 + 2 b k),   v_d = e(-a L d^2),

    e(p) = exp(i pi p), and the last count - Q L < L terms are summed as
    they are.  v is even in d and |d| <= L, so about 4 sqrt(count) phases
    in all.  a and 2 b are read once with F bits (``_read_in``), as by
    the loop, and every phase is formed from them by integer products,
    exact mod 2: the three phases of term j add up to exactly the loop's
    phase of j.  Each goes through the loop's kernel (``_units``).  The
    convolution is exact, in integers: each sequence is packed into one
    int (Kronecker substitution) with slots of 2B + bitlen(L) + 4 bits,
    rounded up to bytes, and three real products (Gauss's trick) give its
    real and imaginary parts, unpacked in linear time.  The dot product
    with c is exact too.  More than ``DEFAULT_MAX_TERMS`` terms raise
    ResourceBudgetError before any phase.

    Error per term, in units of 2^-B: each of the three unit values is
    within 97, so their product within (1 + 97 2^-B)^3 - 1 < 292; reading
    a and 2 b adds under 1/4, as in the loop.  Under 2^9 in all.
    """
    B, F, af, bf = _read_in(a, b, count, prec)
    if count == 0:
        return 0, 0, 0
    L = isqrt(count)
    Q = count // L
    values = iter(_units([(af * (L + 1), bf, 1, L + 1),  # u_k
                           (-af * L, 0, 0, L + 1),  # v_d = v_-d
                           (af * (L * L + L), bf * L, 0, Q),  # c_beta
                           (af, bf, Q * L + 1, count + 1)], B, F))  # the rest
    u, v, c, rest = (list(islice(values, size)) for size in (L, L + 1, Q, count - Q * L))
    v = v[L:0:-1] + v[:Q - 1]  # v_d, d = -L .. Q - 2
    # (u * v)_beta is coefficient beta + L - 1 of the product of
    # sum u_(i+1) z^i and sum v_(m-L) z^m
    width = (2 * B + L.bit_length() + 4 + 7) // 8
    ur, ui = (_pack(part, width) for part in zip(*u))
    vr, vi = (_pack(part, width) for part in zip(*v))
    p1, p2, p3 = ur * vr, ui * vi, (ur + ui) * (vr + vi)
    size = len(u) + len(v) - 1
    wr = _unpack(p1 - p2, size, width, L - 1, L - 1 + Q)
    wi = _unpack(p3 - p1 - p2, size, width, L - 1, L - 1 + Q)
    re = sum(cr * r - ci * i for (cr, ci), r, i in zip(c, wr, wi))
    im = sum(cr * i + ci * r for (cr, ci), r, i in zip(c, wr, wi))
    return (re + (sum(r for r, _ in rest) << 2 * B),
            im + (sum(i for _, i in rest) << 2 * B), 3 * B)


def _chirp_sum(a, b, count: int, mp):
    """sum_{j=1}^{count} exp(i pi (a j^2 + 2 b j)) by the chirp
    (``_chirp_fixed``): within count 2^(9-B) < 2^(-prec-11) of the exact
    sum over the inputs as read, plus one rounding at the context
    precision prec (``_rounded``).  The routes' short sum at every length;
    the oracle, ``phase_sum`` and the curlicue stay on the loop.
    """
    return _rounded(*_chirp_fixed(mp.convert(a), mp.convert(b), count, mp.prec), mp)


def phase_sum(x, theta, count: int, mp):
    """sum_{j=1}^{count} exp(i pi (x j^2 + 2 theta j)) for arbitrary real x, theta.

    The last partial sum of the fixed-point phase loop
    (``_phase_partial_sums``): within count 2^(8-B) < 2^(-prec-12) of the
    exact sum over the inputs as given, plus one rounding at the context
    precision prec, for any real x and theta, however large, since both
    are reduced mod 2 exactly, so its first argument may be -1/x, far
    outside (0, 1).  Shared by the validated oracle and rational-case
    identity checks; the routes' short sum is the chirp
    (``_chirp_sum``).  count = 0 gives 0; a count that is not a
    non-negative int raises DomainError.
    """
    total = mp.mpc(0)
    for _, total in _phase_partial_sums(x, theta, count, mp, max(count, 1)):
        pass
    return total


def direct_sum(params: GaussParams):
    """S_N(x, theta) by term-by-term summation.

    The ground-truth oracle: the phase loop's error on the stored x and
    theta is at most N 2^(8-B) < 2^(-prec-12), B = prec + bitlen(N) + 20
    (``_phase_partial_sums`` derives it), plus one rounding at the working
    precision, so well within N * eps.  The loop raises
    ResourceBudgetError when N exceeds ``DEFAULT_MAX_TERMS``.
    """
    mp = params.ctx.mp
    return ensure_finite(mp, phase_sum(params.x, params.theta, params.N, mp), "direct_sum")


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
