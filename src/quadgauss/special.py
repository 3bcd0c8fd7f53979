"""Extended-precision special functions on the quarter-turn rays.

The routes need three engines.  Hand-rolled code is kept only where it
buys a certified bound, freedom from phase round-off or a measured gain
in speed and accuracy; everything else is mpmath's own:

* ``erfc_kernel`` -- E(t) = exp(-pi i t^2/x) erfc(omega t sqrt(pi/x)) with
  omega = exp(-i pi/4): the boundary kernel of the continuum approximation
  to the quadratic exponential sum.  E(0) = 1 and
  E(-t) = 2 exp(-pi i t^2/x) - E(t) follow from the erfc reflection.  For
  t > 0, z^2 = -i r2 exactly, r2 = pi t^2/x, so E(t) = e^{z^2} erfc(z) is
  a function of r2 alone, summed in fixed-point integers and rounded
  once: Kummer's series up to r2 = prec ln 2 or so, at as many extra bits
  as its terms cancel, and the large-t series (``_large_t``) beyond,
  which never forms the oscillatory factor, so no phase round-off enters
  however large t^2/x grows.  That series stops at the first-omitted-term
  bound for erfc on |arg z| <= pi/4 (DLMF 7.12(i)).  Before the rounding
  they are within 2^(3 - _GUARD) and 2^(1 - _GUARD/2) of an ulp of |E|,
  at every precision (``_kernel_fixed``).

* ``zeta_odd_orders`` -- zeta(3, a), zeta(5, a), ... from one fixed-point
  integer Euler--Maclaurin pass: a head of prec/6 terms scaled by
  a^s (so the sum is >= 1 and keeps full relative accuracy at the edge
  layers' arguments k0 + 1 -+ a), one more order per multiplication of the
  running powers, and Bernoulli corrections from exact floors of the
  ratios of B_2m/(2m)!, a memo of their precision.  The edge layers and
  the remainder certificate read every order they need from one walk per
  argument.

* ``cot_pi_reg`` -- the regularized cotangent pi cot(pi lam) - 1/lam, the
  order-0 layer's closed form, with guard bits near its removable
  singularity.

All routines are pure functions of (arguments, context) and return values
rounded to the context's working precision.
"""

from __future__ import annotations

import itertools
import math
from functools import cache

from mpmath.libmp import (fone, from_float, from_man_exp, mpf_cmp, mpf_cos_sin_pi, mpf_div,
                          mpf_mul, mpf_pi, mpf_pos, mpf_shift, mpf_sqrt, round_nearest,
                          to_fixed, to_float)

from .core import _rounded
from .errors import DomainError, PrecisionError
from .precision import PrecisionContext, ensure_finite

__all__ = [
    "erfc_kernel",
    "cot_pi_reg",
]


# Bits the fixed-point loops (the kernel's two series, the Hurwitz-zeta
# walk) carry beyond the working precision prec, on top of what each one
# derives for its own term count and cancellation; the walk and the
# large-t series drop terms below 2^-(prec + _GUARD/2).  With 16 the
# kernel is within 2^-7 ulp of |E| before its rounding at every precision
# (test_kernel_before_its_rounding) and the walk within 1/8 ulp of zeta
# before its own (test_zeta_orders_within_a_rounding_of_the_reference); 8
# breaks both, and 32 returned the same values as 16 on every input of
# tools/sweep_values.py.
_GUARD = 16


# ---------------------------------------------------------------------------
# the kernel E(t)
# ---------------------------------------------------------------------------

# qgbench/tracer.py labels kernel calls by r2 = |z|^2 bands and reads this
# edge of its lowest one; the kernel itself switches series at _switch(prec).
_SERIES_RADIUS2 = 16
_LN2 = math.log(2)


def _switch(prec: int) -> float:
    """The r2 from which the large-t series is used at working precision prec.

    Its terms relative to the first, c_r = (1/2)_r r2^-r, are least near
    r = ceil(r2), where Gamma(m + 1/2) <= sqrt(2 pi) m^m e^-m gives
    c_m <= sqrt(2) e^(1/r2) e^-r2.  From r2 = (prec + _GUARD/2) ln 2 + 1 on
    that is below 2^-(prec + _GUARD/2), where ``_large_t`` stops, so the
    series always gets there before its terms grow.
    """
    return (prec + _GUARD // 2) * _LN2 + 1


def _large_t(q, prec: int):
    """(re, im, scale): pi^(-1/2) sum_r (-1)^r (1/2)_r (i/r2)^(r+1/2),
    r2 = pi q > 0, q an mpf tuple to prec + _GUARD bits, is (re + i im)
    2^-scale within 2^(1 - _GUARD/2 - prec) of its modulus, before any
    rounding, at every prec.

    The sum is e^{i pi/4} (pi r2)^(-1/2) sum_r c_r (-i)^r with c_0 = 1 and
    c_r = c_(r-1) (2r - 1)/(2 r2), summed in integers in units of 2^-Q,
    one running sum per power of -i.  It stops before the first c_r below
    2^-(prec + _GUARD/2), the first-omitted-term bound relative to the
    leading term (DLMF 7.12(i)); ``_switch`` makes sure that happens, so
    the ratios stay below 1 and the T terms number under
    _switch(prec) + 1 < prec.  The floor of w = 1/(2 r2) costs c_r under
    2r r2 2^-Q relative, and c_r 2 r2 <= 2r (r/r2)^(r-1) <= 2r, so with
    the floors of the c_r themselves the sums are within T^3 units:
    Q = prec + _GUARD + 3 bitlen(prec) puts that below 2^-(prec + _GUARD),
    at every precision.  The lead (1 + i)/(pi sqrt(2 q)) at
    F = prec + _GUARD bits multiplies the sums exactly.  The omitted terms,
    under 2^-(prec + _GUARD/2) of a sum whose modulus is over
    1 - 1/(2 r2) > 0.99, and these few roundings of 2^-F come to under
    2^(1 - _GUARD/2 - prec).
    """
    F = prec + _GUARD
    Q = F + 3 * prec.bit_length()
    pi = mpf_pi(F)
    w = to_fixed(mpf_div(fone, mpf_shift(mpf_mul(q, pi, F), 1), Q), Q)  # 1/(2 r2)
    stop = 1 << (Q - prec - _GUARD // 2)
    c, sums, r = 1 << Q, [0, 0, 0, 0], 0
    while c >= stop:
        sums[r & 3] += c
        r += 1
        c = (c * w >> Q) * (2 * r - 1)
    re, im = sums[0] - sums[2], sums[3] - sums[1]
    # e^{i pi/4} (pi r2)^(-1/2) = (1 + i) lead, lead = 1/(pi sqrt(2 q))
    _, man, exp, _ = mpf_div(fone, mpf_mul(pi, mpf_sqrt(mpf_shift(q, 1), F), F), F)
    return man * (re - im), man * (re + im), Q - exp


def _kummer(q, tt, x, prec: int):
    """(re, im, F): E(t) for t > 0 with t^2 = tt is (re + i im) 2^-F,
    F = prec + _GUARD + bitlen(prec), from Kummer's series before any
    rounding, q = t^2/x to prec + _GUARD bits: with r2 = pi t^2/x,

        E = e^{-i pi t^2/x} - 2 e^{-i pi/4} (t/sqrt(x)) sum_n (-2i r2)^n/(2n+1)!!.

    The terms are summed in integers in units of 2^-Q, the first 2^Q.  They
    reach about e^r2 and cancel to under 8 times the first, yet each floor
    costs only a few units: each term is -i times the last times a positive
    ratio, so the real and imaginary parts of the partial sums are
    alternating sums of terms that first grow and then shrink, and any
    tail of the sum is within 9.5 times its first term.  A floor at term n
    (under 4/3 unit) scales every later term alike, so it moves the sum by
    under 13 units.  The terms fall below 2^-F within max(2 e r2, F) of
    them, so Q = F + bitlen(6 r2 + F) + 4 keeps all the floors under one
    unit of 2^-F; the sum stops at a term below 2^-F once the ratios are
    below 1/2.  E is a smooth O(1) function of r2, so r2 needs only an
    absolute 2^-F: q is formed again from tt at F + mag(t^2/x) bits and r2
    at two more, and the unit phase is expjpi of q to that accuracy.  The
    floors of v and of the sums and the unit phase add a few units of
    2^-F, times v < sqrt(prec/2), so the result is within 6 prec 2^-F |E|,
    as |E| >= 1/(2 sqrt(prec)) below the switch.
    """
    F = prec + _GUARD + prec.bit_length()
    extra = max(0, q[2] + q[3])  # mag(t^2/x)
    q = mpf_div(tt, x, F + extra, round_nearest)
    r2 = mpf_mul(q, mpf_pi(F + extra + 2), F + extra + 2)
    size = to_float(r2)
    Q = F + (6 * int(size) + F).bit_length() + 4
    R = to_fixed(mpf_shift(r2, 1), F)  # 2 r2
    stop = 1 << (Q - F)
    a, sums, n = 1 << Q, [0, 0, 0, 0], 0
    # past a term below 2^-F with the ratios 2 r2/(2n+3) below 1/2, what is
    # left is less than twice that term
    while a >= stop or 2 * R > (2 * n + 3) << F:
        sums[n & 3] += a
        n += 1
        a = (a * R >> F) // (2 * n + 1)
    # sum = s_re + i s_im in units of 2^-F; e^{-i pi/4} 2 t/sqrt(x) = (1 - i) v,
    # v = sqrt(2 t^2/x)
    s_re, s_im = (sums[0] - sums[2]) >> (Q - F), (sums[3] - sums[1]) >> (Q - F)
    v = to_fixed(mpf_sqrt(mpf_shift(q, 1), F), F)
    cos, sin = mpf_cos_sin_pi(q, F, round_nearest)
    re = to_fixed(cos, F) - (v * (s_re + s_im) >> F)
    im = -to_fixed(sin, F) - (v * (s_im - s_re) >> F)
    return re, im, F


def erfc_kernel(t, x, ctx: PrecisionContext):
    """E(t) = exp(-pi i t^2/x) erfc(omega t sqrt(pi/x)), omega = e^{-i pi/4}.

    Defined for 0 < x < 1 and any real t.  For t > 0 the argument z sits on
    the -pi/4 ray where z^2 = -i r2, r2 = pi t^2/x, exactly, and E(t) =
    e^{z^2} erfc(z) is one integer evaluation: Kummer's series (``_kummer``)
    below r2 = ``_switch(prec)``, about prec ln 2, and the large-t series
    (``_large_t``) from there, which never forms the oscillatory factor, so
    no phase round-off enters however large t^2/x grows.  Negative t goes
    through the reflection E(-t) = 2 exp(-pi i t^2/x) - E(t), whose leading
    term carries the (genuine) oscillation.  Its phase t^2/x is formed
    from the unrounded t with as many extra bits as it has integer bits;
    for t > 0 the series read t to prec + _GUARD bits (``_kernel_fixed``).
    """
    mp = ctx.mp
    x = mp.mpf(x)
    if not (0 < x < 1):
        raise DomainError(f"erfc_kernel: x must lie in (0, 1), got {x}")
    t = mp.convert(t)  # an mpf argument keeps every bit
    if not mp.isfinite(t):
        raise DomainError("erfc_kernel: t must be finite")
    if t == 0:
        return mp.mpc(1)
    if t < 0:
        tt = mp.fmul(t, t, exact=True)
        with mp.extraprec(max(0, mp.mag(tt / x))):
            phase = mp.expjpi(-(tt / x))
        return ensure_finite(mp, 2 * phase - erfc_kernel(-t, x, ctx), "erfc_kernel")
    return ensure_finite(mp, _rounded(*_kernel_fixed(t._mpf_, x._mpf_, mp.prec), mp),
                         "erfc_kernel")


def _kernel_fixed(t, x, prec: int):
    """(re, im, scale): E(t) for t > 0, t and x mpf tuples, at working
    precision prec, before its one rounding: ``_kummer`` below r2 =
    ``_switch(prec)``, ``_large_t`` from there.

    t, an mpf that may carry more than the working precision (an exact
    fractional part of N x + theta), is rounded once to prec + _GUARD
    bits, and t^2/x is formed from it: |d ln E/d ln r2| < 1/2 at every
    r2 > 0, so that moves E by under 2^-(prec + _GUARD) relative.  With
    what ``_kummer`` and ``_large_t`` derive, the result is within
    8 prec 2^-(prec + _GUARD + bitlen(prec)) < 2^(3 - _GUARD - prec) of |E|
    below the switch and within 2^(1 - _GUARD/2 - prec) of it from there,
    at every prec: with 16 guard bits under 2^-7 ulp, before the one rounding
    adds its half unit per part.
    """
    t = mpf_pos(t, prec + _GUARD, round_nearest)
    tt = mpf_mul(t, t)
    q = mpf_div(tt, x, prec + _GUARD, round_nearest)
    below = mpf_cmp(mpf_mul(q, mpf_pi(prec), prec), from_float(_switch(prec))) < 0
    return _kummer(q, tt, x, prec) if below else _large_t(q, prec)


# ---------------------------------------------------------------------------
# Hurwitz zeta at odd integer arguments, regularized cotangent
# ---------------------------------------------------------------------------

@cache
def _em_ratios(count: int, bits: int) -> tuple:
    """floor(2^(bits + 6) c_m/c_{m-1}) for m = 2 .. count + 1, for the
    Euler--Maclaurin coefficients c_m = B_2m/(2m)!.

    c_m = (-1)^(m-1) T_m / (4^m (4^m - 1) (2m-1)!) from the tangent numbers
    T_m, which Brent and Harvey's in-place recurrence gives exactly in
    integers.  Exact floors, shared by every walk at these bits.
    """
    n = count + 1
    T = [0, 1]
    for k in range(2, n + 1):
        T.append((k - 1) * T[k - 1])
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            T[j] = (j - k) * T[j - 1] + (j - k + 2) * T[j]
    return tuple((-T[m] * (4 ** (m - 1) - 1) << (bits + 6))
                 // (4 * T[m - 1] * (4 ** m - 1) * (2 * m - 1) * (2 * m - 2))
                 for m in range(2, n + 1))


def zeta_odd_orders(a, ctx: PrecisionContext):
    """Yield zeta(3, a), zeta(5, a), ... for finite a > 0, each rounded once
    to the working precision, from one fixed-point Euler--Maclaurin pass.

    With u_k = a/(k + a) <= 1, w = K + a and c_m = B_2m/(2m)!,

        a^s zeta(s, a) = sum_{k<K} u_k^s
                         + u_K^s [w/(s-1) + 1/2 + sum_m c_m (s)_{2m-1} w^(1-2m)].

    Every quantity is an integer in units of 2^-P, P = prec + _GUARD; the
    scaled sum is at least u_0^s = 1, so the fixed point keeps full
    relative accuracy at every a and order.  Each order multiplies the
    running powers u_k^s by u_k^2 and steps a^-s by a^-2 at P bits, so
    order r carries about r roundings of 2^-P.  The corrections t_m run by
    the recurrence c_m/c_{m-1} (s+2m-3)(s+2m-2)/w^2, the ratio of the
    coefficients a floor at P + 6 bits (so within 2^-P relative, as
    |c_m/c_{m-1}| >= 1/60) and w^2 >= 100 one at P bits, the division
    exact to its floor: each step adds one relative 2^-P and one unit, as
    everywhere else in the walk.  They run until |t_m| <= tiny = 2^(_GUARD/2) units, which
    bounds the remainder since every derivative of (t + a)^-s is monotone.
    Once u_K^s underflows the tail is gone for good and the head sheds its
    zero powers.  The walk depends on (a, prec) alone, so order r has the
    same bits however it is reached.

    The head K = max(10, prec // 6) serves every order.  With V = u_K^s 2^P
    = (a/w)^s 2^P and |c_m| = 2 zeta(2m)/(2 pi)^(2m) (DLMF 25.6.2),
    t_m = V c_m (s)_{2m-1} w^(1-2m) and |t_(m+1)/t_m| < (s + 2m)^2/(2 pi w)^2
    < 1 while s + 2m < 2 pi w.  At the first m where that fails: for m = 1,
    t_1 = V s/(12 w) with s >= 2 pi w - 2, where s ln(1 + K/a) - ln s grows
    with s, so it is at least 2 pi K - 2 - ln(2 pi w); for m >= 2,
    n = s + 2m - 1 is within 1 of 2 pi w, and Stirling's bounds on
    (s)_{2m-1} = Gamma(n)/Gamma(s) give ln|t_m| <= P ln 2 - n + 1
    + ln(zeta(4)/pi) + s (1 + ln(2 pi a/s)) + 1/(2 pi w) + 1/(12 n), where
    s (1 + ln(2 pi a/s)) <= 2 pi a.  Either way ln|t_m| <= P ln 2 - 2 pi K + 1.35,
    at most ln tiny since 2 pi K >= (P - _GUARD/2) ln 2 + 1.35 at every prec
    (by 28 nats at digits 15, prec 103, K = 17).  So the corrections fall
    below tiny before they stop shrinking; the shrink check stays as a
    guard and raises PrecisionError on any input this does not cover, as
    it does at digits 15 with a head of prec // 8 = 12.
    """
    mp = ctx.mp
    prec = mp.prec
    P = prec + _GUARD
    tiny = 1 << (_GUARD // 2)
    a = mp.mpf(a)._mpf_
    A = to_fixed(a, P)
    K = max(10, prec // 6)
    # u_k^s and u_k^2, k = 0..K, from s = 1; u_K^s scales the tail
    powers = [(A << P) // ((k << P) + A) if k else 1 << P for k in range(K + 1)]
    squares = [u * u >> P for u in powers]
    W = (K << P) + A  # w = K + a
    W2, ratios = W * W >> P, ()  # w^2
    a_pow = mpf_div(fone, a, P, round_nearest)
    a_inv2 = mpf_mul(a_pow, a_pow, P, round_nearest)
    for s in itertools.count(3, 2):
        powers[:] = [p * q >> P for p, q in zip(powers, squares)]
        if len(powers) > K and powers[K] == 0:  # u_K^s underflowed: no tail from here on
            while powers[-1] == 0:
                powers.pop()
        total = sum(powers[:K])
        if len(powers) > K:  # u_K^s [w/(s-1) + 1/2 + corrections]
            V = powers[K]
            total += (V * W >> P) // (s - 1) + (V >> 1)
            t, m = (V * s << P) // (12 * W), 1  # c_1 = 1/12
            while abs(t) > tiny:
                total += t
                m += 1
                if m - 2 == len(ratios):
                    ratios = _em_ratios(2 * m, P)
                nxt = (t * ((s + 2 * m - 3) * (s + 2 * m - 2)) * ratios[m - 2] >> 6) // W2
                if abs(nxt) >= abs(t):
                    raise PrecisionError(f"zeta_odd_orders: the corrections at order {s} "
                                         f"stop shrinking above 2^-{P - _GUARD // 2}")
                t = nxt
        a_pow = mpf_mul(a_pow, a_inv2, P, round_nearest)  # a^-s
        yield mp.make_mpf(mpf_mul(from_man_exp(total, -P), a_pow, prec, round_nearest))


def cot_pi_reg(lam, ctx: PrecisionContext):
    """pi*cot(pi*lam) - 1/lam on |lam| < 1, continuously extended to 0 at 0.

    The closed form loses about 2 log2(1/|lam|) bits to cancellation near
    the removable singularity, so it runs with that many extra bits and is
    then rounded; the result is odd in lam.
    """
    mp = ctx.mp
    lam = mp.mpf(lam)
    if not abs(lam) < 1:
        raise DomainError(f"cot_pi_reg: |lam| must be < 1, got {lam}")
    if lam == 0:
        return mp.mpf(0)
    with mp.extraprec(max(0, -2 * mp.mag(lam)) + 10):
        res = mp.pi * mp.cospi(lam) / mp.sinpi(lam) - 1 / lam
    return +res
