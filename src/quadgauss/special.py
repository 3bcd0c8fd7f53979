"""Extended-precision special functions on the quarter-turn rays.

The routes need three engines.  Hand-rolled code is kept only where it
buys a certified bound, freedom from phase round-off or a measured gain
in speed and accuracy; everything else is mpmath's own:

* ``erfc_kernel`` -- E(t) = exp(-pi i t^2/x) erfc(omega t sqrt(pi/x)) with
  omega = exp(-i pi/4): the boundary kernel of the continuum approximation
  to the quadratic exponential sum.  E(0) = 1 and
  E(-t) = 2 exp(-pi i t^2/x) - E(t) follow from the erfc reflection.  For
  t > 0, z^2 = -i r2 exactly, r2 = pi t^2/x, so E(t) = e^{z^2} erfc(z) is
  a function of r2 alone, summed in fixed-point integers: Kummer's series
  up to r2 = prec ln 2 or so, at as many extra bits as its terms cancel,
  and the large-t series (``_large_t``) beyond, which never forms the
  oscillatory factor, so no phase round-off enters however large t^2/x
  grows.  That series stops at the first-omitted-term bound for erfc on
  |arg z| <= pi/4 (DLMF 7.12(i)).

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

from .errors import DomainError, PrecisionError
from .precision import PrecisionContext, ensure_finite

__all__ = [
    "erfc_kernel",
    "cot_pi_reg",
]


# Bits the fixed-point loops (the kernel's two series, the Hurwitz-zeta
# walk) carry beyond the working precision prec; the walk and the large-t
# series drop terms below 2^-(prec + _GUARD/2).
_GUARD = 32


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
    """(re, im) of pi^(-1/2) sum_r (-1)^r (1/2)_r (i/r2)^(r+1/2),
    r2 = pi q > 0, q an mpf tuple, rounded to prec bits.

    The sum is e^{i pi/4} (pi r2)^(-1/2) sum_r c_r (-i)^r with c_0 = 1 and
    c_r = c_(r-1) (2r - 1)/(2 r2), summed in integers in units of 2^-Q,
    Q = prec + 2 _GUARD, one running sum per power of -i.  It stops
    before the first c_r below 2^-(prec + _GUARD/2), the
    first-omitted-term bound relative to the leading term (DLMF 7.12(i));
    ``_switch`` makes sure that happens.  Over T terms the floors, and
    that of 1/(2 r2), cost at most T^3 units, below that bound for
    T < 2^16.  The precision depends on prec alone, however large r2 is.
    """
    Q = prec + 2 * _GUARD
    F = prec + _GUARD
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
    lead = mpf_div(fone, mpf_mul(pi, mpf_sqrt(mpf_shift(q, 1), F), F), F)
    return (mpf_mul(lead, from_man_exp(re - im, -Q), prec, round_nearest),
            mpf_mul(lead, from_man_exp(re + im, -Q), prec, round_nearest))


def _kummer(q, tt, x, prec: int):
    """(re, im) of E(t) for t > 0 with t^2 = tt, from Kummer's series, rounded
    to prec bits, q = t^2/x to prec + _GUARD bits: with r2 = pi t^2/x,

        E = e^{-i pi t^2/x} - 2 e^{-i pi/4} (t/sqrt(x)) sum_n (-2i r2)^n/(2n+1)!!.

    The terms reach about e^r2 and cancel to O(1), so they are summed in
    integers in units of 2^-Q, Q = prec + _GUARD + ceil(r2 log2 e) + bits
    of a term count: each floor costs at most e^r2 units, and the terms
    fall below one unit within max(2 e r2, Q) of them; the sum stops at
    one below 2^-(prec + _GUARD) once the ratios are below 1/2.  It is a
    smooth O(1) function of r2, so r2 needs only an absolute
    2^-(prec + _GUARD): it carries prec + _GUARD + mag(r2) bits and
    multiplies the terms at that many, and the unit phase is expjpi of
    t^2/x to the same absolute accuracy.
    """
    F = prec + _GUARD
    extra = max(0, q[2] + q[3])  # mag(t^2/x)
    if extra:
        q = mpf_div(tt, x, F + extra, round_nearest)
    r2 = mpf_mul(q, mpf_pi(F + extra + 2), F + extra + 2)
    size = to_float(r2)
    Q = F + int(size / _LN2) + 1
    Q += (6 * int(size) + Q).bit_length()
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
    return from_man_exp(re, -F, prec, round_nearest), from_man_exp(im, -F, prec, round_nearest)


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
    for t > 0 the series read t to prec + 2 _GUARD bits, so an mpf t
    carrying more than the working precision (an exact fractional part of
    N x + theta) keeps more than they need.
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
        value = 2 * phase - erfc_kernel(-t, x, ctx)
        return ensure_finite(mp, value, "erfc_kernel")
    prec = mp.prec
    # t^2/x to prec + 2 _GUARD - 2 bits: the absolute 2^-(prec + _GUARD)
    # Kummer's branch needs while t^2/x < 2^30, true below the switch
    t = mpf_pos(t._mpf_, prec + 2 * _GUARD, round_nearest)
    tt = mpf_mul(t, t)
    q = mpf_div(tt, x._mpf_, prec + _GUARD, round_nearest)
    if mpf_cmp(mpf_mul(q, mpf_pi(prec), prec), from_float(_switch(prec))) < 0:
        value = _kummer(q, tt, x._mpf_, prec)
    else:
        value = _large_t(q, prec)
    return ensure_finite(mp, mp.make_mpc(value), "erfc_kernel")


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
    the recurrence c_m/c_{m-1} (s+2m-3)(s+2m-2)/w^2 until |t_m| <= tiny =
    2^(_GUARD/2) units, which bounds the remainder since every derivative
    of (t + a)^-s is monotone.  Once u_K^s underflows the tail is gone for
    good and the head sheds its zero powers.  The walk depends on (a, prec)
    alone, so order r has the same bits however it is reached.

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
    at most ln tiny since 2 pi K >= (P - 16) ln 2 + 1.35 at every prec (by
    23 nats at digits 15, prec 103, K = 17).  So the corrections fall below
    tiny before they stop shrinking; the shrink check stays as a guard and
    raises PrecisionError on any input this does not cover.
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
    Q = P + 2 * (W >> P).bit_length() + 8
    winv2, kappa = (1 << (Q + 2 * P)) // (W * W), []  # c_m/(c_{m-1} w^2), units 2^-Q
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
                if m - 2 == len(kappa):
                    kappa = [c * winv2 >> (P + 6) for c in _em_ratios(2 * m, P)]
                nxt = t * ((s + 2 * m - 3) * (s + 2 * m - 2)) * kappa[m - 2] >> Q
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
