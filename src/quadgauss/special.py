"""Extended-precision special functions on the quarter-turn rays.

The evaluation engine needs four primitives.  Hand-rolled code is kept
only where it buys a certified bound or freedom from phase round-off;
everything else is mpmath's own:

* ``erfc_complex`` -- complementary error function of a complex argument,
  mpmath's ``erfc`` at the context's working precision behind a
  finite-argument check.

* ``erfc_kernel`` -- E(t) = exp(-pi i t^2/x) erfc(omega t sqrt(pi/x)) with
  omega = exp(-i pi/4): the boundary kernel of the continuum approximation
  to the quadratic exponential sum.  E(0) = 1 and
  E(-t) = 2 exp(-pi i t^2/x) - E(t) follow from the erfc reflection.  For
  t > 0, z^2 = -i pi t^2/x exactly, so E(t) = e^{z^2} erfc(z)
  = U(1/2, 1/2, z^2)/sqrt(pi) (DLMF 13.6).  For |z|^2 <= 16 it is the
  phase factor times ``erfc_complex``; beyond that one call to mpmath's
  ``hyperu`` evaluates it from z^2 alone, without ever forming the
  oscillatory factor, so no phase round-off enters however large t^2/x
  grows.

* ``erfc_kernel_asym`` -- the large-t series of E with a certified tail
  bound: for t > 0 and n >= 1,

      E(t) = pi^(-1/2) sum_{r<n} (-1)^r (1/2)_r (i x/(pi t^2))^(r+1/2) + T_n,
      |T_n| <= ((1/2)_n / sqrt(pi)) (x/(pi t^2))^(n+1/2),

  the bound being the standard first-omitted-term estimate for erfc on
  |arg z| <= pi/4 (DLMF 7.12(i)).

* ``zeta_odd_orders`` -- zeta(3, a), zeta(5, a), ... from one fixed-point
  integer Euler--Maclaurin pass: a head of prec/6 terms scaled by
  a^s (so the sum is >= 1 and keeps full relative accuracy at the edge
  layers' arguments k0 + 1 -+ a), one more order per multiplication of the
  running powers, and Bernoulli corrections from a process-wide cache of
  B_2m/(2m)! ratios.  ``hurwitz_zeta_odd`` is its order r, so the edge
  layers, the remainder certificate and the regularized cotangent
  ``cot_pi_reg`` with the reflection pairs ``hzeta_sum`` / ``hzeta_diff``
  (the closed forms kept as the layers' reference) share one engine.

All routines are pure functions of (arguments, context) and return values
rounded to the context's working precision; the Bernoulli cache holds
exact floors that every caller reads alike.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from mpmath.libmp import from_man_exp, mpf_mul, mpf_pow_int, round_nearest, to_fixed

from .errors import DomainError
from .precision import PrecisionContext, ensure_finite

__all__ = [
    "BoundedValue",
    "erfc_complex",
    "erfc_kernel",
    "erfc_kernel_asym",
    "hurwitz_zeta_odd",
    "cot_pi_reg",
    "hzeta_diff",
    "hzeta_sum",
]


@dataclass(frozen=True)
class BoundedValue:
    """A value paired with a rigorous absolute-error bound (>= 0)."""

    value: object
    bound: object


# ---------------------------------------------------------------------------
# complementary error function
# ---------------------------------------------------------------------------

# erfc_kernel multiplies the phase by erfc_complex up to this |z|^2, where
# that is faster than mpmath's hyperu, and calls hyperu beyond it.
_SERIES_RADIUS2 = 16


def erfc_complex(z, ctx: PrecisionContext):
    """erfc(z) for complex z: mpmath's erfc at the working precision."""
    mp = ctx.mp
    z = mp.mpc(z)
    if not (mp.isfinite(z.real) and mp.isfinite(z.imag)):
        raise DomainError("erfc_complex: argument must be finite")
    return ensure_finite(mp, mp.erfc(z), "erfc_complex")


# ---------------------------------------------------------------------------
# the kernel E(t)
# ---------------------------------------------------------------------------


def erfc_kernel(t, x, ctx: PrecisionContext):
    """E(t) = exp(-pi i t^2/x) erfc(omega t sqrt(pi/x)), omega = e^{-i pi/4}.

    Defined for 0 < x < 1 and any real t.  For t > 0 the argument sits on
    the -pi/4 ray where z^2 = -i pi t^2/x exactly, so E(t) = e^{z^2} erfc(z)
    = U(1/2, 1/2, z^2)/sqrt(pi) (DLMF 13.6): beyond |z|^2 = 16 mpmath's
    ``hyperu`` evaluates it from z^2 alone, *without* the oscillatory
    factor -- no phase roundoff however large t^2/x grows.  Negative t goes
    through the reflection E(-t) = 2 exp(-pi i t^2/x) - E(t), whose leading
    term carries the (genuine) oscillation.  Its phase t^2/x is formed from
    the unrounded t with as many extra bits as it has integer bits, so an
    mpf t carrying more than the working precision (an exact fractional
    part of N x + theta) keeps them all.
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
    r2 = mp.pi * t * t / x  # |z|^2
    if r2 <= _SERIES_RADIUS2:
        z = mp.expjpi(mp.mpf(-1) / 4) * (t * mp.sqrt(mp.pi / x))
        value = mp.expjpi(-(t * t / x)) * erfc_complex(z, ctx)
    else:
        half = mp.mpf(1) / 2
        value = mp.hyperu(half, half, mp.mpc(0, -r2)) / mp.sqrt(mp.pi)
    return ensure_finite(mp, value, "erfc_kernel")


def erfc_kernel_asym(t, x, n: int, ctx: PrecisionContext) -> BoundedValue:
    """Large-t series of E(t) truncated after n terms, with certified bound.

    Requires t > 0 (callers reflect negative arguments themselves), x in
    (0, 1), n >= 1.  The bound (1/2)_n (x/(pi t^2))^{n+1/2} / sqrt(pi)
    dominates |E(t) - value| for every t > 0.
    """
    mp = ctx.mp
    x = mp.mpf(x)
    t = mp.mpf(t)
    if not (0 < x < 1):
        raise DomainError(f"erfc_kernel_asym: x must lie in (0, 1), got {x}")
    if t <= 0:
        raise DomainError("erfc_kernel_asym: t must be positive")
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"erfc_kernel_asym: n must be a positive integer, got {n}")
    w = x / (mp.pi * t * t)
    half = mp.mpf(1) / 2
    # sum_{r<n} (1/2)_r (-i w)^r, then rotate by i^(1/2) = e^{i pi/4}
    miw = mp.mpc(0, -1) * w
    term = mp.mpc(1)
    acc = mp.mpc(1)
    poch = mp.mpf(1)  # (1/2)_r
    for r in range(1, n):
        poch *= r - half
        term = term * miw * (r - half)
        acc += term
    poch *= n - half  # (1/2)_n
    rot = mp.expjpi(mp.mpf(1) / 4)
    value = rot * mp.sqrt(w) * acc / mp.sqrt(mp.pi)
    bound = poch * w ** (n + half) / mp.sqrt(mp.pi)
    return BoundedValue(ensure_finite(mp, value, "erfc_kernel_asym"), bound)


# ---------------------------------------------------------------------------
# Hurwitz zeta at odd integer arguments, regularized cotangent
# ---------------------------------------------------------------------------


def hurwitz_zeta_odd(r: int, a, ctx: PrecisionContext):
    """zeta(2r+1, a) = sum_{k>=0} (k+a)^(-2r-1) for integer r >= 1, finite a > 0.

    Order r of ``zeta_odd_orders``, bit for bit: a caller that walks the
    orders and one that asks for a single order read the same value.  Each
    call walks orders 1..r, so a caller that needs many orders should walk
    ``zeta_odd_orders`` once.
    """
    mp = ctx.mp
    if not isinstance(r, int) or r < 1:
        raise DomainError(f"hurwitz_zeta_odd: r must be an integer >= 1, got {r}")
    a = mp.mpf(a)
    if not (a > 0 and mp.isfinite(a)):
        raise DomainError(f"hurwitz_zeta_odd: a must be positive and finite, got {a}")
    return next(itertools.islice(zeta_odd_orders(a, ctx), r - 1, None))


# Bits the fixed-point engine carries beyond the working precision; terms
# below 2^(_GUARD/2) of its units are dropped.
_GUARD = 32
# The head starts with one term per _HEAD_BITS bits of working precision.
_HEAD_BITS = 6

# (bits, R): R[m-2] = floor(2^(bits + 6) c_m/c_{m-1}), m = 2, 3, ..., for
# the Euler--Maclaurin coefficients c_m = B_2m/(2m)!.  A floor shifted
# right is the floor at fewer bits, so every caller reads the same integers
# whatever precision the cache was built at.  The tuple is replaced whole,
# never changed in place, so threads may share it.
_EM_RATIOS = (0, ())


def _em_ratios(count: int, bits: int) -> list:
    """floor(2^(bits + 6) c_m/c_{m-1}) for m = 2 .. count + 1.

    c_m = (-1)^(m-1) T_m / (4^m (4^m - 1) (2m-1)!) from the tangent numbers
    T_m, which Brent and Harvey's in-place recurrence gives exactly in
    integers.
    """
    global _EM_RATIOS
    have, ratios = _EM_RATIOS
    if have < bits or len(ratios) < count:
        have, n = max(have, bits), max(count, len(ratios)) + 1
        T = [0, 1]
        for k in range(2, n + 1):
            T.append((k - 1) * T[k - 1])
        for k in range(2, n + 1):
            for j in range(k, n + 1):
                T[j] = (j - k) * T[j - 1] + (j - k + 2) * T[j]
        ratios = tuple((-T[m] * (4 ** (m - 1) - 1) << (have + 6))
                       // (4 * T[m - 1] * (4 ** m - 1) * (2 * m - 1) * (2 * m - 2))
                       for m in range(2, n + 1))
        _EM_RATIOS = (have, ratios)
    return [c >> (have - bits) for c in ratios[:count]]


def zeta_odd_orders(a, ctx: PrecisionContext):
    """Yield zeta(3, a), zeta(5, a), ... for finite a > 0, each rounded once
    to the working precision, from one fixed-point Euler--Maclaurin pass.

    With u_k = a/(k + a) <= 1 and w = K + a,

        a^s zeta(s, a) = sum_{k<K} u_k^s
                         + u_K^s [w/(s-1) + 1/2 + sum_m c_m (s)_{2m-1} w^(1-2m)],

    c_m = B_2m/(2m)!.  Every quantity is an integer in units of 2^-P,
    P = prec + _GUARD; the scaled sum is at least u_0^s = 1, so the fixed
    point keeps full relative accuracy at every a and order.  Each order
    multiplies the running powers u_k^s by u_k^2; the corrections run by
    the recurrence c_m/c_{m-1} (s+2m-3)(s+2m-2)/w^2 until they drop below
    2^(-prec-16), which bounds the Euler--Maclaurin remainder since every
    derivative of (t + a)^-s is monotone.  The head starts at prec/6 terms,
    which makes 2 pi w, the depth the corrections can reach, exceed P ln 2;
    it doubles, as the old per-call pass did, if they grow first.  Once
    u_K^s underflows the tail is gone for good and the head sheds its zero
    powers.  The walk depends on (a, prec) alone, so order r has the same
    bits however it is reached.
    """
    mp = ctx.mp
    prec = mp.prec
    P = prec + _GUARD
    tiny = 1 << (_GUARD // 2)
    a = mp.mpf(a)._mpf_
    A = to_fixed(a, P)
    powers, squares = [], []  # u_k^s and u_k^2, k = 0..K; u_K^s scales the tail

    def extend_head(K, s):
        for k in range(len(powers), K + 1):
            u = (A << P) // ((k << P) + A) if k else 1 << P
            squares.append(u * u >> P)
            powers.append(pow(u, s) >> (P * (s - 1)))

    def em_tail(K, W, s, kappa):
        """u_K^s [w/(s-1) + 1/2 + corrections], or None if they grow first."""
        V = powers[K]
        Q = P + 2 * (W >> P).bit_length() + 8
        total = (V * W >> P) // (s - 1) + (V >> 1)
        t = (V * s << P) // (12 * W)  # c_1 = 1/12
        m = 1
        while abs(t) > tiny:
            total += t
            m += 1
            if m - 2 == len(kappa):  # c_m/(c_{m-1} w^2) in units of 2^-Q
                winv2 = (1 << (Q + 2 * P)) // (W * W)
                kappa[:] = [c * winv2 >> (P + 6) for c in _em_ratios(2 * m, P)]
            nxt = t * ((s + 2 * m - 3) * (s + 2 * m - 2)) * kappa[m - 2] >> Q
            if abs(nxt) >= abs(t):
                return None
            t = nxt
        return total

    K = max(10, prec // _HEAD_BITS)
    extend_head(K, 1)
    W, kappa = (K << P) + A, []  # w = K + a
    tail_live = True
    for s in itertools.count(3, 2):
        powers[:] = [p * q >> P for p, q in zip(powers, squares)]
        tail = 0
        if tail_live and powers[K] == 0:  # u_K^s underflowed: no tail from here on
            tail_live = False
            while powers[-1] == 0:
                powers.pop()
        while tail_live and (tail := em_tail(K, W, s, kappa)) is None:
            K *= 2
            extend_head(K, s)
            W, kappa = (K << P) + A, []
        head = sum(powers[:K]) if tail_live else sum(powers)
        value = mpf_mul(from_man_exp(head + tail, -P), mpf_pow_int(a, -s, P),
                        prec, round_nearest)
        yield mp.make_mpf(value)


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


def hzeta_diff(r: int, lam, ctx: PrecisionContext):
    """Reflection difference: pi*cot(pi*lam) - 1/lam for r = 0, else
    zeta(2r+1, 1+lam) - zeta(2r+1, 1-lam).  Odd in lam, zero at lam = 0."""
    mp = ctx.mp
    lam = mp.mpf(lam)
    if not abs(lam) < 1:
        raise DomainError(f"hzeta_diff: |lam| must be < 1, got {lam}")
    if not isinstance(r, int) or r < 0:
        raise DomainError(f"hzeta_diff: r must be an integer >= 0, got {r}")
    if r == 0:
        return cot_pi_reg(lam, ctx)
    if lam == 0:
        return mp.mpf(0)
    return hurwitz_zeta_odd(r, 1 + lam, ctx) - hurwitz_zeta_odd(r, 1 - lam, ctx)


def hzeta_sum(r: int, lam, ctx: PrecisionContext):
    """Reflection sum zeta(2r+1, 1+lam) + zeta(2r+1, 1-lam), r >= 1.

    Even in lam and strictly positive; equals 2*zeta(2r+1) at lam = 0."""
    mp = ctx.mp
    lam = mp.mpf(lam)
    if not abs(lam) < 1:
        raise DomainError(f"hzeta_sum: |lam| must be < 1, got {lam}")
    if not isinstance(r, int) or r < 1:
        raise DomainError(f"hzeta_sum: r must be an integer >= 1, got {r}")
    return hurwitz_zeta_odd(r, 1 + lam, ctx) + hurwitz_zeta_odd(r, 1 - lam, ctx)
