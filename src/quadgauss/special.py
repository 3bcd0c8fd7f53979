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

* ``hurwitz_zeta_odd`` -- zeta(2r+1, a) by Euler--Maclaurin with a shifted
  head of max(10, digits) terms and adaptive Bernoulli depth (it keeps full
  relative accuracy at the shifted arguments k0 + 1 -+ a of the edge
  layers), plus the regularized cotangent ``cot_pi_reg`` and the
  reflection sum/difference pairs ``hzeta_sum`` / ``hzeta_diff``: the
  closed forms of the expansion coefficients and the remainder
  certificate, kept as their reference.

All routines are pure functions of (arguments, context) and return values
rounded to the context's working precision.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """zeta(2r+1, a) = sum_{k>=0} (k+a)^(-2r-1) for integer r >= 1, a > 0.

    Euler--Maclaurin with a head of max(10, digits) shifted terms and
    Bernoulli corrections deepened until the first omitted term is below
    the target; relative error <= eps.
    """
    mp = ctx.mp
    if not isinstance(r, int) or r < 1:
        raise DomainError(f"hurwitz_zeta_odd: r must be an integer >= 1, got {r}")
    a = mp.mpf(a)
    if not (a > 0):
        raise DomainError(f"hurwitz_zeta_odd: a must be positive, got {a}")
    return _hzeta(mp, 2 * r + 1, a, max(10, ctx.digits))


def _hzeta(mp, s: int, a, head: int):
    """Euler--Maclaurin evaluation of zeta(s, a), integer s >= 2, a > 0."""
    with mp.extradps(10):
        a = mp.mpf(a)
        K = head
        while True:
            acc = mp.mpf(0)
            for k in range(K - 1, -1, -1):  # ascending magnitude
                acc += (k + a) ** (-s)
            w = K + a
            winv = 1 / w
            winv2 = winv * winv
            total = acc + w ** (1 - s) / (s - 1) + w ** (-s) / 2
            # Bernoulli corrections t_m = B_{2m}/(2m)! (s)_{2m-1} w^{1-s-2m}
            poch = mp.mpf(s)  # (s)_{2m-1}
            wpow = w ** (1 - s) * winv2  # w^{1-s-2m}
            fact = mp.mpf(2)  # (2m)!
            stop = mp.mpf(10) ** (-(mp.dps - 2))
            m = 1
            prev = None
            converged = False
            while True:
                t = mp.bernoulli(2 * m) / fact * poch * wpow
                total += t
                at = abs(t)
                if at < stop * abs(total):
                    converged = True
                    break
                if prev is not None and at > prev:
                    break  # divergence onset before target: enlarge head
                prev = at
                m += 1
                poch *= (s + 2 * m - 3) * (s + 2 * m - 2)
                wpow *= winv2
                fact *= (2 * m - 1) * (2 * m)
            if converged:
                break
            K *= 2
        res = total
    return +res


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
