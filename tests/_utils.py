"""Shared test helpers: independent oracles and formatting."""

from quadgauss import PrecisionContext, phase_sum


def sig3(value) -> str:
    """Round to 3 significant figures as a comparable string."""
    return f"{float(value):.2e}"


def erfc_quadrature(z, ctx):
    """(2/sqrt(pi)) * integral_z^inf exp(-t^2) dt along t = z + s, s >= 0.

    Independent quadrature oracle; the integrand is entire and decays like
    exp(-s^2 - 2 s Re z), so the horizontal path is legitimate for any z.
    """
    mp = ctx.mp
    z = mp.mpc(z)
    integrand = lambda s: mp.exp(-((z + s) ** 2))
    val = mp.quad(integrand, [0, 1, 4, 12, mp.inf])
    return 2 / mp.sqrt(mp.pi) * val

def zeta_series_oracle(s, a, ctx, k0=200000):
    """Direct series head plus integral tail for zeta(s, a), with a bound.

    Returns (value, error_bound): the head is summed verbatim, the tail is
    integral + half-term, and the bound is twice the first Euler--Maclaurin
    correction, which dominates what that tail handling omits.
    """
    mp = ctx.mp
    a = mp.mpf(a)
    head = mp.mpf(0)
    for k in range(k0 - 1, -1, -1):
        head += (k + a) ** (-s)
    w = k0 + a
    value = head + w ** (1 - s) / (s - 1) + w ** (-s) / 2
    bound = 2 * s * w ** (-s - 1) / 12
    return value, bound


def _hzeta(mp, s: int, a, head: int):
    """Euler--Maclaurin evaluation of zeta(s, a), integer s >= 2, a > 0.

    One mpf pass per call: a head of ``head`` terms, doubled while the
    Bernoulli corrections diverge before they fall below the target.  The
    independent reference for ``special.zeta_odd_orders``.
    """
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


def machin_pi(ctx):
    """pi by Machin's arctangent formula; independent of mpmath.pi."""
    mp = ctx.mp

    def atan_inv(q):
        # arctan(1/q) for integer q > 1 by the alternating Taylor series
        q2 = q * q
        term = mp.mpf(1) / q
        total = term
        k = 0
        stop = mp.mpf(10) ** (-(mp.dps + 5))
        while abs(term) > stop:
            k += 1
            term = -term / q2
            total += term / (2 * k + 1)
        return total

    with mp.extradps(10):
        val = 16 * atan_inv(5) - 4 * atan_inv(239)
    return +val


def ctx_at(digits) -> PrecisionContext:
    return PrecisionContext(digits)


def _kernel(mp, t, x):
    """E(t) = exp(-pi i t^2/x) erfc(e^{-i pi/4} t sqrt(pi/x)) at mp's precision.

    The phase times mpmath's erfc, with guard bits for the argument's
    rounding, for t < 0 (at the negative argument itself, not through the
    reflection the kernel uses) and for t > 0 up to |z|^2 = pi t^2/x = 16;
    U(1/2, 1/2, -i pi t^2/x)/sqrt(pi) by mpmath's hyperu beyond it (DLMF
    13.6).  The independent reference for ``special.erfc_kernel``.
    """
    x = mp.mpf(x)
    t = mp.convert(t)
    if t == 0:
        return mp.mpc(1)
    tt = mp.fmul(t, t, exact=True)
    with mp.extraprec(max(0, mp.mag(tt / x))):
        phase = mp.expjpi(-(tt / x))
    r2 = mp.pi * tt / x
    if t < 0 or r2 <= 16:
        with mp.extraprec(mp.mag(r2) + 20):
            res = phase * mp.erfc(mp.expjpi(mp.mpf(-1) / 4) * (t * mp.sqrt(mp.pi / x)))
        return +res
    half = mp.mpf(1) / 2
    return mp.hyperu(half, half, mp.mpc(0, -r2)) / mp.sqrt(mp.pi)


def kernel_large_t(mp, t, x, n):
    """(value, bound) of the large-t series of E(t), t > 0, cut after n terms
    (DLMF 7.12(i)):

        E(t) = pi^(-1/2) sum_{r<n} (-1)^r (1/2)_r (i w)^(r+1/2) + T_n,
        |T_n| <= ((1/2)_n / sqrt(pi)) w^(n+1/2),   w = x/(pi t^2),

    in mpmath arithmetic with guard digits, rounded to mp's precision.  The
    independent reference for the series ``special.erfc_kernel`` sums.
    """
    with mp.extradps(10):
        w = mp.mpf(x) / (mp.pi * mp.mpf(t) ** 2)
        half = mp.mpf(1) / 2
        value = mp.fsum((-1) ** r * mp.rf(half, r) * mp.mpc(0, w) ** (r + half)
                        for r in range(n)) / mp.sqrt(mp.pi)
        bound = mp.rf(half, n) * w ** (n + half) / mp.sqrt(mp.pi)
    return +value, +bound


def _expjpi_sums(x, theta, count, mp, stride):
    """Yield (j, S_j) for j = stride, 2 stride, ... <= count, where
    S_j = sum_{k=1}^{j} exp(i pi (x k^2 + 2 theta k)), one ``mp.expjpi``
    per term in working-precision arithmetic.

    The phase loop before the fixed-point kernel, kept as the independent
    reference for ``core._phase_partial_sums``: each phase is rounded once
    at the working precision, so phases of size P need about log2 P extra
    bits to keep their fractional part.
    """
    total = mp.mpc(0)
    two_theta = 2 * mp.mpf(theta)
    x = mp.mpf(x)
    for j in range(1, count + 1):
        total += mp.expjpi(x * (j * j) + two_theta * j)
        if j % stride == 0:
            yield j, total


def periodic_sum(p, k, theta, N, ctx):
    """S_N(p/2^k, theta) for any N from two phase sums of at most 2^k terms.

    With L = 2^k, x (2 j L + L^2) = 2 p j + p 2^k is even, so f(j + L) =
    e^{2 pi i u} f(j) with u = theta L, and with N = Q L + R, 0 <= R < L,

        S_N = S_L G(Q) + e^{2 pi i u Q} S_R,
        G(c) = sum_{m<c} e^{2 pi i u m} = e^{i pi u (c-1)} sin(pi u c) / sin(pi u),

    with G(c) = c when sin(pi u) = 0.  It shares only the phase kernel with
    the routes, whose short sum is the chirp: no skeleton, erfc kernel or
    zeta walk.  u Q is formed exactly,
    so the rounding is that of the two phase sums and a few products.
    """
    mp = ctx.mp
    L = 1 << k
    x = mp.mpf(p) / L
    theta = mp.mpf(theta)
    u = theta * L  # a power-of-two scaling: exact
    Q, R = divmod(N, L)
    uQ = mp.fmul(u, Q, exact=True)
    S_L, S_R = phase_sum(x, theta, L, mp), phase_sum(x, theta, R, mp)
    s = mp.sinpi(u)
    G = Q if s == 0 else mp.expjpi(mp.fsub(uQ, u, exact=True)) * mp.sinpi(uQ) / s
    return S_L * G + mp.expjpi(mp.ldexp(uQ, 1)) * S_R
