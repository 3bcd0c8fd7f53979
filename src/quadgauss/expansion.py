"""Small-x evaluation of the quadratic exponential sum with a certificate.

For x -> 0 with N x finite, write xi = N x + theta = M + frac with M the
nearest integer (M >= 0 holds automatically) and frac in (-1/2, 1/2].
Then

    S_N(x, theta) = renorm + (f(N) - 1)/2
                    + e^{i pi/4}/(2 sqrt(x)) { K(theta) - f(N) K(frac) }
                    + 1/(2 pi i) sum_{r=0}^{n-1} (1/2)_r (x/(pi i))^r C_r
                    + R_n,

where the renormalization term is the rotated-and-rescaled short sum

    renorm = e^{-pi i theta^2/x + i pi/4} / sqrt(x)
             * sum_{j=j0}^{j1} exp(-pi i j^2/x + 2 pi i j theta/x),

    j0 = 0 if theta < 0 else 1,   j1 = M - 1 if frac < 0 else M

(zero when the range is empty), K is the signed kernel K(t) = E(t) for
t >= 0 and -E(-t) for t < 0, the coefficients are reflection differences
of Hurwitz zeta values,

    C_r = f(N) * hzeta_diff(r, frac) - hzeta_diff(r, theta),

smooth across integer xi, and the remainder carries the computable,
N-independent bound

    |R_n| <= ((1/2)_n / (2 pi)) (x/pi)^n [hzeta_sum(n, frac) + hzeta_sum(n, theta)],

whose hzeta_sum(n, theta) half drops at theta = 0, where the edge-0
boundary series vanishes identically.

For a negative theta or frac the kernel would reflect,
E(-t) = 2 e^{-pi i t^2/x} - E(t); the reflected unit phases are the
j = 0 and j = M terms of the short sum, so they are summed there instead
of cancelling each other after the 1/(2 sqrt(x)) prefactor, which would
leave eps/sqrt(x) of round-off behind.
K(theta) and K(frac) are always evaluated exactly through the kernel,
never replaced by their large-t series: for frac = o(sqrt(x)) that series
is invalid while the exact kernel stays uniformly accurate.

The series is divergent; its optimal truncation index is approximately
pi (1 - |frac|)^2 / x, far beyond the n ~ 10 used in practice.  Requests
at or past the optimum are honoured but flagged.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath.ctx_mp import MPContext

from .core import GaussParams, NearestSplit, direct_sum, phase_sum, phase_term, split_nearest
from .errors import DomainError
from .precision import PrecisionContext, ensure_finite
from .special import erfc_kernel, hzeta_diff, hzeta_sum

__all__ = [
    "ExpansionReport",
    "series_coeff",
    "remainder_bound",
    "asymptotic_sum",
    "reduced_sum_pair",
    "optimal_truncation",
]


@dataclass(frozen=True)
class ExpansionReport:
    """Everything one evaluation of the expansion produced.

    ``value`` reassembles exactly as renorm_term + boundary_term + E_term
    + sum(terms); ``script_S`` is the truncated series alone (the part the
    remainder bound certifies); ``beyond_optimal`` flags n >= optimal_n,
    where the divergent series has stopped gaining accuracy.
    """

    value: object
    script_S: object
    terms: tuple
    remainder_bound: object
    renorm_term: object
    boundary_term: object
    E_term: object
    n_used: int
    optimal_n: int
    beyond_optimal: bool


def series_coeff(r: int, params: GaussParams, split: NearestSplit | None = None,
                 ctx: PrecisionContext | None = None):
    """C_r = f(N) * hzeta_diff(r, frac) - hzeta_diff(r, theta).

    Well-defined and smooth as frac -> 0 or theta -> 0; identically zero
    when both vanish.
    """
    ctx = ctx or params.ctx
    split = split or split_nearest(params)
    fN = phase_term(params.N, params, ctx)
    return (fN * hzeta_diff(r, split.frac, ctx)
            - hzeta_diff(r, params.theta, ctx))


def remainder_bound(n: int, x, frac, theta, ctx: PrecisionContext):
    """((1/2)_n / (2 pi)) (x/pi)^n [hzeta_sum(n, frac) + hzeta_sum(n, theta)].

    Strictly positive and independent of N: a function of (n, x, frac,
    theta) only.  At theta = 0 the edge-0 boundary series vanishes
    identically, so its hzeta_sum(n, theta) half is left out.
    """
    mp = ctx.mp
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"remainder_bound: n must be a positive integer, got {n}")
    x = mp.mpf(x)
    half = mp.mpf(1) / 2
    poch = mp.mpf(1)
    for r in range(n):
        poch *= r + half
    zetas = hzeta_sum(n, frac, ctx)
    if mp.mpf(theta) != 0:
        zetas += hzeta_sum(n, theta, ctx)
    return poch / (2 * mp.pi) * (x / mp.pi) ** n * zetas


def _renorm_term(params: GaussParams, split: NearestSplit, mp):
    """e^{-pi i theta^2/x + i pi/4} / sqrt(x) * sum_{j=j0}^{j1} exp(-pi i j^2/x
    + 2 pi i j theta/x), j0 = 0 if theta < 0 else 1, j1 = M - 1 if frac < 0
    else M.

    The j = 0 term is exactly 1; an empty range gives 0 exactly.  The
    phases reach M^2/x (~N M at large N) and the rotation theta^2/x, so the
    sum and the rotation run with that many extra bits and the result is
    rounded once.  The rotation is two factors: adding 1/4 to theta^2/x
    before ``expjpi`` reduces it would round digits away.
    """
    first = 0 if params.theta < 0 else 1
    last = split.whole - 1 if split.frac < 0 else split.whole
    if last < first:
        return mp.mpc(0)
    x = params.x
    with mp.extraprec(max(0, mp.mag(max(1, split.whole) ** 2 / x))):
        short = phase_sum(-1 / x, params.theta / x, last, mp)
        if first == 0:
            short += 1
        rot = mp.expjpi(-params.theta * params.theta / x) * mp.expjpi(mp.mpf(1) / 4)
        res = rot / mp.sqrt(x) * short
    return +res


def _signed_kernel(t, x, ctx: PrecisionContext):
    """K(t) = E(t) for t >= 0, -E(-t) for t < 0: E(t) less the reflected
    unit phase 2 e^{-pi i t^2/x} that ``_renorm_term`` carries.

    The negation is exact, so a t carrying more than the working precision
    (the exact frac) keeps every bit.
    """
    if t < 0:
        return -erfc_kernel(ctx.mp.fneg(t, exact=True), x, ctx)
    return erfc_kernel(t, x, ctx)


def asymptotic_sum(params: GaussParams, n: int | None = None,
                   ctx: PrecisionContext | None = None) -> ExpansionReport:
    """Evaluate S_N by the certified expansion, truncated after n terms.

    n defaults to min(10, optimal truncation index).  The report's
    remainder_bound certifies |direct oracle - value| up to the oracle's
    own O(N eps) noise; the bound stays true for any valid parameters but
    is only *useful* in the small-x regime it was built for.
    """
    ctx = ctx or params.ctx
    mp = ctx.mp
    split = split_nearest(params)
    opt = optimal_truncation(params.x, split.frac)
    if n is None:
        n = min(10, opt)
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"asymptotic_sum: n must be a positive integer, got {n}")
    fN = phase_term(params.N, params, ctx)
    renorm = _renorm_term(params, split, mp)
    boundary = (fN - 1) / 2
    rot = mp.expjpi(mp.mpf(1) / 4)
    e_term = rot / (2 * mp.sqrt(params.x)) * (
        _signed_kernel(params.theta, params.x, ctx)
        - fN * _signed_kernel(split.frac, params.x, ctx))

    half = mp.mpf(1) / 2
    over_2pi_i = mp.mpc(0, -1) / (2 * mp.pi)  # 1/(2 pi i)
    xq = params.x / mp.pi
    scale = mp.mpc(1)  # (x/pi)^r * (-i)^r, exact quarter-turn rotation
    poch = mp.mpf(1)  # (1/2)_r
    terms = []
    series = mp.mpc(0)
    for r in range(n):
        if r > 0:
            poch *= r - half
            scale *= xq * mp.mpc(0, -1)
        term = over_2pi_i * poch * scale * series_coeff(r, params, split, ctx)
        terms.append(term)
        series += term

    value = renorm + boundary + e_term + series
    return ExpansionReport(
        value=ensure_finite(mp, value, "asymptotic_sum"),
        script_S=series,
        terms=tuple(terms),
        remainder_bound=remainder_bound(n, params.x, split.frac, params.theta, ctx),
        renorm_term=renorm,
        boundary_term=boundary,
        E_term=e_term,
        n_used=n,
        optimal_n=opt,
        beyond_optimal=n >= opt,
    )


def reduced_sum_pair(params: GaussParams, n: int, ctx: PrecisionContext | None = None):
    """(report, oracle-side reference) for the reduced sum the series targets.

    The reference subtracts renorm, boundary and kernel terms from the
    direct oracle; |reference - report.script_S| is the empirical |R_n|,
    and the partial sums of report.terms give it for every smaller n.
    """
    ctx = ctx or params.ctx
    report = asymptotic_sum(params, n, ctx)
    oracle = direct_sum(params, ctx)
    reference = oracle - report.renorm_term - report.boundary_term - report.E_term
    return report, reference


# Double precision with an unbounded exponent range; its precision is never
# changed, so sharing it between calls is safe.
_MP = MPContext()


def optimal_truncation(x, frac) -> int:
    """Index of the smallest series term, about pi (1 - |frac|)^2 / x.

    Evaluated in mp arithmetic at double precision, whose exponent range
    is unbounded, so every x the parameters accept gets a finite index.
    """
    x = _MP.mpf(x)
    if not (0 < x < 1):
        raise DomainError(f"optimal_truncation: x must lie in (0, 1), got {x}")
    frac = abs(_MP.mpf(frac))
    if frac > 0.5:
        raise DomainError(f"optimal_truncation: |frac| must be <= 1/2, got {frac}")
    return max(1, int(_MP.nint(_MP.pi * (1 - frac) ** 2 / x)))
