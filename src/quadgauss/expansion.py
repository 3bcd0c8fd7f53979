"""One decomposition of the quadratic exponential sum for both certified routes.

Write xi = N x + theta = M + frac with M the nearest integer and frac in
(-1/2, 1/2].  On all of 0 < x < 1,

    S_N = renorm + (f(N) - 1)/2 + e^{i pi/4}/(2 sqrt(x)) { K(theta) - f(N) K(frac) }
          + e^{i pi/4} { f(N) T(frac) - T(theta) },

with renorm the rotated short sum of M or so phases exp(-pi i (j - theta)^2/x)
(``_renorm_term``), K the signed erfc kernel, K(t) = E(t) for t >= 0 and
-E(-t) for t < 0, and T the edge series at an offset |a| <= 1/2,

    T(a) = 1/(2 sqrt(x)) sum_{k>=1} [E(k - a) - E(k + a)].

This is the erfc representation obtained by contour deformation,

    S_N = (f(N) - 1)/2 + J_N + e^{i pi/4} (I_N - I_0),
    J_N = e^{i pi/4} / (2 sqrt(x)) * { E(theta) - f(N) E(N x + theta) },
    I_j = f(j) / (2 sqrt(x)) * sum_{k>=1} { E(k - a) - E(k + a) },  a = j x + theta,

re-indexed: by the reflection E(-t) = 2 e^{-pi i t^2/x} - E(t), the pairs
of I_N below xi and J_N's E(xi) become the phases j = 1..M of the short
sum, the kernel term at frac and T(frac); a negative theta or frac moves
the phase j = 0 or j = M between the short sum and K.  The reflected
phases are summed there rather than left to cancel after the
1/(2 sqrt(x)) prefactor, which would leave eps/sqrt(x) of round-off, so
no route evaluates the kernel at a negative argument.  K(theta) and
K(frac) always go through the exact kernel: for frac = o(sqrt(x)) their
large-t series is invalid.

``edge_layers`` is all of T(a) at any window k0: the pairs k <= k0
through the kernel, then the large-t series of E over k > k0 order by
order (a digamma difference, then Hurwitz-zeta differences), with the
leftover after n layers bounded by

    ((1/2)_n / (2 pi)) (x/pi)^n [zeta(2n+1, k0+1-a) + zeta(2n+1, k0+1+a)].

k0 sets the cost, not the sum, so the routes differ only in how they
walk the two edges; ``_evaluate`` forms everything else once for both.
``asym`` takes k0 = 0 and n layers of each edge: the paper's series in
powers of x/pi and its N-independent remainder bound, of which either
term drops at a zero offset, where its T(a) vanishes.  ``exact`` takes
the least proven window k0 and deepens the layers to its tolerance.

The series of ``asym`` is divergent; its optimal truncation index is
about pi (1 - max(|frac|, |theta|))^2 / x, where the layers of the edge
with the larger offset stop shrinking, far beyond the n ~ 10 used in
practice.
Requests at or past the optimum are honoured but flagged.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from mpmath import MPContext
from mpmath.libmp import (from_man_exp, mpf_add, mpf_mul, mpf_neg, mpf_sqrt, mpf_sub, round_nearest,
                          to_fixed)

from .core import GaussParams, _chirp_sum, phase_term
from .errors import DomainError, ResourceBudgetError
from .precision import PrecisionContext, ensure_finite
from .special import cot_pi_reg, erfc_kernel, zeta_odd_orders

__all__ = [
    "ExpansionReport",
    "edge_layers",
    "asymptotic_sum",
]


class ExpansionReport(NamedTuple):
    """Everything one evaluation of the expansion produced.

    ``value`` is renorm_term + boundary_term + E_term + fsum(terms),
    rounded once more at each addition; ``terms[r]`` is layer r of the
    series e^{i pi/4} (f(N) T(frac) - T(theta)) and ``bounds[r]`` bounds
    what the first r + 1 terms leave out.  ``remainder_bound`` is the
    bound after all of them, and ``beyond_optimal`` flags
    len(terms) >= optimal_n, where the divergent series has stopped
    gaining accuracy.
    """

    value: object
    terms: tuple
    bounds: tuple
    renorm_term: object
    boundary_term: object
    E_term: object
    optimal_n: int

    @property
    def remainder_bound(self):
        return self.bounds[-1]

    @property
    def beyond_optimal(self) -> bool:
        return len(self.terms) >= self.optimal_n


def _digamma_gap(a, k0: int, ctx: PrecisionContext):
    """psi(k0+1+a) - psi(k0+1-a) = -cot_pi_reg(a) - a sum_{j=1}^{k0} 2/(j^2 - a^2),
    |a| <= 1/2.

    Both parts are odd in a and carry it as a factor, so a tiny a keeps its
    relative accuracy.  They are each about 1.6 (k0 + 1) times the result,
    and the sum's k0 floors, k0 2^-P of a sum near pi^2/3, cost about
    0.5 k0 (k0 + 1) 2^-P of the result; with the roundings of the
    cotangent and the product, all under 2 (k0 + 1)^2 2^-P of it.  So both
    run with 2 bitlen(k0 + 1) + 6 extra bits, which leave them within
    2^-(prec + 5) of the result before its rounding.
    """
    mp = ctx.mp
    with mp.extraprec(2 * (k0 + 1).bit_length() + 6):
        P = mp.prec
        a2 = to_fixed((a * a)._mpf_, P)
        total = sum((2 << 2 * P) // ((j * j << P) - a2) for j in range(1, k0 + 1))
        res = -(cot_pi_reg(a, ctx) + a * mp.make_mpf(from_man_exp(total, -P)))
    return +res


def edge_layers(x, a, k0: int, ctx: PrecisionContext):
    """Yield (term_r, bound_r), r = 0, 1, ..., of T(a), |a| <= 1/2: the
    terms sum to T(a), and bound_r bounds what terms 0..r leave out.

    term_0 carries the k0 kernel pairs, every argument positive.  The rest
    is layer r = e^{i pi/4} (1/2)_r (-i x/pi)^r D_r / (2 pi) with D_0 =
    psi(k0+1+a) - psi(k0+1-a) (``_digamma_gap``), D_r = zeta(2r+1, k0+1-a)
    - zeta(2r+1, k0+1+a); the order-(r+1) zeta pair gives bound_r.  One
    ``zeta_odd_orders`` walk at each of the two arguments supplies every
    order.  Each order is a few libmp operations at the working precision,
    rounded as mpmath's own arithmetic would round them: e^{i pi/4} (-i)^r
    is (+-1 +- i)/sqrt(2), a 4-cycle of exact quarter turns, so both parts
    of a layer are one real product up to sign.

    Raises DomainError when called, before any layer, unless k0 is a
    non-negative int and |a| <= 1/2: outside them the window and the zeta
    pair no longer describe the same T(a).
    """
    a = ctx.mp.convert(a)  # an mpf offset keeps every bit
    if not (isinstance(k0, int) and k0 >= 0 and abs(a) <= 0.5):
        raise DomainError(f"edge_layers: needs an int k0 >= 0 and |a| <= 1/2, got k0={k0!r}, a={a}")
    return _layers(x, a, k0, ctx)


def _layers(x, a, k0: int, ctx: PrecisionContext):
    """The generator of ``edge_layers``, on its checked arguments."""
    mp = ctx.mp
    prec, rnd = mp.prec, round_nearest
    xq = mp.mpf(x) / mp.pi
    coef = 1 / (2 * mp.pi)  # (1/2)_r (x/pi)^r / (2 pi)
    term = mp.expjpi(mp.mpf(1) / 4) * coef * _digamma_gap(a, k0, ctx)
    if k0 > 0:
        # pairs are combined before accumulation to exploit their cancellation
        pairs = mp.fsum(erfc_kernel(k - a, x, ctx) - erfc_kernel(k + a, x, ctx)
                        for k in range(1, k0 + 1))
        term += pairs / (2 * mp.sqrt(x))
    xq, coef = xq._mpf_, coef._mpf_
    root_half = mpf_sqrt(from_man_exp(1, -1), prec, rnd)
    # which parts of e^{i pi/4} (-i)^r sqrt(2) = 1 - i, -1 - i, -1 + i, 1 + i,
    # r = 1, 2, 3, 4, ..., are negative
    turns = itertools.cycle(((0, 1), (1, 1), (1, 0), (0, 0)))
    zetas = zip(zeta_odd_orders(k0 + 1 - a, ctx), zeta_odd_orders(k0 + 1 + a, ctx))
    for r, ((zm, zp), (neg_re, neg_im)) in enumerate(zip(zetas, turns), 1):
        zm, zp = zm._mpf_, zp._mpf_
        coef = mpf_mul(coef, mpf_mul(from_man_exp(2 * r - 1, -1), xq, prec, rnd), prec, rnd)
        yield term, mp.make_mpf(mpf_mul(coef, mpf_add(zm, zp, prec, rnd), prec, rnd))
        part = mpf_mul(mpf_mul(root_half, coef, prec, rnd), mpf_sub(zm, zp, prec, rnd),
                       prec, rnd)
        term = mp.make_mpc((mpf_neg(part) if neg_re else part,
                            mpf_neg(part) if neg_im else part))


def _renorm_term(x, theta, whole: int, frac, mp):
    """e^{-pi i theta^2/x + i pi/4} / sqrt(x) * sum_{j=j0}^{j1} exp(-pi i j^2/x
    + 2 pi i j theta/x), j0 = 0 if theta < 0 else 1, j1 = M - 1 if frac < 0
    else M, M = whole; x and theta mpf of mp's context.

    The j = 0 term is exactly 1; an empty range gives 0 exactly.  The
    phases reach M^2/x (~N M at large N) and the rotation theta^2/x.  The
    short sum reduces its arguments mod 2 exactly and reads every bit of
    them, but -1/x and theta/x rounded at the working precision prec would
    move the phases by up to M^2/x units of it, so they are formed with
    E = mag(M^2/x) extra bits.  The short sum itself runs at prec, by the
    chirp (``core._chirp_sum``) at every length.  The rotation, 1/sqrt(x),
    the j = 0 term and the product run with the E extra bits and the
    result is rounded once.  The rotation is two factors: adding 1/4 to
    theta^2/x before ``expjpi`` reduces it would round digits away.

    Error budget of the short sum, relative to the one over the exact
    -1/x and theta/x: the read-in moves phase j by under 2 j^2/x
    2^-(prec+E) <= 2^(1-prec) half-turns; the sum over j = 1..j1 adds
    under j1 2^(9-B) < 2^(-prec-11), B = prec + bitlen(j1) + 20, and its
    rounding 2^-prec of the sum.
    """
    first = 0 if theta < 0 else 1
    last = whole - 1 if frac < 0 else whole
    if last < first:
        return mp.mpc(0)
    extra = max(0, mp.mag(max(1, whole) ** 2 / x))
    with mp.extraprec(extra):
        a, b = -1 / x, theta / x
    short = _chirp_sum(a, b, last, mp)
    with mp.extraprec(extra):
        if first == 0:
            short += 1
        rot = mp.expjpi(-theta * theta / x) * mp.expjpi(mp.mpf(1) / 4)
        res = rot / mp.sqrt(x) * short
    return +res


def _evaluate(params: GaussParams, edge):
    """(value, terms, renorm, (f(N) - 1)/2, E-term, cert_N, cert_0): S_N by
    the decomposition above, one walk of each edge series left to the route.

    ``edge(j, f)`` walks f T(a) at j = N (f = f(N), a = frac) and j = 0
    (f = 1, a = theta) and returns (terms, cert): the terms sum to f T(a),
    and cert is whatever certifies them, handed back as it came.  The
    edges' terms are paired as e^{i pi/4} (upper - lower).  The short sum
    comes first, so a run past the term budget is refused before any
    kernel is evaluated.
    """
    ctx = params.ctx
    mp = ctx.mp
    x, theta, frac = params.x, params.theta, params.frac
    fN = phase_term(params.N, params)
    renorm = _renorm_term(x, theta, params.whole, frac, mp)
    rot = mp.expjpi(mp.mpf(1) / 4)
    # K(t); the negation is exact, so the exact frac keeps every bit
    k_theta, k_frac = (-erfc_kernel(mp.fneg(t, exact=True), x, ctx) if t < 0
                       else erfc_kernel(t, x, ctx) for t in (theta, frac))
    e_term = rot / (2 * mp.sqrt(x)) * (k_theta - fN * k_frac)
    (upper, cert_N), (lower, cert_0) = edge(params.N, fN), edge(0, 1)
    terms = [rot * (u - l) for u, l in zip(upper, lower)]
    boundary = (fN - 1) / 2
    value = renorm + boundary + e_term + mp.fsum(terms)
    return (ensure_finite(mp, value, "S_N"), terms, renorm, boundary, e_term,
            cert_N, cert_0)


# Double precision with an unbounded exponent range; its precision is never
# changed, so sharing it between calls is safe.
_MP = MPContext()

# asym walks and stores n layers of each edge: about 1 ms and 1 KB a layer
# at 30 digits
_MAX_LAYERS = 1000


def asymptotic_sum(params: GaussParams, n: int | None = None,
                   ctx: PrecisionContext | None = None) -> ExpansionReport:
    """Evaluate S_N by the certified expansion, truncated after n terms.

    n defaults to min(10, optimal truncation index).  The report's
    remainder_bound certifies |direct oracle - value| up to the oracle's
    own O(N eps) noise; the bound stays true for any valid parameters but
    is only *useful* in the small-x regime it was built for.  Raises
    ResourceBudgetError, before any layer or term, when n exceeds the
    budget of ``_MAX_LAYERS`` = 1000 layers or the short sum the term
    budget of ``core.DEFAULT_MAX_TERMS`` = 10^8 terms.  A ctx other than
    params.ctx evaluates the parameters rebuilt in it: exactly at a finer
    ctx, with x and theta rounded to a coarser one (no caller in the
    package passes one).
    """
    if ctx is not None and ctx is not params.ctx:
        params = GaussParams(params.x, params.theta, params.N, ctx)
    ctx = params.ctx
    # the index of the smallest series term, about pi (1 - |a|)^2 / x at the
    # edge offset a = frac or theta of larger modulus, in double precision
    # whose unbounded exponent range gives every x an index
    a = max(abs(_MP.mpf(params.frac)), abs(_MP.mpf(params.theta)))
    opt = max(1, int(_MP.nint(_MP.pi * (1 - a) ** 2 / _MP.mpf(params.x))))
    if n is None:
        n = min(10, opt)
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DomainError(f"asymptotic_sum: n must be a positive integer, got {n}")
    if n > _MAX_LAYERS:
        raise ResourceBudgetError(
            f"asymptotic_sum: n={n} exceeds the budget of {_MAX_LAYERS} layers")

    def walk(j, f):
        a = params.frac if j else params.theta
        # T(a) vanishes identically at a = 0: no terms, no bound
        if a == 0:
            return (0,) * n, (ctx.mp.zero,) * n
        layers = list(itertools.islice(edge_layers(params.x, a, 0, ctx), n))
        return [f * term for term, _ in layers], [bound for _, bound in layers]

    value, terms, renorm, boundary, e_term, b_N, b_0 = _evaluate(params, walk)
    return ExpansionReport(value=value, terms=tuple(terms),
                           bounds=tuple(u + l for u, l in zip(b_N, b_0)),
                           renorm_term=renorm, boundary_term=boundary, E_term=e_term,
                           optimal_n=opt)
