"""The exact route: ``expansion``'s decomposition with each edge series
f(j) T(a) walked to a tolerance.

``boundary_series`` runs ``edge_layers`` at a window k0, every kernel
argument positive, and stops at the first layer whose leftover bound
undercuts the policy tolerance.  The window is the least k0 at which a
proven ceiling on the least layer bound is below the tolerance, so the
walk is sure to reach it; that least bound is about
exp(-pi (k0 + 1 - |a|)^2 / x), so small x takes k0 = 0 and x = 0.9 at tol
1e-28 about 4, and every tolerance a working precision accepts has a
window.  The work is O(M + k0 + layers); ``direct_sum`` stays the
independent check.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from .core import GaussParams, phase_term
from .errors import DomainError, TruncationError
from .expansion import _MP, _evaluate, edge_layers
from .precision import PrecisionContext, ensure_finite

__all__ = [
    "TailPolicy",
    "BoundarySeries",
    "boundary_series",
    "exact_sum_detail",
]

_LN_PI, _LN_2PI = math.log(math.pi), math.log(2 * math.pi)


class TailPolicy(NamedTuple):
    """Truncation control for the boundary series.

    ``tol`` is the target absolute truncation error per series (None
    resolves to 10 * eps of the active context) and must be >= eps.
    """

    tol: object = None

    def resolve_tol(self, ctx: PrecisionContext):
        mp = ctx.mp
        try:
            tol = 10 * ctx.eps if self.tol is None else mp.mpf(self.tol)
        except (TypeError, ValueError):
            raise DomainError(f"TailPolicy: tol must be a number, got {self.tol!r}") from None
        if not (tol > 0):
            raise DomainError(f"TailPolicy: tol must be positive, got {tol}")
        if tol < ctx.eps:
            raise DomainError(
                f"TailPolicy: tol={tol} is below the context eps {ctx.eps}")
        return tol


class BoundarySeries(NamedTuple):
    """Boundary series value with its truncation certificate.

    ``tail_bound`` dominates the modulus of everything not captured by
    the k <= k_stop pairs plus the ``orders``-deep analytic tail.
    ``k_stop`` is the chosen window k0: 0 means either a == 0, where the
    series vanishes and ``orders`` == 0, or window 0 with ``orders`` >= 1.
    """

    value: object
    k_stop: int
    orders: int
    tail_bound: object


def _log_layer_ceiling(x, a, k0: int) -> float:
    """An upper bound on ln min_r bound_r of edge_layers(x, a, k0), in
    double precision.

    With b = k0 + 1 -+ |a| and zeta(s, b) <= b^-s + b^(1-s)/(s-1), bound_r
    <= U_r = (1/2)_{r+1} p^{r+1} / (2 pi) sum_b b^-s (1 + b/(s-1)), s = 2r+3,
    p = x/pi.  The b = k0 + 1 - |a| term dominates; its ratio from r to
    r + 1 is about q (r + 1/2), q = p/b^2, so it is least near r = 1/q: the
    result is the least U_r over r0..r0+3, r0 = max(0, floor(1/q) - 2),
    with 1/q capped at e^35, where U_r is already below any tolerance a
    working precision can ask for.  Only logarithms are formed, so no x overflows an exponent.  Each
    candidate is raised by 2^-40 of the magnitudes it sums, which covers
    its float rounding.
    """
    log_p = float(_MP.log(x)) - _LN_PI
    a = abs(float(a))
    b_lo, b_hi = k0 + 1 - a, k0 + 1 + a
    log_lo, log_hi = math.log(b_lo), math.log(b_hi)
    r0 = max(0, int(math.exp(min(2 * log_lo - log_p, 35.0))) - 2)
    best = math.inf
    for r in range(r0, r0 + 4):
        s = 2 * r + 3
        lg = math.lgamma(r + 1.5)
        lo = math.log1p(b_lo / (s - 1))
        # the b_hi term relative to the b_lo term, at most 1
        rel = math.exp(s * (log_lo - log_hi) + math.log1p(b_hi / (s - 1)) - lo)
        log_u = (lg - _LN_PI / 2 + (r + 1) * log_p - _LN_2PI - s * log_lo + lo
                 + math.log1p(rel))
        scale = abs(lg) + (r + 1) * abs(log_p) + s * (abs(log_lo) + 1) + 8
        best = min(best, log_u + scale * 2.0 ** -40)
    return best


def _window(x, a, tol) -> int:
    """The least k0 whose layer ceiling is below tol.

    tol is lowered by 2^-20 so that the walk's bounds, rounded at the
    working precision, fall below it too.  They shrink until their least
    value (zeta(s, b) is log-convex in s), so the walk at that window meets
    tol without TruncationError.  The scan ends for 0 < x < 1 and any
    finite ln tol: the ceiling falls like -pi (k0 + 1 - |a|)^2 / x, and
    once ``_log_layer_ceiling``'s 1/q reaches its e^35 cap it still falls
    like -s ln b.
    """
    log_tol = float(_MP.log(tol)) - 2.0 ** -20
    return next(k0 for k0 in itertools.count() if _log_layer_ceiling(x, a, k0) < log_tol)


def boundary_series(edge: int, params: GaussParams,
                    policy: TailPolicy | None = None) -> BoundarySeries:
    """f(j) T(a) for edge j in {0, N}, a = theta at j = 0 and frac at j = N:
    ``edge_layers`` at the window ``_window`` chooses until the leftover
    bound is below the policy tolerance.

    The window is chosen where the walk is proven to reach the tolerance.
    The walk still raises TruncationError if its bounds stop shrinking
    first, which the proof rules out.
    """
    ctx = params.ctx
    policy = policy or TailPolicy()
    mp = ctx.mp
    if edge not in (0, params.N):
        raise DomainError(f"boundary_series: edge must be 0 or N={params.N}, got {edge}")
    tol = policy.resolve_tol(ctx)
    x = params.x
    a = params.theta if edge == 0 else params.frac
    if a == 0:
        # every pair cancels identically
        return BoundarySeries(value=mp.mpc(0), k_stop=0, orders=0, tail_bound=mp.mpf(0))

    k0 = _window(x, a, tol)
    total, last = 0, mp.inf
    for orders, (term, bound) in enumerate(edge_layers(x, a, k0, ctx), 1):
        total += term
        if bound < tol:
            break
        if not bound < last:
            raise TruncationError(
                f"boundary_series: the layer bounds stop shrinking at {mp.nstr(last, 6)}, "
                f"above tol={mp.nstr(tol, 6)}")
        last = bound
    value = phase_term(edge, params) * total
    return BoundarySeries(value=ensure_finite(mp, value, "boundary_series"),
                          k_stop=k0, orders=orders, tail_bound=bound)


def exact_sum_detail(params: GaussParams, policy: TailPolicy | None = None,
                     ctx: PrecisionContext | None = None):
    """(value, edge-N series, edge-0 series): S_N by ``expansion``'s
    decomposition, each edge series a ``boundary_series``, so
    |value - direct| <= 2 tol + roundoff.

    Raises ResourceBudgetError when the short sum would exceed the phase
    loop's budget of ``core.DEFAULT_MAX_TERMS`` = 10^8 terms.  A ctx other
    than params.ctx evaluates the parameters rebuilt in it: exactly at a
    finer ctx, with x and theta rounded to a coarser one (no caller in the
    package passes one).
    """
    if ctx is not None and ctx is not params.ctx:
        params = GaussParams(params.x, params.theta, params.N, ctx)
    policy = policy or TailPolicy()

    def walk(j, f):
        series = boundary_series(j, params, policy)
        return (series.value,), series

    value, *_, upper, lower = _evaluate(params, walk)
    return value, upper, lower
