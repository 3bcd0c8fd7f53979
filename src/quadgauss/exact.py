"""The exact route: the erfc representation, certified to a tolerance.

Contour deformation turns the sum into (valid on all of 0 < x < 1)

    S_N = (f(N) - 1)/2 + J_N + e^{i pi/4} (I_N - I_0),
    J_N = e^{i pi/4} / (2 sqrt(x)) * { E(theta) - f(N) E(N x + theta) },
    I_j = f(j) / (2 sqrt(x)) * sum_{k>=1} { E(k - a) - E(k + a) },  a = j x + theta.

Re-indexed about the nearest integer M of N x + theta, this is the
decomposition of ``expansion``: renorm, boundary and kernel terms plus
e^{i pi/4} (f(N) T(frac) - T(theta)).  ``boundary_series`` evaluates
f(j) T(a) at the reduced offset a = frac (j = N) or theta (j = 0) as
``edge_layers`` at the window k0 = 16, every kernel argument positive,
deepened until the leftover bound undercuts the policy tolerance.  The
layers' small parameter is x/(pi (k0 + 1/2)^2) < 1/855, so their bounds
keep shrinking for more than 855 orders, to about e^-855 ~ 1e-371: 16
pairs serve every tolerance above that, and a tolerance below it raises
TruncationError.  The work is O(M + 16 + layers); ``direct_sum`` stays the
independent check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import GaussParams, phase_term, split_nearest
from .errors import DomainError, TruncationError
from .expansion import _MP, _skeleton, edge_layers
from .precision import PrecisionContext, ensure_finite

__all__ = [
    "TailPolicy",
    "BoundarySeries",
    "boundary_series",
    "exact_sum",
    "exact_sum_detail",
]

_WINDOW = 16  # explicit kernel pairs k = 1.._WINDOW per boundary series
_MAX_SHORT_TERMS = 10**6  # budget of the renormalized short sum's length M


@dataclass(frozen=True)
class TailPolicy:
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


@dataclass(frozen=True)
class BoundarySeries:
    """Boundary series value with its truncation certificate.

    ``tail_bound`` dominates the modulus of everything not captured by
    the k <= k_stop pairs plus the ``orders``-deep analytic tail.
    """

    value: object
    k_stop: int
    orders: int
    tail_bound: object


def _layer_floor(x, a):
    """A lower bound on every bound_r of edge_layers(x, a, _WINDOW), in
    double precision with an unbounded exponent.

    With b = _WINDOW + 1 - |a| and zeta(s, b) >= b^(1-s)/(s-1), bound_r >=
    L_r = (1/2)_{r+1} q^{r+1} / (4 pi (r+1)), q = x/(pi b^2) < 1/855.  The
    ratio L_{r+1}/L_r = q (r + 1/2 + 1/(2r+4)) grows with r and first
    reaches 1 at some r in r0..r0+3, r0 = floor(1/q) - 2, where L is least.
    The result is shrunk by 2^-20 to cover its own rounding.
    """
    b = _WINDOW + 1 - abs(_MP.mpf(a))
    q = _MP.mpf(x) / (_MP.pi * b * b)
    r0 = int(1 / q) - 2
    log_floor = min(_MP.loggamma(r + _MP.mpf(1.5)) - _MP.log(_MP.pi) / 2
                    + (r + 1) * _MP.log(q) - _MP.log(4 * _MP.pi * (r + 1))
                    for r in range(r0, r0 + 4))
    return _MP.exp(log_floor) * (1 - _MP.ldexp(1, -20))


def boundary_series(edge: int, params: GaussParams, policy: TailPolicy | None = None,
                    ctx: PrecisionContext | None = None) -> BoundarySeries:
    """f(j) T(a) for edge j in {0, N}, a = theta at j = 0 and frac at j = N:
    ``edge_layers`` at k0 = 16 until the leftover bound is below the policy
    tolerance.

    Raises TruncationError before the first layer when a proven lower bound
    on every layer bound (``_layer_floor``) is above the tolerance, and
    otherwise when the bounds stop shrinking before they reach it (about
    1e-371 at worst).
    """
    ctx = ctx or params.ctx
    policy = policy or TailPolicy()
    mp = ctx.mp
    if edge not in (0, params.N):
        raise DomainError(f"boundary_series: edge must be 0 or N={params.N}, got {edge}")
    tol = policy.resolve_tol(ctx)
    x = params.x
    a = params.theta if edge == 0 else split_nearest(params).frac
    if a == 0:
        # every pair cancels identically
        return BoundarySeries(value=mp.mpc(0), k_stop=0, orders=0, tail_bound=mp.mpf(0))

    floor = _layer_floor(x, a)
    if _MP.mpf(tol) < floor:
        raise TruncationError(
            f"boundary_series: every layer bound exceeds {_MP.nstr(floor, 6)}, "
            f"above tol={mp.nstr(tol, 6)}")
    total, last = 0, mp.inf
    for orders, (term, bound) in enumerate(edge_layers(x, a, _WINDOW, ctx), 1):
        total += term
        if bound < tol:
            break
        if not bound < last:
            raise TruncationError(
                f"boundary_series: the layer bounds stop shrinking at {mp.nstr(last, 6)}, "
                f"above tol={mp.nstr(tol, 6)}")
        last = bound
    value = phase_term(edge, params, ctx) * total
    return BoundarySeries(value=ensure_finite(mp, value, "boundary_series"),
                          k_stop=_WINDOW, orders=orders, tail_bound=bound)


def exact_sum_detail(params: GaussParams, policy: TailPolicy | None = None,
                     ctx: PrecisionContext | None = None):
    """(value, edge-N series, edge-0 series) for the representation above.

    Raises ResourceBudgetError when the short sum would exceed 10^6 terms.
    """
    ctx = ctx or params.ctx
    policy = policy or TailPolicy()
    mp = ctx.mp
    split = split_nearest(params)
    renorm, boundary, e_term = _skeleton(params, split, phase_term(params.N, params, ctx),
                                         _MAX_SHORT_TERMS, ctx)
    upper = boundary_series(params.N, params, policy, ctx)
    lower = boundary_series(0, params, policy, ctx)
    rot = mp.expjpi(mp.mpf(1) / 4)
    value = renorm + boundary + e_term + rot * (upper.value - lower.value)
    return ensure_finite(mp, value, "exact_sum"), upper, lower


def exact_sum(params: GaussParams, policy: TailPolicy | None = None,
              ctx: PrecisionContext | None = None):
    """S_N via the erfc representation; |exact - direct| <= 2 tol + roundoff."""
    value, _, _ = exact_sum_detail(params, policy, ctx)
    return value
