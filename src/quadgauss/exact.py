"""Exact erfc-series representation of the quadratic exponential sum.

Contour deformation turns the sum into the identity (valid on all of
0 < x < 1, not just small x)

    S_N = (f(N) - 1)/2 + J_N + e^{i pi/4} (I_N - I_0),

where J_N is the full-range integral of the term function, available in
closed form through the kernel E,

    J_N = e^{i pi/4} / (2 sqrt(x)) * { E(theta) - f(N) E(N x + theta) },

and the boundary series at the two summation edges j in {0, N} are

    I_j = f(j) / (2 sqrt(x)) * sum_{k>=1} { E(k - a) - E(k + a) },
    a = j x + theta.

Each pair in the k-series is O(k^-2) but with a slowly decaying envelope
(~ C(a, x)/k after summation), so bare truncation at tolerance tol would
need k ~ C/tol terms.  Instead the tail k > k_stop is summed in closed
form order by order through the large-t series of E: the r = 0 layer
telescopes to a digamma difference, the r >= 1 layers to Hurwitz-zeta
differences,

    sum_{k>k_stop} [E(k-a) - E(k+a)]
        = pi^{-1/2} { (i x/pi)^{1/2} [psi(k_stop+1+a) - psi(k_stop+1-a)]
          + sum_{r=1}^{n_t-1} (-1)^r (1/2)_r (i x/pi)^{r+1/2}
              [zeta(2r+1, k_stop+1-a) - zeta(2r+1, k_stop+1+a)] }
          + leftover,

with the leftover rigorously dominated by the kernel's tail bound summed
over the range:

    |leftover| <= ((1/2)_{n_t} / sqrt(pi)) (x/pi)^{n_t+1/2}
                  [zeta(2n_t+1, k_stop+1-a) + zeta(2n_t+1, k_stop+1+a)].

k_stop and the tail depth n_t are chosen so that the leftover, scaled by
the prefactor 1/(2 sqrt(x)), undercuts the policy tolerance; k_stop stays
near max(|a|, 16) in practice.  Explicit pair evaluation below k_stop
keeps this path independent of the small-x expansion machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import GaussParams, phase_term
from .errors import DomainError, TruncationError
from .precision import PrecisionContext, ensure_finite
from .special import erfc_kernel, hurwitz_zeta_odd

__all__ = [
    "TailPolicy",
    "BoundarySeries",
    "phase_integral",
    "boundary_series",
    "exact_sum",
    "exact_sum_detail",
]

_MAX_TAIL_ORDERS = 14


@dataclass(frozen=True)
class TailPolicy:
    """Truncation control for the boundary series.

    ``tol`` is the target absolute truncation error per series (None
    resolves to 10 * eps of the active context) and must be >= eps;
    ``k_max_cap`` caps the explicit summation range.
    """

    tol: object = None
    k_max_cap: int = 10**6

    def resolve_tol(self, ctx: PrecisionContext):
        mp = ctx.mp
        tol = 10 * ctx.eps if self.tol is None else mp.mpf(self.tol)
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


def phase_integral(params: GaussParams, ctx: PrecisionContext | None = None):
    """J_N = integral_0^N f(t) dt in closed form through the kernel E."""
    ctx = ctx or params.ctx
    mp = ctx.mp
    xi = mp.mpf(params.N) * params.x + params.theta
    rot = mp.expjpi(mp.mpf(1) / 4)
    value = rot / (2 * mp.sqrt(params.x)) * (
        erfc_kernel(params.theta, params.x, ctx)
        - phase_term(params.N, params, ctx) * erfc_kernel(xi, params.x, ctx))
    return ensure_finite(mp, value, "phase_integral")


def _tail_layers(ctx, x, a, k_stop, target, max_orders):
    """Deepen the analytic tail until its leftover bound undercuts target.

    Returns (orders, bound, zetas) at the first such depth: the depth, its
    leftover bound, and the cached Hurwitz values needed to assemble the
    correction layers r = 1..orders-1.  None if no depth up to max_orders
    gets there.
    """
    mp = ctx.mp
    half = mp.mpf(1) / 2
    xq = x / mp.pi
    poch = half  # (1/2)_{n_t}
    zetas = {}
    for n_t in range(1, max_orders + 1):
        zm = hurwitz_zeta_odd(n_t, k_stop + 1 - a, ctx)
        zp = hurwitz_zeta_odd(n_t, k_stop + 1 + a, ctx)
        zetas[n_t] = (zm, zp)
        bound = poch / mp.sqrt(mp.pi) * xq ** (n_t + half) * (zm + zp)
        if bound < target:
            return n_t, bound, zetas
        poch *= n_t + half
    return None


def boundary_series(edge: int, params: GaussParams, policy: TailPolicy | None = None,
                    ctx: PrecisionContext | None = None) -> BoundarySeries:
    """I_j for edge j in {0, N}: explicit pairs to k_stop, analytic tail above.

    Pairs are combined before accumulation to exploit their cancellation
    and summed exactly by ``fsum``.  Raises TruncationError when no k_stop
    within the policy cap can certify the tolerance.
    """
    ctx = ctx or params.ctx
    policy = policy or TailPolicy()
    mp = ctx.mp
    if edge not in (0, params.N):
        raise DomainError(f"boundary_series: edge must be 0 or N={params.N}, got {edge}")
    tol = policy.resolve_tol(ctx)
    x = params.x
    a = edge * x + params.theta
    zero = mp.mpf(0)
    if a == 0:
        # every pair cancels identically
        return BoundarySeries(value=mp.mpc(0), k_stop=0, orders=0, tail_bound=zero)

    half = mp.mpf(1) / 2
    pref = 1 / (2 * mp.sqrt(x))
    k_stop = max(int(mp.floor(abs(a))) + 9, 16)
    while True:
        if k_stop > policy.k_max_cap:
            raise TruncationError(
                f"boundary_series: k_stop={k_stop} needed for "
                f"tol={mp.nstr(tol, 6)} exceeds k_max_cap={policy.k_max_cap}")
        layers = _tail_layers(ctx, x, a, k_stop, tol / pref, _MAX_TAIL_ORDERS)
        if layers is not None:
            break
        k_stop *= 2
    orders, leftover, zetas = layers

    pairs = mp.fsum(erfc_kernel(k - a, x, ctx) - erfc_kernel(k + a, x, ctx)
                    for k in range(1, k_stop + 1))

    # analytic tail: r = 0 layer via digamma, r >= 1 via Hurwitz zeta
    xq = x / mp.pi
    tail = mp.expjpi(mp.mpf(1) / 4) * mp.sqrt(xq) / mp.sqrt(mp.pi) * (
        mp.digamma(k_stop + 1 + a) - mp.digamma(k_stop + 1 - a))
    poch = mp.mpf(1)
    for r in range(1, orders):
        poch *= r - half
        zm, zp = zetas[r]
        rot = mp.expjpi(mp.mpf(2 * r + 1) / 4)  # i^(r+1/2)
        tail += (-1) ** r * poch / mp.sqrt(mp.pi) * xq ** (r + half) * rot * (zm - zp)

    value = phase_term(edge, params, ctx) * pref * (pairs + tail)
    return BoundarySeries(value=ensure_finite(mp, value, "boundary_series"),
                          k_stop=k_stop, orders=orders,
                          tail_bound=leftover * pref)


def exact_sum_detail(params: GaussParams, policy: TailPolicy | None = None,
                     ctx: PrecisionContext | None = None):
    """(value, edge-N series, edge-0 series) for the representation above."""
    ctx = ctx or params.ctx
    policy = policy or TailPolicy()
    mp = ctx.mp
    upper = boundary_series(params.N, params, policy, ctx)
    lower = boundary_series(0, params, policy, ctx)
    rot = mp.expjpi(mp.mpf(1) / 4)
    value = ((phase_term(params.N, params, ctx) - 1) / 2
             + phase_integral(params, ctx)
             + rot * (upper.value - lower.value))
    return ensure_finite(mp, value, "exact_sum"), upper, lower


def exact_sum(params: GaussParams, policy: TailPolicy | None = None,
              ctx: PrecisionContext | None = None):
    """S_N via the erfc representation; |exact - direct| <= 2 tol + roundoff."""
    value, _, _ = exact_sum_detail(params, policy, ctx)
    return value
