"""The erfc-series representation against quadrature and the oracle."""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import quadgauss.exact
from quadgauss import (
    DomainError,
    GaussParams,
    PrecisionContext,
    ResourceBudgetError,
    TailPolicy,
    TruncationError,
    boundary_series,
    direct_sum,
    exact_sum_detail,
)
from quadgauss.exact import _log_layer_ceiling
from quadgauss.expansion import edge_layers

CTX30 = PrecisionContext(30)


def test_boundary_series_vanishes_at_theta_zero():
    ctx = CTX30
    p = GaussParams("0.01", 0, 40, ctx)
    res = boundary_series(0, p, TailPolicy("1e-25"))
    assert res.value == 0 and res.k_stop == 0 and res.tail_bound == 0


def test_boundary_series_edge_validation():
    p = GaussParams("0.01", "0.25", 40, CTX30)
    with pytest.raises(DomainError):
        boundary_series(7, p, TailPolicy("1e-20"))


def test_boundary_series_tail_honesty():
    # the reported tail bound dominates the change under refinement
    ctx = CTX30
    for (n, xs, ts) in [(40, "0.01", "0.25"), (57, "0.02", "0.5"),
                        (120, "0.35", "-0.41")]:
        p = GaussParams(xs, ts, n, ctx)
        for edge in (0, n):
            coarse = boundary_series(edge, p, TailPolicy("1e-12"))
            fine = boundary_series(edge, p, TailPolicy("1e-24"))
            change = abs(coarse.value - fine.value)
            assert change <= coarse.tail_bound + fine.tail_bound
            assert coarse.tail_bound < ctx.mp.mpf("1e-12")


def test_boundary_series_refinement_below_tol():
    # tightening the tolerance moves the value by less than tol
    ctx = CTX30
    p = GaussParams("0.01", "0.25", 1, ctx)
    tol = ctx.mp.mpf("1e-15")
    base = boundary_series(0, p, TailPolicy(tol))
    refined = boundary_series(0, p, TailPolicy(tol * ctx.mp.mpf("1e-8")))
    assert refined.orders > base.orders
    assert abs(base.value - refined.value) < tol


def test_tail_policy_validation():
    ctx = CTX30
    p = GaussParams("0.01", "0.25", 40, ctx)
    with pytest.raises(DomainError):
        boundary_series(0, p, TailPolicy(ctx.eps / 10))
    with pytest.raises(DomainError):
        boundary_series(0, p, TailPolicy(0))
    with pytest.raises(DomainError):
        boundary_series(0, p, TailPolicy("abc"))


def test_truncation_error_when_layer_bounds_stop_shrinking(monkeypatch):
    # layers whose bounds level off above tol cannot certify it
    def stalled_layers(x, a, k0, ctx):
        for bound in ("1e-10", "1e-12", "1e-12"):
            yield ctx.mp.mpc(0), ctx.mp.mpf(bound)

    monkeypatch.setattr(quadgauss.exact, "edge_layers", stalled_layers)
    p = GaussParams("0.01", "0.3", 100, CTX30)
    with pytest.raises(TruncationError):
        boundary_series(0, p, TailPolicy("1e-20"))


def _least_window(x, a, tol, mp):
    """The least window whose layer ceiling is below tol, less 2^-20."""
    log_tol = float(mp.log(tol)) - 2.0 ** -20
    return next(k0 for k0 in itertools.count() if _log_layer_ceiling(x, a, k0) < log_tol)


def test_default_tol_at_450_digits_met_beyond_window_16():
    # the default tol (1e-449) at x = 0.99 is below every layer bound up to
    # window 16 (the least there is about 1e-377); window 18 is the least
    # whose ceiling is below it, and both edges meet it there
    ctx = PrecisionContext(450)
    mp = ctx.mp
    p = GaussParams("0.99", "0.5", 3, ctx)
    value, upper, lower = exact_sum_detail(p)
    tol = TailPolicy().resolve_tol(ctx)
    for series, a in ((upper, p.frac), (lower, p.theta)):
        assert series.k_stop == _least_window(p.x, a, tol, mp) > 16
        assert series.tail_bound < tol
    S = direct_sum(p)
    allow = upper.tail_bound + lower.tail_bound + 64 * mp.eps * max(1, abs(S))
    assert abs(value - S) <= allow


def _edge0_at_400_digits(monkeypatch):
    """Edge 0 at digits 400, x = 0.99, theta = 0.5: (params, window 16's
    ceiling, the list of layers the series pulls)."""
    pulled = []

    def spy(*args):
        for layer in edge_layers(*args):
            pulled.append(layer)
            yield layer

    monkeypatch.setattr(quadgauss.exact, "edge_layers", spy)
    ctx = PrecisionContext(400)
    mp = ctx.mp
    ceiling = mp.exp(_log_layer_ceiling(mp.mpf("0.99"), mp.mpf("0.5"), 16))
    return GaussParams("0.99", "0.5", 3, ctx), ceiling, pulled


def test_tol_below_the_window_16_ceiling_met_at_window_17(monkeypatch):
    # the least layer bound at window 16 is about 8.54e-378 and its ceiling
    # 8.62e-378: half the ceiling lies below the least bound, so window 16
    # cannot reach it, and window 17 does
    p, ceiling, pulled = _edge0_at_400_digits(monkeypatch)
    tol = ceiling / 2
    series = boundary_series(0, p, TailPolicy(tol))
    assert series.k_stop == _least_window(p.x, p.theta, tol, p.ctx.mp) == 17
    assert series.orders == len(pulled) and series.tail_bound < tol


def test_tol_above_the_window_16_ceiling_met_at_window_16(monkeypatch):
    # 5% above the ceiling window 16 provably reaches tol, after some 850 orders
    p, ceiling, pulled = _edge0_at_400_digits(monkeypatch)
    tol = ceiling * p.ctx.mp.mpf("1.05")
    series = boundary_series(0, p, TailPolicy(tol))
    assert series.k_stop == 16 and series.orders == len(pulled)
    assert series.tail_bound < tol


def test_short_sum_budget_refused_before_any_term(monkeypatch):
    # M = N x = 5e11 phases exceed core.DEFAULT_MAX_TERMS
    def no_kernel(*args):
        raise AssertionError("the kernel ran before the budget check")

    monkeypatch.setattr(quadgauss.expansion, "erfc_kernel", no_kernel)
    p = GaussParams("0.5", 0, 10**12, CTX30)
    with pytest.raises(ResourceBudgetError):
        exact_sum_detail(p)


def test_exact_matches_hand_value():
    ctx = CTX30
    got, _, _ = exact_sum_detail(GaussParams("0.5", 0, 4, ctx), TailPolicy("1e-24"))
    assert abs(got - ctx.mp.mpc(2, 2)) <= ctx.mp.mpf("1e-23")


def test_exact_matches_oracle_reference_case():
    ctx = CTX30
    p = GaussParams("0.01", "0.3", 100, ctx)
    got, _, _ = exact_sum_detail(p, TailPolicy("1e-22"))
    assert abs(got - direct_sum(p)) <= ctx.mp.mpf("1e-20")


def test_exact_at_theta_boundary():
    ctx = CTX30
    p = GaussParams("0.02", "0.5", 57, ctx)
    got, _, _ = exact_sum_detail(p, TailPolicy("1e-22"))
    assert abs(got - direct_sum(p)) <= ctx.mp.mpf("1e-20")


def test_exact_default_policy():
    ctx = CTX30
    p = GaussParams("0.07", "-0.2", 64, ctx)
    got, _, _ = exact_sum_detail(p)
    tol = 10 * ctx.eps
    assert abs(got - direct_sum(p)) <= 2 * tol + 1000 * ctx.eps * p.N


def test_exact_at_high_digits():
    # the analytic tail (digamma and Hurwitz-zeta layers) above the default
    # precision; the budgets predate the fixed 16-pair window and sit well
    # above its reported tail bounds
    for digits, tol, budget in ((50, "1e-45", "1e-43"), (80, "1e-75", "1e-77")):
        ctx = PrecisionContext(digits)
        p = GaussParams("0.01", "0.3", 100, ctx)
        got, _, _ = exact_sum_detail(p, TailPolicy(tol), ctx)
        assert abs(got - direct_sum(p)) <= ctx.mp.mpf(budget), digits


def test_representation_identity_randomized():
    ctx = CTX30
    mp = ctx.mp
    rng = random.Random(424242)
    tol = mp.mpf("1e-22")
    for _ in range(8):
        xs = mp.mpf(f"{10 ** rng.uniform(-3, -0.0458):.17f}")  # up to 0.9
        ts = mp.mpf(f"{rng.uniform(-0.5, 0.5):.15f}")
        n = rng.randint(1, 2000)
        p = GaussParams(xs, ts, n, ctx)
        value, upper, lower = exact_sum_detail(p, TailPolicy(tol), ctx)
        budget = 2 * tol + 1000 * ctx.eps * n
        assert abs(value - direct_sum(p)) <= budget, (xs, ts, n)
        assert upper.tail_bound <= tol and lower.tail_bound <= tol


def _exact_vs_oracle(p, ctx):
    """(|exact - oracle|, allowance, upper): the oracle runs 20 digits
    higher on the same binary parameters, and the allowance is the two
    tail bounds plus rounding, with no N-scaled term."""
    value, upper, lower = exact_sum_detail(p, ctx=ctx)
    hi = PrecisionContext(ctx.digits + 20)
    S = direct_sum(GaussParams(p.x, p.theta, p.N, hi))
    allow = upper.tail_bound + lower.tail_bound + 64 * ctx.mp.eps * max(1, abs(S))
    return abs(hi.mp.mpc(value) - S), allow, upper


def test_exact_at_large_N_x():
    # N x + theta = 1800.3: the pairs below it are short-sum phases, so the
    # edge series at frac = 0.3 needs only a small window
    p = GaussParams("0.9", "0.3", 2000, CTX30)
    err, allow, upper = _exact_vs_oracle(p, CTX30)
    assert upper.k_stop == _least_window(p.x, p.frac, TailPolicy().resolve_tol(CTX30), CTX30.mp)
    assert err <= allow


def test_exact_at_200_digits():
    # the least window whose ceiling meets the default tol of 1e-198 is 8,
    # reached in 316 layers; capped at 14 layers, the window would need
    # more than 10^6 pairs
    ctx = PrecisionContext(200)
    p = GaussParams("0.5", "0.2", 50, ctx)
    err, allow, upper = _exact_vs_oracle(p, ctx)
    assert upper.k_stop == _least_window(p.x, p.frac, TailPolicy().resolve_tol(ctx), ctx.mp)
    assert err <= allow


@pytest.mark.parametrize("x,theta,N", [("1e-400", "-0.25", 3), ("1e-40", "0.3", 5)])
def test_exact_at_tiny_x(x, theta, N):
    # window 0 meets the tolerance at once; the window's choice works on
    # logarithms, so no exponent overflows at x = 10^-400
    err, allow, upper = _exact_vs_oracle(GaussParams(x, theta, N, CTX30), CTX30)
    assert upper.k_stop == 0 and upper.orders == 1
    assert err <= allow


def _layer_bound(x, a, k0, r, mp):
    """bound_r of edge_layers(x, a, k0) from its formula, with mpmath's zeta."""
    b = k0 + 1 - abs(a), k0 + 1 + abs(a)
    return (mp.rf(mp.mpf(1) / 2, r + 1) * (x / mp.pi) ** (r + 1) / (2 * mp.pi)
            * (mp.zeta(2 * r + 3, b[0]) + mp.zeta(2 * r + 3, b[1])))


def _least_layer_bound(x, a, k0, mp):
    """min_r bound_r: the bounds shrink until their ratio reaches 1 (zeta is
    log-convex in s) and grow after, so bisect for the first r at which
    bound_{r+1} >= bound_r."""
    def turned(r):
        return _layer_bound(x, a, k0, r + 1, mp) >= _layer_bound(x, a, k0, r, mp)

    hi = 1
    while not turned(hi):
        hi *= 2
    lo = 0
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if turned(mid) else (mid + 1, hi)
    return _layer_bound(x, a, k0, lo, mp)


_OFFSETS = st.builds(lambda m, neg: -m if neg else m,
                     st.floats(0, 0.5, exclude_min=True), st.booleans())


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(x=st.floats(0.005, 0.99), a=_OFFSETS, k0=st.integers(0, 16))
@example(x=0.99, a=0.5, k0=0)  # the layers grow from the first: q > 1
@example(x=0.005, a=1e-300, k0=16)  # about 171000 layers to the least bound
def test_ceiling_is_above_the_least_layer_bound(x, a, k0):
    ctx = CTX30
    mp = ctx.mp
    x, a = mp.mpf(x), mp.mpf(a)
    # the formula is the walk's: its first bounds agree to the working precision
    for r, (_, bound) in zip(range(3), edge_layers(x, a, k0, ctx)):
        assert abs(bound / _layer_bound(x, a, k0, r, mp) - 1) < 1e-25
    least = _least_layer_bound(x, a, k0, mp)
    assert float(mp.log(least)) <= _log_layer_ceiling(x, a, k0)


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(x=st.floats(0.005, 0.99), a=_OFFSETS, digits=st.integers(15, 29))
@example(x=0.99, a=0.5, digits=29)
def test_window_is_the_least_that_provably_meets_tol(x, a, digits):
    # edge 0 at theta = a: the window is the least k0 whose ceiling is below
    # tol, and the walk there reaches tol without TruncationError
    ctx = CTX30
    tol = ctx.mp.mpf(10) ** -digits
    series = boundary_series(0, GaussParams(x, a, 1, ctx), TailPolicy(tol))
    assert series.k_stop == _least_window(x, a, tol, ctx.mp)
    assert 0 < series.tail_bound < tol and series.orders >= 1


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(x=st.floats(0.005, 0.9), theta=st.floats(-0.5, 0.5), N=st.integers(1, 600))
@example(x=0.37, theta=-0.2, N=100)  # N x + theta = 36.8: frac < 0
@example(x=0.37, theta=0.1, N=300)  # N x + theta = 111.1: frac > 0
def test_exact_within_tail_bounds(x, theta, N):
    p = GaussParams(x, theta, N, CTX30)
    err, allow, _ = _exact_vs_oracle(p, CTX30)
    assert err <= allow
