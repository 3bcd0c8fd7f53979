"""The erfc-series representation against quadrature and the oracle."""

import itertools
import random
import time

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
    exact_sum,
    exact_sum_detail,
)
from quadgauss.expansion import edge_layers

CTX30 = PrecisionContext(30)


def test_boundary_series_vanishes_at_theta_zero():
    ctx = CTX30
    p = GaussParams("0.01", 0, 40, ctx)
    res = boundary_series(0, p, TailPolicy("1e-25"), ctx)
    assert res.value == 0 and res.k_stop == 0 and res.tail_bound == 0


def test_boundary_series_edge_validation():
    p = GaussParams("0.01", "0.25", 40, CTX30)
    with pytest.raises(DomainError):
        boundary_series(7, p, TailPolicy("1e-20"), CTX30)


def test_boundary_series_tail_honesty():
    # the reported tail bound dominates the change under refinement
    ctx = CTX30
    for (n, xs, ts) in [(40, "0.01", "0.25"), (57, "0.02", "0.5"),
                        (120, "0.35", "-0.41")]:
        p = GaussParams(xs, ts, n, ctx)
        for edge in (0, n):
            coarse = boundary_series(edge, p, TailPolicy("1e-12"), ctx)
            fine = boundary_series(edge, p, TailPolicy("1e-24"), ctx)
            change = abs(coarse.value - fine.value)
            assert change <= coarse.tail_bound + fine.tail_bound
            assert coarse.tail_bound < ctx.mp.mpf("1e-12")


def test_boundary_series_refinement_below_tol():
    # tightening the tolerance moves the value by less than tol
    ctx = CTX30
    p = GaussParams("0.01", "0.25", 1, ctx)
    tol = ctx.mp.mpf("1e-15")
    base = boundary_series(0, p, TailPolicy(tol), ctx)
    refined = boundary_series(0, p, TailPolicy(tol * ctx.mp.mpf("1e-8")), ctx)
    assert refined.orders > base.orders
    assert abs(base.value - refined.value) < tol


def test_tail_policy_validation():
    ctx = CTX30
    p = GaussParams("0.01", "0.25", 40, ctx)
    with pytest.raises(DomainError):
        boundary_series(0, p, TailPolicy(ctx.eps / 10), ctx)
    with pytest.raises(DomainError):
        boundary_series(0, p, TailPolicy(0), ctx)
    with pytest.raises(DomainError):
        boundary_series(0, p, TailPolicy("abc"), ctx)


def test_truncation_error_when_layer_bounds_stop_shrinking(monkeypatch):
    # layers whose bounds level off above tol cannot certify it
    def stalled_layers(x, a, k0, ctx):
        for bound in ("1e-10", "1e-12", "1e-12"):
            yield ctx.mp.mpc(0), ctx.mp.mpf(bound)

    monkeypatch.setattr(quadgauss.exact, "edge_layers", stalled_layers)
    p = GaussParams("0.01", "0.3", 100, CTX30)
    with pytest.raises(TruncationError):
        boundary_series(0, p, TailPolicy("1e-20"), CTX30)


def test_unreachable_tol_refused_before_the_first_layer():
    # at 450 digits the default tol (1e-449) is below every layer bound at
    # x = 0.99 (the smallest is about 1e-377, after some 860 orders); the
    # proven floor refuses it at once instead of walking the orders to it
    ctx = PrecisionContext(450)
    p = GaussParams("0.99", "0.5", 3, ctx)
    start = time.perf_counter()
    with pytest.raises(TruncationError):
        boundary_series(0, p, None, ctx)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("x,a", [("0.99", "0.5"), ("0.9", "-0.3")])
def test_layer_floor_is_below_every_layer_bound(x, a):
    ctx = CTX30
    mp = ctx.mp
    floor = quadgauss.exact._layer_floor(mp.mpf(x), mp.mpf(a))
    least = min(itertools.islice((b for _, b in edge_layers(mp.mpf(x), mp.mpf(a), 16, ctx)),
                                 1000))
    assert 0 < floor < least


def test_short_sum_budget_refused_before_any_term():
    # M = N x = 5e7 phases exceed the short sum's budget of 10^6
    p = GaussParams("0.5", 0, 10**8, CTX30)
    with pytest.raises(ResourceBudgetError):
        exact_sum_detail(p)


def test_exact_matches_hand_value():
    ctx = CTX30
    got = exact_sum(GaussParams("0.5", 0, 4, ctx), TailPolicy("1e-24"))
    assert abs(got - ctx.mp.mpc(2, 2)) <= ctx.mp.mpf("1e-23")


def test_exact_matches_oracle_reference_case():
    ctx = CTX30
    p = GaussParams("0.01", "0.3", 100, ctx)
    got = exact_sum(p, TailPolicy("1e-22"))
    assert abs(got - direct_sum(p)) <= ctx.mp.mpf("1e-20")


def test_exact_at_theta_boundary():
    ctx = CTX30
    p = GaussParams("0.02", "0.5", 57, ctx)
    got = exact_sum(p, TailPolicy("1e-22"))
    assert abs(got - direct_sum(p)) <= ctx.mp.mpf("1e-20")


def test_exact_default_policy():
    ctx = CTX30
    p = GaussParams("0.07", "-0.2", 64, ctx)
    got = exact_sum(p)
    tol = 10 * ctx.eps
    assert abs(got - direct_sum(p)) <= 2 * tol + 1000 * ctx.eps * p.N


def test_exact_at_high_digits():
    # the analytic tail (digamma and Hurwitz-zeta layers) above the default
    # precision; the budgets predate the fixed 16-pair window and sit well
    # above its reported tail bounds
    for digits, tol, budget in ((50, "1e-45", "1e-43"), (80, "1e-75", "1e-77")):
        ctx = PrecisionContext(digits)
        p = GaussParams("0.01", "0.3", 100, ctx)
        got = exact_sum(p, TailPolicy(tol), ctx)
        assert abs(got - direct_sum(p, ctx)) <= ctx.mp.mpf(budget), digits


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
    # explicit window stays at its first k_stop
    err, allow, upper = _exact_vs_oracle(GaussParams("0.9", "0.3", 2000, CTX30), CTX30)
    assert upper.k_stop == 16
    assert err <= allow


def test_exact_at_200_digits():
    # 124 layers at the 16-pair window reach the default tol of 1e-198;
    # capped at 14 layers, the window would need more than 10^6 pairs
    ctx = PrecisionContext(200)
    err, allow, upper = _exact_vs_oracle(GaussParams("0.5", "0.2", 50, ctx), ctx)
    assert upper.k_stop == 16
    assert err <= allow


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(x=st.floats(0.005, 0.9), theta=st.floats(-0.5, 0.5), N=st.integers(1, 600))
@example(x=0.37, theta=-0.2, N=100)  # N x + theta = 36.8: frac < 0
@example(x=0.37, theta=0.1, N=300)  # N x + theta = 111.1: frac > 0
def test_exact_within_tail_bounds(x, theta, N):
    p = GaussParams(x, theta, N, CTX30)
    err, allow, _ = _exact_vs_oracle(p, CTX30)
    assert err <= allow
