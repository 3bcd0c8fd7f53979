"""The erfc-series representation against quadrature and the oracle."""

import random

import pytest

from quadgauss import (
    DomainError,
    GaussParams,
    PrecisionContext,
    TailPolicy,
    TruncationError,
    boundary_series,
    direct_sum,
    erfc_kernel,
    exact_sum,
    exact_sum_detail,
    phase_integral,
    phase_term,
)

CTX30 = PrecisionContext(30)


def _quad_integral(params, ctx):
    mp = ctx.mp
    f = lambda t: mp.expjpi(params.x * t * t + 2 * params.theta * t)
    return mp.quad(f, [mp.mpf(j) for j in range(params.N + 1)])


def test_phase_integral_vs_quadrature():
    ctx = CTX30
    p = GaussParams("0.05", "0.2", 10, ctx)
    assert abs(phase_integral(p) - _quad_integral(p, ctx)) < ctx.mp.mpf("1e-20")


def test_phase_integral_negative_theta_branch():
    # theta = -0.4 drives the kernel through negative arguments
    ctx = CTX30
    p = GaussParams("0.02", "-0.4", 25, ctx)
    assert abs(phase_integral(p) - _quad_integral(p, ctx)) < ctx.mp.mpf("1e-20")


def test_phase_integral_theta_zero_form():
    ctx = CTX30
    mp = ctx.mp
    p = GaussParams("0.04", 0, 30, ctx)
    rot = mp.expjpi(mp.mpf(1) / 4)
    xi = mp.mpf(30) * p.x
    want = rot / (2 * mp.sqrt(p.x)) * (1 - phase_term(30, p) * erfc_kernel(xi, p.x, ctx))
    assert abs(phase_integral(p) - want) <= 10 * ctx.eps * abs(want)


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
    # doubling the explicit range moves the value by less than tol
    ctx = CTX30
    p = GaussParams("0.01", "0.25", 1, ctx)
    tol = ctx.mp.mpf("1e-15")
    base = boundary_series(0, p, TailPolicy(tol), ctx)
    refined = boundary_series(0, p, TailPolicy(tol * ctx.mp.mpf("1e-8")), ctx)
    assert refined.k_stop >= base.k_stop
    assert abs(base.value - refined.value) < tol


def test_tail_policy_validation():
    ctx = CTX30
    p = GaussParams("0.01", "0.25", 40, ctx)
    with pytest.raises(DomainError):
        boundary_series(0, p, TailPolicy(ctx.eps / 10), ctx)
    with pytest.raises(DomainError):
        boundary_series(0, p, TailPolicy(0), ctx)


def test_truncation_error_reported_when_cap_blocks():
    # edge N with N x + theta ~ 1800 needs k_stop past the cap
    ctx = CTX30
    p = GaussParams("0.9", "0.3", 2000, ctx)
    with pytest.raises(TruncationError):
        boundary_series(2000, p, TailPolicy(tol="1e-20", k_max_cap=1000), ctx)


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
    # precision; the budget sits just above the reported tail bounds
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
