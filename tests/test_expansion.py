"""The certified small-x expansion: coefficients, bound, assembly."""

import itertools
import random

import mpmath
import pytest
from mpmath.ctx_mp import MPContext

from quadgauss import (
    DomainError,
    ExpansionReport,
    GaussParams,
    PrecisionContext,
    ResourceBudgetError,
    asymptotic_sum,
    cot_pi_reg,
    direct_sum,
    exact_sum_detail,
    phase_term,
)
from quadgauss import core, expansion
from quadgauss.expansion import edge_layers

from _utils import sig3

CTX40 = PrecisionContext(40)
CTX50 = PrecisionContext(50)

# column 1 / column 2 study parameters and their published error columns
COL1 = ("1/(250*sqrt(pi))", "-0.125", 7300)
COL2 = ("1/(250*sqrt(pi))", "0.25", 7430)

COL1_ERRORS = {1: "2.216e-04", 2: "5.642e-07", 3: "2.346e-09", 4: "1.369e-11",
               6: "9.569e-16", 8: "1.334e-19", 10: "3.096e-23"}
COL2_ERRORS = {1: "1.198e-04", 2: "2.527e-07", 3: "8.332e-10", 4: "3.752e-12",
               6: "1.509e-16", 8: "1.194e-20", 10: "1.568e-24"}


def _params(ctx, spec3):
    xs, ts, n = spec3
    mp = ctx.mp
    x = mp.mpf(1) / (250 * mp.sqrt(mp.pi)) if "pi" in xs else mp.mpf(xs)
    return GaussParams(x, ts, n, ctx)


def test_coeff_zero_when_both_fractions_vanish():
    # dyadic x makes N x an exact integer, so frac = 0 and theta = 0
    ctx = CTX40
    p = GaussParams("0.03125", 0, 512, ctx)
    assert p.frac == 0 and p.whole == 16
    assert all(term == 0 for term in asymptotic_sum(p, 6).terms)


def test_coeff_r0_closed_form():
    ctx = CTX40
    p = _params(ctx, COL1)
    fN = phase_term(p.N, p)
    want = fN * cot_pi_reg(p.frac, ctx) - cot_pi_reg(p.theta, ctx)
    c0 = 2j * ctx.mp.pi * asymptotic_sum(p, 1).terms[0]  # term 0 is C_0/(2 pi i)
    assert abs(c0 - want) <= 10 * ctx.eps * abs(want)


def test_coeff_near_integer_regression():
    # frac ~ 1e-9 must stay finite and close to -cot_pi_reg(theta)
    ctx = CTX40
    mp = ctx.mp
    n = 1024
    theta = mp.mpf("0.25")
    x = (3 + mp.mpf("1e-9") - theta) / n
    p = GaussParams(x, theta, n, ctx)
    assert abs(p.frac) < mp.mpf("1.1e-9")
    c0 = 2j * mp.pi * asymptotic_sum(p, 1).terms[0]
    assert ctx.mp.isfinite(c0.real) and ctx.mp.isfinite(c0.imag)
    assert abs(c0 + cot_pi_reg(theta, ctx)) < mp.mpf("1e-8")


def _zeta_pair(r, a, sign, digits):
    """zeta(2r+1, 1+a) + sign zeta(2r+1, 1-a) from mpmath far above the
    working precision, and pi cot(pi a) - 1/a for the difference at r = 0."""
    with mpmath.workdps(3 * digits + 30):
        a = mpmath.mpf(a)
        if r == 0:
            return mpmath.pi * mpmath.cot(mpmath.pi * a) - 1 / a
        return mpmath.zeta(2 * r + 1, 1 + a) + sign * mpmath.zeta(2 * r + 1, 1 - a)


@pytest.mark.parametrize("case", ["col1", "col2", "near_integer"])
def test_edge_layers_match_coefficient_form(case):
    # at k0 = 0 the layers are the expansion terms: e^{i pi/4} T_r(a) is
    # (1/2)_r (x/(pi i))^r D_r(a) / (2 pi i), D_r(a) = zeta(2r+1, 1+a) -
    # zeta(2r+1, 1-a) and pi cot(pi a) - 1/a at r = 0, and bound_r is the
    # zeta-sum form of the remainder bound
    ctx = CTX40
    mp = ctx.mp
    if case == "near_integer":
        theta = mp.mpf("0.25")
        p = GaussParams((3 + mp.mpf("1e-9") - theta) / 1024, theta, 1024, ctx)
    else:
        p = _params(ctx, COL1 if case == "col1" else COL2)
    rot = mp.expjpi(mp.mpf(1) / 4)
    for a in (p.frac, p.theta):
        for r, (term, bound) in enumerate(edge_layers(p.x, a, 0, ctx)):
            if r == 10:
                break
            poch = mp.rf(mp.mpf(1) / 2, r)
            diff = mp.mpf(_zeta_pair(r, a, -1, ctx.digits))
            want = poch * (p.x / (mp.pi * 1j)) ** r * diff / (2j * mp.pi)
            assert abs(rot * term - want) <= 10 * ctx.eps * max(abs(want), mp.mpf("1e-30"))
            want_bound = (mp.rf(mp.mpf(1) / 2, r + 1) / (2 * mp.pi) * (p.x / mp.pi) ** (r + 1)
                          * mp.mpf(_zeta_pair(r + 1, a, 1, ctx.digits)))
            assert abs(bound - want_bound) <= 10 * ctx.eps * want_bound
    rep = asymptotic_sum(p, 10)
    assert rep.remainder_bound == rep.bounds[-1]


def test_edge_layers_sum_does_not_depend_on_the_window():
    # the k0 kernel pairs ride in term_0, so the window sets only the cost:
    # at k0 = 0 and k0 = 16 the terms sum to one T(a), within the bounds
    ctx = CTX40
    for a in ("0.3217", "-0.5", "1e-12"):
        sums = []
        for k0, n in ((0, 40), (16, 8)):
            terms, bounds = zip(*itertools.islice(edge_layers("0.01", a, k0, ctx), n))
            sums.append((ctx.mp.fsum(terms), bounds[-1]))
        (t_0, b_0), (t_16, b_16) = sums
        assert b_0 + b_16 < ctx.mp.mpf("1e-25") and abs(t_0) > ctx.mp.mpf("1e-14"), a
        assert abs(t_0 - t_16) <= b_0 + b_16 + 10 * ctx.eps * abs(t_0), a


def test_edge_layers_refuses_outside_its_domain():
    # a negative window or an offset past 1/2 pairs zeta arguments that no
    # longer describe T(a): k0 = -1 at a = 0.3, x = 0.05 once summed to
    # 0.10564 + 0.18098i against T(a) = 0.12047 + 0.11580i.  Refused at the
    # call, before any layer; |a| = 1/2 is inside
    ctx = CTX40
    for a, k0 in ((0.3, -1), (0.3, 1.0), (0.3, "1"), (0.5 + 2.0**-40, 0), (-0.75, 2),
                  (mpmath.nan, 0)):
        with pytest.raises(DomainError):
            edge_layers(0.05, a, k0, ctx)
    for a in (0.5, -0.5):
        next(edge_layers(0.05, a, 0, ctx))


@pytest.mark.parametrize("k0", [0, 16])
def test_digamma_gap_matches_digamma_pair(k0):
    # the r = 0 layer psi(k0+1+a) - psi(k0+1-a) from the cotangent and a
    # finite sum, against mpmath's digamma far above the working precision;
    # a tiny a keeps its relative accuracy
    ctx = CTX40
    for a in ("0.3217", "-0.5", "0.5", "0.4999999", "1e-12", "-1e-40"):
        a = ctx.mp.mpf(a)
        got = expansion._digamma_gap(a, k0, ctx)
        with mpmath.workdps(3 * ctx.digits + 30):
            a = mpmath.mpf(a)
            ref = mpmath.digamma(k0 + 1 + a) - mpmath.digamma(k0 + 1 - a)
            assert abs(mpmath.mpf(got) / ref - 1) <= 8 * ctx.mp.eps, a


def test_remainder_bound_reference_values():
    ctx = CTX50
    rep = asymptotic_sum(_params(ctx, COL1), 10)
    assert sig3(rep.bounds[0]) == "4.06e-04"
    assert sig3(rep.bounds[9]) == "3.10e-23"


def test_remainder_bound_symbolic_specialization():
    # frac = 1/2, theta = 0, n = 1, where the theta half drops:
    # (1/(4 pi)) (x/pi) [zeta(3, 1/2) + zeta(3, 3/2)] = x (14 zeta(3) - 8)/(4 pi^2)
    ctx = CTX40
    mp = ctx.mp
    x = mp.mpf(1) / 256
    p = GaussParams(x, 0, 128, ctx)
    assert p.frac == 0.5 and p.theta == 0
    got = asymptotic_sum(p, 1).bounds[0]
    with mpmath.workdps(3 * ctx.digits + 30):
        zeta3 = mp.mpf(mpmath.zeta(3))
    want = x * (14 * zeta3 - 8) / (4 * mp.pi ** 2)
    assert abs(got - want) <= 10 * ctx.eps * want
    # frac = theta = 0 (N x = 1 exactly): both edge series vanish, and so
    # does every bound
    p = GaussParams(x, 0, 256, ctx)
    assert p.frac == 0 and p.theta == 0
    assert asymptotic_sum(p, 5).bounds == (0,) * 5


def test_remainder_bound_positive_and_validated():
    ctx = CTX40
    # N x + theta = 1/2 exactly: frac = 1/2 and theta = -1/2, both edges
    p = GaussParams(ctx.mp.mpf(1) / 128, "-0.5", 128, ctx)
    assert p.frac == 0.5 and p.whole == 0
    assert asymptotic_sum(p, 3).bounds[2] > 0
    # asymptotic_sum refuses n = 0 and a bool n, as GaussParams a bool N
    p = GaussParams("0.01", "0.1", 100, ctx)
    for n in (0, True):
        with pytest.raises(DomainError):
            asymptotic_sum(p, n)


def test_expansion_reference_errors_col1():
    ctx = CTX50
    p = _params(ctx, COL1)
    oracle = direct_sum(p)
    for n in (1, 4, 10):
        rep = asymptotic_sum(p, n)
        assert sig3(abs(oracle - rep.value)) == sig3(COL1_ERRORS[n])
        assert abs(oracle - rep.value) <= rep.remainder_bound + 1e4 * ctx.eps * p.N


def test_expansion_reference_error_col2():
    ctx = CTX50
    p = _params(ctx, COL2)
    rep = asymptotic_sum(p, 2)
    assert sig3(abs(direct_sum(p) - rep.value)) == sig3(COL2_ERRORS[2])


def test_expansion_whole_zero_branch():
    ctx = CTX40
    p = GaussParams("0.001", 0, 300, ctx)
    rep = asymptotic_sum(p, 3)
    assert rep.renorm_term == 0
    err = abs(direct_sum(p) - rep.value)
    assert err <= rep.remainder_bound + 1e4 * ctx.eps * p.N


def _reduced_pair(p, n):
    """(report, oracle less the report's renorm, boundary and kernel terms):
    the reduced sum the series targets, as table1/table2 form it."""
    rep = asymptotic_sum(p, n)
    return rep, direct_sum(p) - rep.renorm_term - rep.boundary_term - rep.E_term


def test_reduced_pair_reference_values():
    ctx = CTX50
    for col, n, want in ((COL1, 6, COL1_ERRORS[6]), (COL2, 8, COL2_ERRORS[8])):
        rep, ref_s = _reduced_pair(_params(ctx, col), n)
        assert sig3(abs(ref_s - ctx.mp.fsum(rep.terms))) == sig3(want)


def test_reduced_pair_degenerate_series():
    # frac = theta = 0: the series is identically zero and the reference
    # sits inside the remainder bound
    ctx = CTX40
    p = GaussParams("0.03125", 0, 512, ctx)
    rep, ref_s = _reduced_pair(p, 4)
    assert ctx.mp.fsum(rep.terms) == 0
    assert abs(ref_s) <= rep.remainder_bound + 1e4 * ctx.eps * p.N


def test_bound_is_n_independent():
    # same frac, different N: bit-identical remainder bounds
    ctx = CTX40
    mp = ctx.mp
    x = mp.mpf(3) / 256
    p1 = GaussParams(x, "0.125", 100, ctx)
    p2 = GaussParams(x, "0.125", 356, ctx)  # N differs by 256, frac identical
    assert p1.frac == p2.frac and p1.whole != p2.whole
    b1 = asymptotic_sum(p1, 5).remainder_bound
    b2 = asymptotic_sum(p2, 5).remainder_bound
    assert b1 == b2


def test_error_strictly_decreases_on_reference_columns():
    ctx = CTX50
    for col in (COL1, COL2):
        p = _params(ctx, col)
        oracle = direct_sum(p)
        errs = []
        for n in (1, 2, 3, 4, 6, 8, 10):
            errs.append(abs(oracle - asymptotic_sum(p, n).value))
        assert all(a > b for a, b in zip(errs, errs[1:]))


def test_containment_as_frac_crosses_integer():
    # seven consecutive N walking xi through an integer
    ctx = CTX40
    mp = ctx.mp
    x = mp.mpf("0.003")
    for n in range(264, 271):
        p = GaussParams(x, "0.2", n, ctx)
        rep = asymptotic_sum(p, 4)
        err = abs(direct_sum(p) - rep.value)
        assert err <= rep.remainder_bound + 1e4 * ctx.eps * n, n


def test_containment_randomized_sweep_small():
    ctx = CTX40
    mp = ctx.mp
    rng = random.Random(90125)
    for _ in range(6):
        x = mp.mpf(f"{10 ** rng.uniform(-3.3, -1.7):.17f}")
        nx = rng.uniform(0.2, 40)
        n = max(1, int(nx / float(x)))
        theta = mp.mpf(f"{rng.uniform(-0.5, 0.5):.15f}")
        p = GaussParams(x, theta, n, ctx)
        depth = rng.randint(1, 10)
        rep = asymptotic_sum(p, depth)
        err = abs(direct_sum(p) - rep.value)
        assert err <= rep.remainder_bound + 1e4 * ctx.eps * n, (x, theta, n, depth)


def test_reassembly_is_exact():
    ctx = CTX40
    p = _params(ctx, COL1)
    rep = asymptotic_sum(p, 6)
    parts = rep.renorm_term + rep.boundary_term + rep.E_term + sum(rep.terms)
    assert abs(rep.value - parts) <= 10 * ctx.eps * abs(rep.value)


def test_classical_equals_general_at_theta_zero():
    # theta = 0 is the limit of nearby theta, except that the bound drops
    # the zeta(2n+1, 1 +- theta) half of the edge-0 series
    ctx = CTX40
    mp = ctx.mp
    p0 = GaussParams("0.0023", 0, 6000, ctx)
    rep_0 = asymptotic_sum(p0, 5)
    rep_t = asymptotic_sum(GaussParams("0.0023", "1e-50", 6000, ctx), 5)
    assert abs(rep_0.value - rep_t.value) <= 10 * ctx.eps * abs(rep_t.value)
    frac = p0.frac
    poch = mp.rf(mp.mpf(1) / 2, 5)
    frac_only = (poch / (2 * mp.pi) * (mp.mpf("0.0023") / mp.pi) ** 5
                 * mp.mpf(_zeta_pair(5, frac, 1, ctx.digits)))
    assert abs(rep_0.remainder_bound - frac_only) <= 10 * ctx.eps * frac_only
    assert rep_0.remainder_bound < rep_t.remainder_bound


def test_classical_bound_contains_on_resolved_column3():
    ctx = CTX50
    mp = ctx.mp
    x = 1 / (500 * mp.sqrt(mp.mpf(3)))
    p = GaussParams(x, 0, 6000, ctx)
    oracle = direct_sum(p)
    for n in range(1, 11):
        rep = asymptotic_sum(p, n, ctx)
        err = abs(oracle - rep.value)
        assert err <= rep.remainder_bound + 1e4 * ctx.eps * 6000, n


def test_default_truncation_depth():
    ctx = CTX40
    p = _params(ctx, COL1)
    rep = asymptotic_sum(p)
    assert len(rep.terms) == 10
    assert not rep.beyond_optimal


def test_beyond_optimal_flag():
    ctx = CTX40
    p = GaussParams("0.5", "0.1", 3, ctx)  # optimal index is tiny here
    rep = asymptotic_sum(p, 8)
    assert rep.beyond_optimal
    assert rep.optimal_n <= 8


def test_report_stores_only_what_it_cannot_derive():
    assert ExpansionReport._fields == ("value", "terms", "bounds", "renorm_term",
                                       "boundary_term", "E_term", "optimal_n")
    # frac = -0.4 at x = 1/2: the optimal index is round(pi 0.36 / 0.5) = 2
    p = GaussParams("0.5", "0.1", 3, CTX40)
    below, at = asymptotic_sum(p, 1), asymptotic_sum(p, 2)
    assert below.optimal_n == at.optimal_n == 2
    assert not below.beyond_optimal and at.beyond_optimal
    assert at.remainder_bound is at.bounds[-1] and len(at.bounds) == len(at.terms) == 2


def test_results_bit_identical_across_fresh_contexts():
    values = []
    for _ in range(2):
        ctx = PrecisionContext(30)
        p = GaussParams("0.0123", "-0.31", 850, ctx)
        rep = asymptotic_sum(p, 5)
        values.append((direct_sum(p), rep.value, rep.remainder_bound))
    assert values[0] == values[1]


def test_optimal_truncation_values():
    ctx = CTX50
    mp = ctx.mp
    x = 1 / (250 * mp.sqrt(mp.pi))
    p = GaussParams(x, "-0.125", 7300, ctx)
    assert asymptotic_sum(p, 1).optimal_n == 589
    # N x + theta = 1 and 1/2 up to the rounding of x: |frac| = 0 and 1/2
    for theta, want in ((0, 3.141592653589793 / 0.01), ("-0.5", 3.141592653589793 / 0.04)):
        p = GaussParams("0.01", theta, 100, ctx)
        assert asymptotic_sum(p, 1).optimal_n == round(want)


def test_optimal_index_follows_the_larger_edge_offset():
    # frac = -0.01 alone would give n = 10, with bound 8.88; the theta edge
    # at 0.49 turns first, so the default stops at its least bound
    ctx = CTX40
    p = GaussParams("0.3", "0.49", 5, ctx)
    rep = asymptotic_sum(p)
    assert rep.optimal_n == len(rep.terms) == 3
    assert rep.remainder_bound == min(asymptotic_sum(p, 10).bounds)
    assert abs(direct_sum(p) - rep.value) <= rep.remainder_bound


def test_tiny_x_below_double_range():
    # x under the double-precision range still gets a truncation index
    ctx = PrecisionContext(30)
    for xs in ("1e-320", "1e-400"):
        p = GaussParams(xs, "0.25", 1, ctx)
        rep = asymptotic_sum(p, 4)
        assert not rep.beyond_optimal
        err = abs(direct_sum(p) - rep.value)
        assert err <= rep.remainder_bound + 1e4 * ctx.eps * p.N, xs


@pytest.mark.parametrize("full_x", [False, True])
@pytest.mark.parametrize("N", [10**12, 10**18])
@pytest.mark.parametrize("c, theta", [(17.3, 0.3), (1500.7, 0.3),
                                      (17.8, -0.45), (3.1, 0.4999)])
def test_large_N_agrees_with_higher_digits(N, c, theta, full_x):
    # the same binary (x, theta) at digits 30 and 80, with no N-scaled
    # allowance: phases of size up to N M must keep their digits.  frac
    # takes both signs and sits near 0 for (3.1, 0.4999).  x is c/N as a
    # double, or c/N rounded at digits 30, whose full mantissa makes
    # N x + theta longer than the working precision.
    lo, hi = PrecisionContext(30), PrecisionContext(80)
    x = lo.mp.mpf(c) / N if full_x else c / N
    rep30 = asymptotic_sum(GaussParams(x, theta, N, lo), 8)
    rep80 = asymptotic_sum(GaussParams(x, theta, N, hi), 8)
    mp = hi.mp
    diff = abs(mp.mpc(rep30.value) - rep80.value)
    allow = (rep30.remainder_bound + rep80.remainder_bound
             + 64 * lo.mp.eps * max(1, abs(rep80.value)))
    assert diff <= allow


def test_a_foreign_context_keeps_the_short_sum_digits():
    # params at digits 30, evaluated in a digits-80 ctx: -1/x and theta/x
    # must get the ctx's mag(M^2/x) extra bits, not be formed in params'
    # own context (an error of 1.2e-26 once), so both routes land on the
    # matched digits-80 evaluation of the same binary x and theta
    lo, hi = PrecisionContext(30), PrecisionContext(80)
    x = lo.mp.mpf(1500.7) / 10**12
    p30 = GaussParams(x, "0.3", 10**12, lo)
    p80 = GaussParams(hi.mp.mpf(x), hi.mp.mpf(p30.theta), 10**12, hi)
    pairs = ((asymptotic_sum(p30, 10, hi).value, asymptotic_sum(p80, 10).value),
             (exact_sum_detail(p30, None, hi)[0], exact_sum_detail(p80)[0]))
    for got, want in pairs:
        assert abs(got - want) <= hi.mp.mpf(10) ** -60 * max(1, abs(want))
    # params at digits 80, evaluated in a digits-30 ctx: both routes evaluate
    # the parameters rebuilt in it, x and theta rounded to it, bit for bit
    q80 = GaussParams(hi.mp.mpf("1500.7") / 10**12, hi.mp.mpf(1) / 3, 10**12, hi)
    q30 = GaussParams(q80.x, q80.theta, q80.N, lo)
    got, want = asymptotic_sum(q80, 10, lo), asymptotic_sum(q30, 10)
    assert (got.value, got.bounds) == (want.value, want.bounds)
    got, want = exact_sum_detail(q80, None, lo), exact_sum_detail(q30)
    assert [got[0], got[1].tail_bound, got[2].tail_bound] == \
        [want[0], want[1].tail_bound, want[2].tail_bound]


@pytest.mark.parametrize("N", [1, 3])
@pytest.mark.parametrize("theta", ["-0.25", "-0.5"])
@pytest.mark.parametrize("xs", ["1e-25", "1e-40", "1e-400"])
def test_negative_theta_at_tiny_x_agrees_with_direct_sum(xs, theta, N):
    # a negative theta (and frac) reflects the kernel; its unit phases must
    # not cancel after the 1/(2 sqrt(x)) prefactor, which would leave
    # eps/sqrt(x) of round-off.  No N-scaled allowance.
    ctx = PrecisionContext(30)
    p = GaussParams(xs, theta, N, ctx)
    rep = asymptotic_sum(p, 4)
    S = direct_sum(p)
    allow = rep.remainder_bound + 64 * ctx.mp.eps * max(1, abs(S))
    assert abs(S - rep.value) <= allow


def test_short_sum_budget_refused_before_any_term(monkeypatch):
    # M = N x = 5e11 phases exceed core.DEFAULT_MAX_TERMS
    def no_kernel(*args):
        raise AssertionError("the kernel ran before the budget check")

    monkeypatch.setattr(expansion, "erfc_kernel", no_kernel)
    p = GaussParams("0.5", 0, 10**12, CTX40)
    with pytest.raises(ResourceBudgetError):
        asymptotic_sum(p, 2)


def test_layer_budget_refused_before_any_layer(monkeypatch):
    # an n past expansion._MAX_LAYERS is refused before the short sum and
    # the first layer of either edge
    def no_work(*args):
        raise AssertionError("work ran before the layer budget check")

    monkeypatch.setattr(expansion, "_chirp_sum", no_work)
    monkeypatch.setattr(expansion, "edge_layers", no_work)
    p = GaussParams("0.5", "0.25", 3, CTX40)
    for n in (expansion._MAX_LAYERS + 1, 10**12):
        with pytest.raises(ResourceBudgetError):
            asymptotic_sum(p, n)


def test_no_route_reflects_the_kernel(monkeypatch):
    # the reflected unit phases are short-sum terms, so both routes call
    # the kernel at non-negative arguments only
    args = []

    def spy(t, x, ctx):
        args.append(t)
        return kernel(t, x, ctx)

    kernel = expansion.erfc_kernel
    monkeypatch.setattr(expansion, "erfc_kernel", spy)
    # a negative theta, a negative frac, and N x + theta = 45.3 with the
    # pairs k < 45.3 of the edge-N series at negative arguments
    for xs, theta, n in (("0.003", "-0.45", 700), ("0.37", "-0.2", 100), ("0.9", "0.3", 50)):
        p = GaussParams(xs, theta, n, CTX40)
        asymptotic_sum(p, 4)
        exact_sum_detail(p)
    assert args and min(args) >= 0


@pytest.mark.parametrize("theta", ["-0.3", "0.3"])
def test_no_route_runs_the_phase_loop(monkeypatch, theta):
    # the routes' short sum is the chirp at every length: 0, 1, 2, 47, 48
    # and 49 terms, frac of either sign, with (theta < 0) and without the
    # j = 0 term; theta = -0.3 with N x = 0.05 gives whole = 0, frac < 0,
    # the empty range
    def no_loop(*args):
        raise AssertionError("a route ran the phase loop")

    monkeypatch.setattr(core, "_fixed_partial_sums", no_loop)
    mp = CTX40.mp
    x = mp.mpf("0.01")
    for count in (0, 1, 2, 47, 48, 49):
        for frac in (-0.25, 0.25):
            whole = count + (frac < 0)
            N = int(mp.nint((whole + frac - mp.mpf(theta)) / x))
            if N < 1:
                continue
            p = GaussParams(x, theta, N, CTX40)
            assert (p.whole, p.frac < 0) == (whole, frac < 0)
            asymptotic_sum(p, 4)
            exact_sum_detail(p)


def test_no_route_calls_mpmath_erfc_or_hyperu(monkeypatch):
    # the kernel is one integer evaluation on both sides of its switch: the
    # first input takes the large-t series (r2 ~ 210 at theta), the others
    # Kummer's series
    called = []

    def spy(name, method):
        def wrapped(ctx, *args, **kwargs):
            called.append(name)
            return method(ctx, *args, **kwargs)
        return wrapped

    for name in ("erfc", "hyperu"):
        monkeypatch.setattr(MPContext, name, spy(name, getattr(MPContext, name)))
    for xs, theta, n in (("0.003", "-0.45", 700), ("0.37", "-0.2", 100), ("0.9", "0.3", 50)):
        p = GaussParams(xs, theta, n, CTX40)
        asymptotic_sum(p, 4)
        exact_sum_detail(p)
    assert not called
