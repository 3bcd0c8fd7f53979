"""Special-function layer: the three engines the routes run (the kernel E,
the odd-order Hurwitz-zeta walk, the regularized cotangent) and the
reflection pairs the edge layers build from them."""

import functools
import itertools

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadgauss import DomainError, PrecisionContext, PrecisionError, cot_pi_reg, erfc_kernel

from quadgauss import special
from quadgauss.expansion import edge_layers
from quadgauss.special import zeta_odd_orders

from _utils import (_hzeta, _kernel, erfc_quadrature, kernel_large_t, machin_pi,
                    zeta_series_oracle)

CTX30 = PrecisionContext(30)
CTX50 = PrecisionContext(50)


def zeta_order(r, a, ctx):
    """zeta(2r+1, a): order r of one ``zeta_odd_orders`` walk."""
    return next(itertools.islice(zeta_odd_orders(a, ctx), r - 1, None))


# ---------------------------------------------------------------------------
# kernel E
# ---------------------------------------------------------------------------


def test_kernel_at_zero():
    assert erfc_kernel(0, "0.01", CTX30) == CTX30.mp.mpc(1)


def test_kernel_reflection():
    # t < 0 against mpmath's erfc at the negative argument, not the
    # reflection the kernel itself uses; at x = 0.03 the phase of t^2/x =
    # 49/3 is not real, as it is at x = 0.01
    ctx = CTX30
    mp = ctx.mp
    for x in ("0.01", "0.03"):
        t, x = mp.mpf("-0.7"), mp.mpf(x)
        assert abs(erfc_kernel(t, x, ctx) - _kernel(mp, t, x)) < 10 * ctx.eps, x


def test_kernel_domain():
    with pytest.raises(DomainError):
        erfc_kernel(1, 0, CTX30)
    with pytest.raises(DomainError):
        erfc_kernel(1, "1.5", CTX30)
    with pytest.raises(DomainError):
        erfc_kernel(CTX30.mp.inf, "0.01", CTX30)


def test_kernel_containment_offset_sweep():
    # t = k +- theta, k = 1..50, x = 0.005, n = 3
    ctx = CTX30
    mp = ctx.mp
    x = mp.mpf("0.005")
    theta = mp.mpf("0.3")
    for k in range(1, 51):
        for t in (k - theta, k + theta):
            value, bound = kernel_large_t(mp, t, x, 3)
            assert abs(erfc_kernel(t, x, ctx) - value) <= bound


def test_kernel_containment_grid():
    # deep-n bounds can undercut the working-precision floor of the
    # difference itself; allow that floor on top of the certificate
    ctx = CTX30
    mp = ctx.mp
    floor = mp.mpf(10) ** (-(mp.dps - 2))
    for x in ("0.1", "0.01", "0.005"):
        for t in ("0.5", "1", "3.7", "10"):
            for n in (1, 2, 5, 12):
                value, bound = kernel_large_t(mp, t, x, n)
                err = abs(erfc_kernel(t, mp.mpf(x), ctx) - value)
                assert err <= bound + floor


def test_kernel_self_consistency_via_series():
    ctx = CTX30
    value, bound = kernel_large_t(ctx.mp, 1, "0.01", 5)
    assert abs(erfc_kernel(1, "0.01", ctx) - value) <= bound


@pytest.mark.parametrize("ctx", [CTX30, CTX50], ids=["d30", "d50"])
def test_kernel_against_quadrature_above_series_radius(ctx):
    # |z|^2 = pi t^2/x from 16.5 to 140, on both sides of the switch to the
    # large-t series, against the phase times an erfc quadrature
    mp = ctx.mp
    omega = mp.expjpi(mp.mpf(-1) / 4)
    for x in ("0.9", "0.01", "1e-6"):
        x = mp.mpf(x)
        for r2 in ("16.5", "25", "50", "100", "140"):
            t = mp.sqrt(mp.mpf(r2) * x / mp.pi)
            ref = mp.expjpi(-(t * t / x)) * erfc_quadrature(omega * t * mp.sqrt(mp.pi / x), ctx)
            assert abs(erfc_kernel(t, x, ctx) - ref) <= 10 * ctx.eps * abs(ref), (x, r2)


def _kernel_ulps(t, x, ctx):
    """|erfc_kernel(t, x) - E(t)| in units in the last place of |E| at the
    working precision, E from the mpmath reference 20 digits higher."""
    got = erfc_kernel(t, x, ctx)
    rmp = PrecisionContext(ctx.digits + 20).mp
    ref = _kernel(rmp, t, x)
    return abs(rmp.mpc(got) - ref) / rmp.ldexp(1, rmp.mag(abs(ref)) - ctx.mp.prec)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(log_r2=st.floats(-8, 8), log_x=st.floats(-3, -0.005),
       digits=st.sampled_from([15, 30, 50, 100]))
def test_kernel_within_two_ulps_of_reference(log_r2, log_x, digits):
    # r2 = pi t^2/x log-uniform over both series of the integer kernel
    ctx = PrecisionContext(digits)
    mp = ctx.mp
    x = mp.mpf(10) ** log_x
    t = mp.sqrt(mp.mpf(10) ** log_r2 * x / mp.pi)
    assert _kernel_ulps(t, x, ctx) <= 2, (t, x, digits)


@pytest.mark.parametrize("digits", [15, 30, 50, 100])
def test_kernel_within_two_ulps_at_the_switch(digits):
    ctx = PrecisionContext(digits)
    mp = ctx.mp
    x = mp.mpf("0.37")
    for side in (-1, 1):
        r2 = mp.mpf(special._switch(mp.prec)) * (1 + side * mp.mpf(10) ** -9)
        t = mp.sqrt(r2 * x / mp.pi)
        assert _kernel_ulps(t, x, ctx) <= 2, side


def test_kernel_within_two_ulps_of_a_t_beyond_working_precision():
    # an exact fractional part carries more bits than the working precision;
    # Kummer's series (r2 ~ 46) and the large-t series (r2 ~ 7.8e3)
    ctx = CTX30
    mp = ctx.mp
    x = mp.mpf("0.37")
    for whole in (2, 30):
        with mp.extraprec(2 * mp.prec):
            t = whole + mp.mpf(1) / 3
        assert _kernel_ulps(t, x, ctx) <= 2, whole


@pytest.mark.parametrize("digits", [50, 100, 200])
def test_kernel_within_two_ulps_below_the_old_series_radius(digits):
    # r2 = 15.5: the phase times mpmath's erfc at the working precision was
    # 14, 21 and 22 ulps off here
    ctx = PrecisionContext(digits)
    assert _kernel_ulps(ctx.mp.mpf("0.8"), ctx.mp.mpf("0.13"), ctx) <= 2


# ---------------------------------------------------------------------------
# Hurwitz zeta
# ---------------------------------------------------------------------------


def test_zeta_apery():
    got = zeta_order(1, 1, CTX30)
    want = CTX30.mp.mpf("1.2020569031595942853997381615114")
    assert abs(got - want) <= CTX30.eps * want


def test_zeta_shift_recurrence_value():
    z1 = zeta_order(1, 1, CTX30)
    z2 = zeta_order(1, 2, CTX30)
    assert abs(z2 - (z1 - 1)) <= 10 * CTX30.eps


def test_zeta_half_identity():
    # zeta(s, 1/2) = (2^s - 1) zeta(s) at s = 5
    ctx = CTX30
    lhs = zeta_order(2, "0.5", ctx)
    rhs = 31 * zeta_order(2, 1, ctx)
    assert abs(lhs - rhs) <= 10 * ctx.eps * rhs
    oracle, err = zeta_series_oracle(5, ctx.mp.mpf("0.5"), ctx, k0=30000)
    assert abs(lhs - oracle) <= err + 10 * ctx.eps * rhs


def test_zeta_direct_series_oracle_grid():
    ctx = CTX30
    mp = ctx.mp
    for s, a in [(3, "0.6505"), (3, "1.3495"), (5, "0.875"), (7, "2"), (21, "0.3")]:
        got = zeta_order((s - 1) // 2, mp.mpf(a), ctx)
        oracle, err = zeta_series_oracle(s, mp.mpf(a), ctx, k0=30000)
        assert abs(got - oracle) <= err + 10 * ctx.eps * abs(got)


def test_zeta_recurrence_grid():
    ctx = CTX30
    mp = ctx.mp
    for s in range(3, 23, 2):
        r = (s - 1) // 2
        for a in ("0.0625", "0.25", "0.5", "0.75", "1"):
            a = mp.mpf(a)
            z = zeta_order(r, a, ctx)
            resid = abs(z - a ** (-s) - zeta_order(r, a + 1, ctx))
            assert resid <= 10 * ctx.eps * z


def test_zeta_against_mpmath():
    # the last two are tail-layer arguments where mpmath's zeta(s, a) at the
    # working precision loses digits; the reference runs far above it
    ctx = CTX50
    for s, a in [(3, "0.01"), (3, "1.99"), (9, "0.5"), (13, "1.3"),
                 (13, "509.81184"), (9, "462.038")]:
        got = zeta_order((s - 1) // 2, a, ctx)
        with mpmath.workdps(3 * ctx.digits + 30):
            ref = mpmath.zeta(s, mpmath.mpf(a))
        assert abs(got - ctx.mp.mpf(ref)) <= 10 * ctx.eps * abs(got)


def _rel_err(got, ref):
    """|got/ref - 1| evaluated at the reference's (higher) precision."""
    return abs(mpmath.mpf(got) / ref - 1)


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(a=st.floats(2.0 ** -10, 40.0), digits=st.sampled_from([30, 50, 80]))
def test_zeta_orders_within_eight_working_eps_of_mpmath(a, digits):
    # every order 1..12 of one walk, against mpmath far above the working
    # precision; mp.eps is the working (guarded) precision's, not ctx.eps
    ctx = PrecisionContext(digits)
    a = ctx.mp.mpf(a)
    for r, got in enumerate(itertools.islice(zeta_odd_orders(a, ctx), 12), 1):
        with mpmath.workdps(3 * digits + 30):
            ref = mpmath.zeta(2 * r + 1, mpmath.mpf(a))
            assert _rel_err(got, ref) <= 8 * ctx.mp.eps, (r, a, digits)


def test_zeta_lazy_walk_matches_islice_bit_for_bit():
    # two walks pulled in step, with other work at a raised precision in
    # between, give the same bits as islice
    ctx = CTX30
    mp = ctx.mp
    for lo, hi in (("0.6505", "1.3495"), ("16.6505", "17.3495"), ("509.81184", "0.0625")):
        walks = zip(zeta_odd_orders(lo, ctx), zeta_odd_orders(hi, ctx))
        lazy = []
        for _ in range(12):
            lazy.append(next(walks))
            with mp.extraprec(100):
                mp.zeta(3)
        for a, got in zip((lo, hi), zip(*lazy)):
            assert list(got) == list(itertools.islice(zeta_odd_orders(a, ctx), 12))


def test_zeta_deep_orders_against_reference_pass():
    # exact's deepest walks: hundreds of orders at the window's arguments
    ctx = PrecisionContext(300)
    mp = ctx.mp
    for a in ("16.5", "17.5"):
        a = mp.mpf(a)
        walk = list(itertools.islice(zeta_odd_orders(a, ctx), 400))
        for r in (1, 2, 7, 60, 150, 250, 400):
            ref = _hzeta(mp, 2 * r + 1, a, ctx.digits)
            assert abs(walk[r - 1] - ref) <= 8 * mp.eps * ref, (a, r)


@functools.cache
def _em_coefficients(count):
    """|B_2m|/(2m)!, m = 1..count, from mpmath at 20 digits."""
    with mpmath.workdps(20):
        return [abs(mpmath.bernoulli(2 * m)) / mpmath.factorial(2 * m)
                for m in range(1, count + 1)]


@pytest.mark.parametrize("digits", [15, 30, 50, 100, 200, 450])
def test_zeta_head_corrections_reach_the_target_before_they_turn(digits):
    # the walk's head K = max(10, prec // 6), checked in mpmath apart from
    # the walk: at every order s whose tail factor (a/w)^s, w = K + a, is
    # still at least 2^-P, the Euler-Maclaurin corrections
    # t_m = (a/w)^s |B_2m|/(2m)! (s)_{2m-1} w^(1-2m) fall to 2^(16-P) while
    # each is still smaller than the one before.  P = prec + 32 and that
    # target are stricter than the walk's own, P = prec + _GUARD and
    # tiny = 2^(_GUARD/2 - P) at _GUARD = 16, so this checks the head with
    # room to spare
    prec = PrecisionContext(digits).mp.prec
    P, K = prec + 32, max(10, prec // 6)
    coef = _em_coefficients(300)  # the cases below reach m = 248 at most
    with mpmath.workdps(20):
        target = mpmath.mpf(2) ** (16 - P)
        for a in (2.0**-10, 0.25, 0.5, 1, 1.3495, 5.5, 17.5, 40, 509.81184, 1e5):
            a = mpmath.mpf(a)
            w = K + a
            for s in range(3, 2 * (400 if digits >= 200 else 120) + 2, 2):
                scale = (a / w) ** s
                if scale < mpmath.mpf(2) ** -P:  # the walk's tail has underflowed
                    break
                m, t = 1, scale * coef[0] * s / w
                while t > target:
                    nxt = t * coef[m] / coef[m - 1] * (s + 2 * m - 1) * (s + 2 * m) / w ** 2
                    assert nxt < t, (a, s, m)
                    m, t = m + 1, nxt


@pytest.mark.parametrize("digits", [15, 30, 100])
def test_zeta_orders_within_a_rounding_of_the_reference(digits):
    # orders 1..60 of the walk at the edge layers' and the remainder's
    # arguments, against the Euler-Maclaurin reference 20 digits higher:
    # each within its one rounding, half a unit in the last place of the
    # value, and 1/8 of a unit more for the walk before it (its remainder,
    # under tiny = 2^(_GUARD/2) units of 2^-P at _GUARD = 16, is 2^-8 of
    # a unit; the rest is floors of 2^-P that add at random).  The head's
    # derivation is tight at digits 15, where a = 17.5 reaches order 53
    ctx = PrecisionContext(digits)
    mp = ctx.mp
    rmp = PrecisionContext(digits + 20).mp
    for a in (2.0**-10, 0.25, 0.6505, 1.3495, 5.5, 16.5, 17.5, 40, 509.81184, 1e5):
        walk = itertools.islice(zeta_odd_orders(a, ctx), 60)
        for r, got in enumerate(walk, 1):
            ref = _hzeta(rmp, 2 * r + 1, rmp.mpf(a), 30)
            unit = rmp.ldexp(1, mp.mag(got) - mp.prec)
            assert abs(rmp.mpf(got) - ref) <= (0.5 + 0.125) * unit, (a, r)


def test_zeta_guard_raises_when_the_corrections_stop_shrinking(monkeypatch):
    # ratios inflated 2^20 times make the corrections grow before they reach
    # their target: the walk refuses rather than return a wrong order
    ratios = special._em_ratios
    monkeypatch.setattr(special, "_em_ratios",
                        lambda count, bits: [c << 20 for c in ratios(count, bits)])
    with pytest.raises(PrecisionError):
        next(zeta_odd_orders("0.5", CTX30))


# ---------------------------------------------------------------------------
# regularized cotangent and the reflection pairs
# ---------------------------------------------------------------------------


def test_cot_reg_values():
    mp = CTX30.mp
    assert cot_pi_reg(0, CTX30) == 0
    assert abs(cot_pi_reg("0.5", CTX30) - (-2)) <= 10 * CTX30.eps
    assert abs(cot_pi_reg("0.25", CTX30) - (mp.pi - 4)) <= 10 * CTX30.eps


def test_cot_reg_seam():
    # around 0.1 the plain closed form loses little to cancellation, so
    # the raised-precision one must agree with it
    for ctx in (CTX30, CTX50):
        mp = ctx.mp
        for lam in ("0.09999999", "0.1", "0.10000001"):
            lam = mp.mpf(lam)
            direct = mp.pi * mp.cospi(lam) / mp.sinpi(lam) - 1 / lam
            assert abs(cot_pi_reg(lam, ctx) - direct) <= 10 * ctx.eps


def test_cot_reg_odd():
    ctx = CTX30
    for lam in ("0.05", "0.3", "0.77", "0.99"):
        assert cot_pi_reg("-" + lam, ctx) == -cot_pi_reg(lam, ctx)


def test_cot_reg_cubic_remainder_near_zero():
    # cot_pi_reg(lam) = -2 zeta(2) lam - 2 zeta(4) lam^3 - ...
    ctx = CTX50
    mp = ctx.mp
    z2 = mp.pi ** 2 / 6
    z4 = mp.pi ** 4 / 90
    C = 2 * z4 * mp.mpf("1.1")
    for lam in ("0.001", "0.0001", "0.00001"):
        lam = mp.mpf(lam)
        assert abs(cot_pi_reg(lam, ctx) + 2 * z2 * lam) <= C * lam ** 3


@pytest.mark.parametrize("digits", [15, 30, 100])
def test_cot_reg_within_three_quarter_ulp_near_the_singularity(digits):
    # the closed form cancels 2 log2(1/|lam|) bits near 0, and four roundings
    # of pi cot(pi lam) and 1/lam, each about 1/lam, come to about 2.4 ulp of
    # the result without the extra bits above those; with them, one rounding
    # and a little: against mpmath 20 digits higher, in units of 2^-prec at
    # the magnitude of the result
    ctx = PrecisionContext(digits)
    mp = ctx.mp
    rmp = PrecisionContext(digits + 20).mp
    for lam in (2.0**-20, -3e-7, 1e-3 / 3, 0.07, 0.4999):
        lam = mp.mpf(lam) * (1 - mp.mpf(2) ** -30 / 3)
        ref = rmp.pi * rmp.cospi(rmp.mpf(lam)) / rmp.sinpi(rmp.mpf(lam)) - 1 / rmp.mpf(lam)
        err = abs(rmp.mpf(cot_pi_reg(lam, ctx)) - ref)
        assert err <= 0.75 * rmp.ldexp(1, rmp.mag(ref) - mp.prec), lam


def test_cot_reg_domain():
    with pytest.raises(DomainError):
        cot_pi_reg(1, CTX30)
    with pytest.raises(DomainError):
        cot_pi_reg("-1.2", CTX30)


def test_pair_diff_zero_for_all_r():
    # at a = 0 both walks read one argument and the cotangent vanishes: every
    # layer of the edge series is exactly 0, whatever the window
    for k0 in (0, 16):
        layers = itertools.islice(edge_layers("0.01", 0, k0, CTX30), 11)
        assert all(term == 0 for term, _ in layers), k0


def test_pair_sum_at_zero():
    # the first layer's bound (x/pi)/(4 pi) [zeta(3, 1+a) + zeta(3, 1-a)]
    # holds 2 zeta(3) at a = 0
    mp = CTX30.mp
    x = mp.mpf("0.01")
    _, bound = next(edge_layers(x, 0, 0, CTX30))
    got = bound / (x / (4 * mp.pi ** 2))
    assert abs(got - mp.mpf("2.4041138063191885708")) <= mp.mpf("1e-15")


def test_pair_values_from_series_oracle():
    ctx = CTX30
    mp = ctx.mp
    lam = mp.mpf("0.3495")
    d1m, e1 = zeta_series_oracle(3, 1 + lam, ctx, k0=30000)
    d1p, e2 = zeta_series_oracle(3, 1 - lam, ctx, k0=30000)
    zm, zp = zeta_order(1, 1 + lam, ctx), zeta_order(1, 1 - lam, ctx)
    got = zm - zp
    assert abs(got - (d1m - d1p)) <= e1 + e2 + 10 * ctx.eps
    assert f"{float(got):.2e}" == "-3.41e+00"
    got_sum = zm + zp
    assert abs(got_sum - (d1m + d1p)) <= e1 + e2 + 10 * ctx.eps
    assert f"{float(got_sum):.3g}" == "4.5"
    got_eighth = zeta_order(1, "1.125", ctx) + zeta_order(1, "0.875", ctx)
    assert f"{float(got_eighth):.3g}" == "2.61"


def test_machin_pi_cross_check():
    # independent high-precision pi confirms the constant used everywhere
    ctx = CTX50
    assert abs(machin_pi(ctx) - ctx.mp.pi) <= 10 * ctx.eps


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(log_r2=st.floats(-2, 2.6), log_x=st.floats(-3, -0.005),
       digits=st.sampled_from([15, 30, 50, 100]), long=st.booleans())
@example(log_r2=2.04, log_x=-0.43, digits=30, long=True)  # r2 = 110, past the switch
@example(log_r2=2.03, log_x=-2.0, digits=30, long=True)  # r2 = 107, below it
@example(log_r2=2.42, log_x=-1.0, digits=100, long=False)  # r2 = 263, below it
@example(log_r2=3.03, log_x=-0.43, digits=450, long=True)  # r2 = 1072, below it
@example(log_r2=3.0335, log_x=-4.0, digits=450, long=True)  # r2 = 1080, past it
def test_kernel_before_its_rounding(log_r2, log_x, digits, long):
    # _kernel_fixed, before the one rounding, against the mpmath reference 20
    # digits higher, within its docstring bounds on |E| in units of 2^-prec
    # at _GUARD = 16: 8 prec 2^-(16 + bitlen(prec)), about 2^-13, below the
    # switch and 2^-7 from it, at every precision.  Both series' term-count
    # bits show only where the count is large: at 450 digits next to the
    # switch.  A long t carries 3 prec bits, as an exact fractional part of
    # N x + theta does
    ctx = PrecisionContext(digits)
    mp = ctx.mp
    prec = mp.prec
    x = mp.mpf(10) ** log_x
    with mp.extraprec(2 * prec if long else 0):
        t = mp.sqrt(mp.mpf(10) ** log_r2 * x / mp.pi)
    re, im, scale = special._kernel_fixed(t._mpf_, x._mpf_, prec)
    rmp = PrecisionContext(digits + 20).mp
    ref = _kernel(rmp, t, x)
    err = abs(rmp.mpc(rmp.ldexp(re, -scale), rmp.ldexp(im, -scale)) - ref)
    below = 10 ** log_r2 < special._switch(prec)
    ulps = 8 * prec * 2.0 ** -(16 + prec.bit_length()) if below else 2.0 ** -7
    assert err <= ulps * rmp.ldexp(abs(ref), -prec), (t, x, below)
