"""Parameter handling, the direct oracle, splitting, normalization."""

import ast
import importlib
import pathlib
import pkgutil
import random

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadgauss import (
    DomainError,
    GaussParams,
    PrecisionContext,
    PrecisionError,
    ResourceBudgetError,
    direct_sum,
    normalize_params,
    phase_sum,
    phase_term,
)
from quadgauss import core
from quadgauss.core import (DEFAULT_MAX_TERMS, _chirp_fixed, _chirp_sum, _fixed_partial_sums,
                            _phase_partial_sums)
from quadgauss.expansion import _renorm_term
from quadgauss.precision import ensure_finite

from _utils import _expjpi_sums

CTX30 = PrecisionContext(30)


def test_params_validation():
    with pytest.raises(DomainError):
        GaussParams(0, 0, 5, CTX30)
    with pytest.raises(DomainError):
        GaussParams(1, 0, 5, CTX30)
    with pytest.raises(DomainError):
        GaussParams("0.5", "0.51", 5, CTX30)
    with pytest.raises(DomainError):
        GaussParams("0.5", "-0.51", 5, CTX30)
    with pytest.raises(DomainError):
        GaussParams("0.5", 0, 0, CTX30)
    with pytest.raises(DomainError):
        GaussParams("0.5", 0, 2.0, CTX30)
    GaussParams("0.5", "0.5", 1, CTX30)
    GaussParams("0.5", "-0.5", 1, CTX30)
    for digits in (30.0, True):
        with pytest.raises(DomainError):
            PrecisionContext(digits)


def test_ensure_finite_rejects_either_part():
    mp = CTX30.mp
    for value in (mp.mpf("nan"), mp.mpc(1, mp.inf)):
        with pytest.raises(PrecisionError):
            ensure_finite(mp, value, "test")
    assert ensure_finite(mp, mp.mpc(1, 2), "test") == mp.mpc(1, 2)


def test_term_trivials():
    p = GaussParams("0.5", 0, 4, CTX30)
    assert phase_term(0, p) == 1
    assert abs(phase_term(2, p) - 1) <= 10 * CTX30.eps  # exp(2 pi i)


def test_term_large_phase_cross_precision():
    # phase ~ 1.2e5 must be reduced before evaluation; check against a
    # 60-digit evaluation and unit modulus
    lo, hi = PrecisionContext(30), PrecisionContext(60)
    for ctx in (lo, hi):
        mp = ctx.mp
        x = 1 / (250 * mp.sqrt(mp.pi))
        p = GaussParams(x, "-0.125", 7300, ctx)
        v = phase_term(7300, p)
        assert abs(abs(v) - 1) <= 10 * ctx.eps
        if ctx is lo:
            low_val = v
        else:
            assert abs(low_val - v) <= lo.mp.mpf(10) ** (-(lo.digits + 5))


@settings(derandomize=True, database=None, deadline=None)
@given(t=st.integers(min_value=0, max_value=10**18),
       x=st.floats(min_value=2.0**-40, max_value=1.0, exclude_max=True),
       theta=st.floats(min_value=-0.5, max_value=0.5))
def test_phase_term_exact_phase_property(t, x, theta):
    # the phase is formed exactly, so f(t) at digits 30 agrees with a
    # digits-80 evaluation on the same binary x and theta for any t
    lo, hi = PrecisionContext(30), PrecisionContext(80)
    a = phase_term(t, GaussParams(x, theta, 1, lo))
    b = phase_term(t, GaussParams(x, theta, 1, hi))
    assert abs(hi.mp.mpc(a) - b) <= lo.eps


def test_direct_sum_single_term():
    ctx = CTX30
    mp = ctx.mp
    p = GaussParams("0.3", "0.2", 1, ctx)
    want = mp.expjpi(mp.mpf("0.3") + 2 * mp.mpf("0.2"))
    assert abs(direct_sum(p) - want) <= 10 * ctx.eps


def test_direct_sum_gauss_example():
    # S_4(1/2, 0) = i + 1 + i + 1 = 2 + 2i = (1+i) sqrt(4)
    ctx = CTX30
    got = direct_sum(GaussParams("0.5", 0, 4, ctx))
    assert abs(got - ctx.mp.mpc(2, 2)) <= 100 * ctx.eps


def test_direct_sum_budget():
    p = GaussParams("0.5", 0, DEFAULT_MAX_TERMS + 1, CTX30)
    with pytest.raises(ResourceBudgetError):
        direct_sum(p)


def test_oracle_stability_on_random_sets():
    # digits d vs d+10 agree to 1e(-d+2) * N
    rng = random.Random(777)
    d = 30
    lo, hi = PrecisionContext(d), PrecisionContext(d + 10)
    for _ in range(20):
        xs = f"{rng.uniform(1e-3, 0.999):.17f}"
        ts = f"{rng.uniform(-0.5, 0.5):.17f}"
        n = rng.randint(1, 10**4)
        a = direct_sum(GaussParams(xs, ts, n, lo))
        b = direct_sum(GaussParams(xs, ts, n, hi))
        assert abs(a - b) <= lo.mp.mpf(10) ** (-d + 2) * n
    # partial sums grow like j at tiny x: the accumulated rounding must
    # stay within 10 eps of a digits+30 run on the same binary x, not grow
    # with N
    ref = PrecisionContext(d + 30)
    for k in (30, 40):
        n = rng.randint(10**4, 2 * 10**4)
        x = lo.mp.mpf(2) ** -k
        a = direct_sum(GaussParams(x, 0, n, lo))
        b = direct_sum(GaussParams(ref.mp.mpf(x), 0, n, ref))
        assert abs(ref.mp.mpc(a) - b) <= 10 * lo.eps


def _reference(x, theta, count, digits, stride):
    """The expjpi loop's partial sums on the same binary x and theta, 20
    digits above digits, plus the bits its largest phase
    |x| count^2 + 2 |theta| count takes from each rounding of a phase."""
    ref = PrecisionContext(digits + 20).mp
    if count:
        ref.prec += max(0, mpmath.mag(abs(x) * count**2 + 2 * abs(theta) * count))
    return ref, list(_expjpi_sums(x, theta, count, ref, stride))


def _check_kernel(digits, count, stride, form, extra=0):
    """The loop's partial sums before their rounding within the docstring
    bound j 2^(8-B), B = prec + bitlen(count) + 20, of the expjpi loop
    (``_reference``) on the same binary inputs, form(mp) -> (x, theta), and
    within one rounding more, 2^-prec |S_j|, after it.  extra bits raise
    the context around forming the inputs, as _renorm_term raises its own;
    the loop runs at the working precision prec."""
    mp = PrecisionContext(digits).mp
    with mp.extraprec(extra):
        x, theta = form(mp)
    prec = mp.prec
    B = prec + count.bit_length() + 20
    ref, want = _reference(x, theta, count, digits, stride)
    got = list(_fixed_partial_sums(x, theta, count, prec, stride))
    assert [j for j, *_ in got] == [j for j, _ in want]
    for (j, re, im, scale), (_, b) in zip(got, want):
        fixed = ref.mpc(ref.ldexp(re, -scale), ref.ldexp(im, -scale))
        assert abs(fixed - b) <= ref.ldexp(j, 8 - B), (j, fixed, b)
    for (j, a), (_, b) in zip(_phase_partial_sums(x, theta, count, mp, stride), want):
        assert abs(ref.mpc(a) - b) <= ref.ldexp(j, 8 - B) + ref.ldexp(abs(b), -prec), (j, a, b)


_DIGITS = st.sampled_from([15, 30, 50, 120])
_STRIDE = st.sampled_from(["1", "7", "count"])


def _stride(kind, count):
    return max(count, 1) if kind == "count" else int(kind)


def _full(mp, v):
    """v scaled by 1 - 2^-20/3: a full working-precision mantissa, so the
    kernel's read of its low bits is tested too.  A decimal string, which
    only an @example passes, is read as it is: a short dyadic one puts
    phases exactly on the kernel's table."""
    if isinstance(v, str):
        return mp.mpf(v)
    return mp.mpf(v) * (1 - mp.mpf(2) ** -20 / 3)


# x = 2^-12: phase k^2 2^-12 lies on an edge of a table cell (step 2^-11
# half-turns) at odd k, on a table entry at even k, is 1/4 at k = 32 and a
# whole half-turn at k = 64
_EDGE_X = "0.000244140625"


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(x=st.floats(min_value=1e-6, max_value=1.0, exclude_min=True, exclude_max=True),
       theta=st.floats(min_value=-0.5, max_value=0.5),
       count=st.integers(min_value=0, max_value=300), stride=_STRIDE, digits=_DIGITS)
@example(x=0.37, theta=0.1, count=0, stride="1", digits=30)
@example(x=0.37, theta=-0.5, count=1, stride="count", digits=120)
@example(x=_EDGE_X, theta="0", count=300, stride="1", digits=30)
@example(x=_EDGE_X, theta="-0.5", count=97, stride="1", digits=15)
@example(x=0.37, theta=0.1, count=40, stride="7", digits=300)
def test_phase_kernel_within_bound_on_the_unit_interval(x, theta, count, stride, digits):
    _check_kernel(digits, count, _stride(stride, count),
                  lambda mp: (_full(mp, x), _full(mp, theta)))


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(log_x=st.floats(min_value=-12, max_value=-0.01), theta=st.floats(-0.5, 0.5),
       M=st.integers(min_value=0, max_value=2000), stride=_STRIDE, digits=_DIGITS)
@example(log_x=-12, theta=0.5, M=2000, stride="7", digits=50)
@example(log_x=-3, theta=-0.25, M=1, stride="1", digits=15)
@example(log_x=0.0, theta=-0.5 + 2.0**-13, M=2000, stride="1", digits=30)
@example(log_x=-3, theta=0.3, M=40, stride="count", digits=300)
@example(log_x=-2.5, theta=0.3, M=7, stride="1", digits=30)
def test_phase_kernel_within_bound_on_renormalized_arguments(log_x, theta, M, stride, digits):
    # _renorm_term's arguments: (-1/x, theta/x) over M terms, formed with
    # mag(M^2/x) extra bits.  At x = 1 and theta = -1/2 + 2^-13
    # phase j is j 2^-12 mod 2: on a table-cell edge at odd j, on an entry
    # at even j, and 1/4 at j = 1024
    def form(mp):
        x = mp.mpf(10) ** log_x
        return -1 / x, mp.mpf(theta) / x

    extra = max(0, mpmath.mag(max(1, M) ** 2 / mpmath.mpf(10) ** log_x))
    _check_kernel(digits, M, _stride(stride, M), form, extra)


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(x=st.floats(min_value=-50, max_value=50), theta=st.floats(-3, 3),
       count=st.integers(min_value=0, max_value=300), stride=_STRIDE, digits=_DIGITS)
@example(x=-1.625, theta=2.75, count=1, stride="1", digits=15)
@example(x=1e10 + 0.37, theta=-0.1, count=257, stride="count", digits=30)
# x = -1 - 2^-12, theta = 5/2: phase k is -k^2 2^-12 mod 2, _EDGE_X's
# edges and entries below zero
@example(x="-1.000244140625", theta="2.5", count=300, stride="1", digits=50)
@example(x=1e10 + 0.37, theta=-0.1, count=30, stride="1", digits=300)
def test_phase_kernel_within_bound_on_raw_curlicue_reals(x, theta, count, stride, digits):
    _check_kernel(digits, count, _stride(stride, count),
                  lambda mp: (_full(mp, x), _full(mp, theta)))


@pytest.mark.parametrize("digits, log2_x", [(30, -20), (30, -40), (120, -20)])
def test_phase_kernel_reads_every_bit_of_a_long_argument(digits, log2_x):
    # x = 2^log2_x (1 - 2^-20/3) formed 100 bits finer than the working
    # precision, as _renorm_term forms its arguments, and theta = 0: the
    # 300 phases k^2 x barely turn, so the read-in's error of up to
    # k^2 2^-F half-turns per term adds up over the terms instead of
    # cancelling, and only F = B + 2 bitlen(count) + 4 keeps the sum within
    # its bound (B + 6 exceeds it at every j near 300)
    _check_kernel(digits, 300, 1,
                  lambda mp: (mp.ldexp(1, log2_x) * (1 - mp.ldexp(1, -20) / 3), mp.mpf(0)),
                  extra=100)


@st.composite
def _chirp_count(draw):
    """n in 0 .. 10^4: drawn at random, or next to a square L^2 (L^2 - 1,
    L^2, L^2 + 1) or a multiple of L = isqrt(n) (L^2 + L, L^2 + 2L)."""
    if draw(st.booleans()):
        return draw(st.integers(0, 10**4))
    L = draw(st.integers(1, 99))
    return L * L + draw(st.sampled_from([-1, 0, 1, L, 2 * L]))


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(n=_chirp_count(), log2_x=st.floats(-40, 0), theta=st.floats(-0.5, 0.5),
       raw=st.booleans(), a=st.floats(-1e10, 1e10), b=st.floats(-1e5, 1e5), digits=_DIGITS)
@example(n=1, log2_x=-3, theta=0.3, raw=False, a=0, b=0, digits=30)
@example(n=2, log2_x=-40, theta=-0.5, raw=False, a=0, b=0, digits=15)
@example(n=3, log2_x=0, theta=0, raw=True, a=1e10 + 0.37, b=-1e5, digits=120)
@example(n=0, log2_x=-1, theta=0.1, raw=True, a=0.5, b=0.25, digits=50)
@example(n=48, log2_x=-20, theta=0.3, raw=False, a=0, b=0, digits=50)
@example(n=10**4, log2_x=-40, theta=0.49, raw=False, a=0, b=0, digits=30)
@example(n=99 * 101, log2_x=0, theta=0, raw=True, a=-3.7e9, b=-77.5, digits=15)
def test_chirp_within_its_bound(n, log2_x, theta, raw, a, b, digits):
    # the chirp on renormalized arguments (-1/x, theta/x), formed with
    # mag(n^2/x) extra bits as _renorm_term forms them, or on raw reals,
    # against the expjpi loop 20 digits higher on the same binary
    # arguments: before its rounding within its docstring bound
    # n 2^(9-B), and after it within eps max(1, |S|), no n-scaled term
    mp = PrecisionContext(digits).mp
    if raw:
        a, b = _full(mp, a), _full(mp, b)
    else:
        x = mp.mpf(2) ** log2_x
        with mp.extraprec(max(0, mp.mag(max(1, n) ** 2 / x))):
            a, b = -1 / x, _full(mp, theta) / x
    ref, want = _reference(a, b, n, digits, max(n, 1))
    S = want[-1][1] if want else ref.mpc(0)
    B = mp.prec + n.bit_length() + 20
    re, im, scale = _chirp_fixed(a, b, n, mp.prec)
    assert abs(ref.mpc(ref.ldexp(re, -scale), ref.ldexp(im, -scale)) - S) <= ref.ldexp(n, 9 - B)
    assert abs(ref.mpc(_chirp_sum(a, b, n, mp)) - S) <= mp.eps * max(1, abs(S))


def test_chirp_refuses_past_the_budget_before_any_phase(monkeypatch):
    def no_phase(*args):
        raise AssertionError("a phase was formed before the budget check")

    monkeypatch.setattr(core, "_fixed_mod2", no_phase)
    monkeypatch.setattr(core, "_exp_quadratic", no_phase)
    for n in (DEFAULT_MAX_TERMS + 1, 10**400):
        with pytest.raises(ResourceBudgetError, match=f"{n} terms"):
            _chirp_sum("0.3", "0.1", n, CTX30.mp)


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(log2_x=st.floats(min_value=-31, max_value=-1), theta=st.floats(-0.5, 0.5),
       M=st.integers(min_value=0, max_value=2000))
@example(log2_x=-31, theta=-0.5, M=2000)
@example(log2_x=-1, theta=0.5, M=0)
def test_renorm_term_agrees_with_64_bits_higher(log2_x, theta, M):
    # asym_sweep's sizes at digits 30, against the same sum formed 64 bits
    # higher on the same binary x and theta.  The tolerance is fixed: no
    # N-scaled term, and nothing that follows the guard digits.  -1/x and
    # theta/x read at the working precision alone would be off by ~1e-23.
    ctx, ref = PrecisionContext(30), PrecisionContext(30)
    ref.mp.prec += 64
    x = ctx.mp.mpf(2) ** log2_x
    N = max(1, int((M - theta) / x))  # N x + theta just below M
    got, want = (_renorm_term(p.x, p.theta, p.whole, p.frac, c.mp)
                 for c in (ctx, ref) for p in [GaussParams(x, theta, N, c)])
    assert abs(ref.mp.mpc(got) - want) <= ref.mp.mpf(10) ** -40 * max(1, abs(want))


def test_phase_kernel_table_and_series_within_their_bounds():
    # the two parts the loop's error derivation bounds, at B = 110 .. 1100
    # bits: every entry of the table the kernel takes at B within 2 units
    # of 2^-B per component, on both sides of a step of its precision
    # (191, 192, 193), and the series at the largest remainder
    # |u| = 2^-(_TABLE_BITS + 2) within 2^6 + 1/2, also at B = 161 and 189,
    # where the series takes one term more than a stop at 2^(9-B) would
    ref = mpmath.MPContext()
    for B in (110, 161, 184, 189, 191, 192, 193, 253, 1100, 1090, 184):
        ref.prec = B + 64
        unit = ref.ldexp(1, -B)
        F = B + 30
        T = core._exp_quadratic([], B, F)[0] - F
        assert B <= T <= B + 32
        cos_t, sin_t = core._quarter_turn(T)
        assert len(cos_t) == len(sin_t) == 2 ** core._TABLE_BITS
        for i, (c, s) in enumerate(zip(cos_t, sin_t)):
            a = ref.ldexp(i, -core._TABLE_BITS - 1)
            assert abs(ref.ldexp(c, -T) - ref.cospi(a)) < 2 * unit, (B, i)
            assert abs(ref.ldexp(s, -T) - ref.sinpi(a)) < 2 * unit, (B, i)
        cos_u, sin_u = core._taylor(B, F)
        top = ref.ldexp(1, -core._TABLE_BITS - 2)
        for u in (top, -top, top / 3):
            cu = sum(ref.ldexp(k, -F) * u ** (2 * j) for j, k in enumerate(cos_u[::-1]))
            su = u * sum(ref.ldexp(k, -F) * u ** (2 * j) for j, k in enumerate(sin_u[::-1]))
            assert abs(cu - ref.cospi(u)) < (2 ** 6 + 0.5) * unit, (B, u)
            assert abs(su - ref.sinpi(u)) < (2 ** 6 + 0.5) * unit, (B, u)


def test_phase_kernel_rejects_non_finite_arguments():
    mp = CTX30.mp
    with pytest.raises(DomainError):
        phase_sum(mp.inf, 0, 3, mp)
    with pytest.raises(DomainError):
        phase_sum("0.3", mp.nan, 3, mp)


def test_phase_kernel_rejects_a_count_that_is_not_a_non_negative_int(monkeypatch):
    # refused by both sums before the term budget and before any phase
    def no_phase(*args):
        raise AssertionError("a phase was formed before the count check")

    monkeypatch.setattr(core, "_fixed_mod2", no_phase)
    monkeypatch.setattr(core, "_exp_quadratic", no_phase)
    mp = CTX30.mp
    for count in (-5, -(10**400), 2.5, 3.0, True, DEFAULT_MAX_TERMS + 0.5):
        with pytest.raises(DomainError, match="count"):
            phase_sum("0.3", "0.1", count, mp)
        with pytest.raises(DomainError, match="count"):
            _chirp_sum("0.3", "0.1", count, mp)


def test_phase_kernel_is_a_function_of_its_arguments():
    # a sum 2^5 times longer asks the kernel for 5 more bits; the integers
    # of the short sum must not follow it.  Digits 600 lie above every
    # precision the rest of the suite asks for, so no earlier test has
    # asked for more.
    mp = PrecisionContext(600).mp
    x = mp.mpf("1.73e-5")
    a, b = -1 / x, mp.mpf("-0.17") / x

    def short():
        return _chirp_fixed(a, b, 16, mp.prec), list(_fixed_partial_sums(a, b, 16, mp.prec, 4))

    before = short()
    _chirp_fixed(a, b, 16 << 5, mp.prec)
    assert short() == before


@pytest.mark.parametrize("xs,ts,n", [("1/(250*sqrt(pi))", "-0.125", 7300),
                                     ("0.61803398874989484820", "0.3", 3000)])
def test_direct_sum_within_n_eps_of_the_reference_loop(xs, ts, n):
    ctx, ref = CTX30, PrecisionContext(50)
    mp = ctx.mp
    x = 1 / (250 * mp.sqrt(mp.pi)) if "pi" in xs else mp.mpf(xs)
    got = direct_sum(GaussParams(x, ts, n, ctx))
    want = None
    for _, want in _expjpi_sums(x, mp.mpf(ts), n, ref.mp, n):
        pass
    assert abs(ref.mp.mpc(got) - want) <= n * ctx.eps


@pytest.mark.parametrize("m,n", [(1, 2), (2, 5), (3, 8), (1, 50)])
def test_rational_reciprocity_identity(m, n):
    # for x = m/n in lowest terms with m*n even:
    #   S_n(x, 0) = e^{i pi/4}/sqrt(x) * S_m(-1/x, 0)
    ctx = CTX30
    mp = ctx.mp
    x = mp.mpf(m) / n
    lhs = direct_sum(GaussParams(x, 0, n, ctx))
    rhs = mp.expjpi(mp.mpf(1) / 4) / mp.sqrt(x) * phase_sum(-1 / x, 0, m, mp)
    assert abs(lhs - rhs) <= 1000 * ctx.eps


def test_normalization_identities():
    ctx = CTX30
    mp = ctx.mp
    base = direct_sum(GaussParams("0.3", "0.2", 50, ctx))
    # period 2 in x
    p, conjugated = normalize_params(mp.mpf("0.3") + 2, "0.2", 50, ctx)
    assert not conjugated
    assert abs(direct_sum(p) - base) <= 1000 * ctx.eps
    # period 1 in theta
    p, conjugated = normalize_params("0.3", mp.mpf("0.2") + 1, 50, ctx)
    assert not conjugated
    assert abs(direct_sum(p) - base) <= 1000 * ctx.eps
    # conjugation
    p, conjugated = normalize_params("-0.3", "-0.2", 50, ctx)
    assert conjugated
    assert abs(direct_sum(p).conjugate() - base.conjugate()) <= 1000 * ctx.eps


def test_normalization_of_tiny_negative_x_is_exact():
    ctx = CTX30
    mp = ctx.mp
    for k in range(1, 401):
        m = mp.mpf(10) ** -k
        p, conjugated = normalize_params(-m, "0.25", 3, ctx)
        assert conjugated and p.x == m and p.theta == mp.mpf("-0.25")


def test_normalization_keeps_canonical_inputs():
    ctx = PrecisionContext(50)
    mp = ctx.mp
    rng = random.Random(5)
    xs = [1 / (250 * mp.sqrt(mp.pi)), 1 / (500 * mp.sqrt(3)), mp.mpf("1e-300")]
    ts = [mp.mpf("-0.125"), mp.mpf("0.25"), mp.mpf(0), mp.mpf("0.5")]
    xs += [mp.mpf(rng.random()) for _ in range(20)]
    ts += [mp.mpf(rng.random()) - mp.mpf(1) / 2 for _ in range(20)]
    for x, theta in zip(xs, ts):
        p, conjugated = normalize_params(x, theta, 10, ctx)
        assert not conjugated
        assert (p.x._mpf_, p.theta._mpf_) == (x._mpf_, theta._mpf_)


def test_normalization_roundtrip_random():
    ctx = CTX30
    mp = ctx.mp
    rng = random.Random(31337)
    for _ in range(50):
        xs = mp.mpf(f"{rng.uniform(-6, 6):.15f}")
        ts = mp.mpf(f"{rng.uniform(-3, 3):.15f}")
        n = rng.randint(1, 300)
        try:
            p, conjugated = normalize_params(xs, ts, n, ctx)
        except DomainError:
            continue  # x landed on an integer mod 2
        raw = phase_sum(xs, ts, n, mp)
        value = direct_sum(p).conjugate() if conjugated else direct_sum(p)
        assert abs(value - raw) <= 1000 * ctx.eps * n


def test_normalization_degenerate():
    with pytest.raises(DomainError):
        normalize_params(2, "0.25", 5, CTX30)
    with pytest.raises(DomainError):
        normalize_params(1, "0.25", 5, CTX30)
    with pytest.raises(DomainError):
        normalize_params(-3, "0.25", 5, CTX30)


def test_split_reference_case():
    ctx = PrecisionContext(40)
    mp = ctx.mp
    x = 1 / (250 * mp.sqrt(mp.pi))
    p = GaussParams(x, "-0.125", 7300, ctx)
    assert p.whole == 16
    assert abs(p.frac - mp.mpf("0.349336")) < mp.mpf("1e-6")


def test_split_tie_keeps_half():
    # N x + theta = 16.5 exactly (dyadic): whole 16, frac +1/2
    ctx = CTX30
    p = GaussParams("0.5", 0, 33, ctx)
    assert (p.whole, p.frac) == (16, ctx.mp.mpf("0.5"))


def test_split_whole_zero_branch():
    ctx = CTX30
    p = GaussParams("0.001", 0, 300, ctx)
    assert p.whole == 0
    assert abs(p.frac - ctx.mp.mpf("0.3")) <= 10 * ctx.eps


def test_split_adversarial_near_tie():
    ctx = CTX30
    mp = ctx.mp
    half = mp.mpf(1) / 2
    for delta in ("1e-12", "-1e-12", "1e-25"):
        # engineer N x + theta = 7 + 1/2 + delta with dyadic x
        target = 7 + half + mp.mpf(delta)
        n = 1024
        x = (target - mp.mpf("0.25")) / n
        p = GaussParams(x, "0.25", n, ctx)
        assert -half < p.frac <= half
        assert abs(p.whole + p.frac - target) <= 4 * abs(target) * mp.eps


def test_split_is_exact_past_the_working_precision():
    # N x + theta = 3e399 + 0.1 needs far more than 30 digits
    ctx = CTX30
    mp = ctx.mp
    n = 10**400 + 7
    p = GaussParams("0.3", "0.1", n, ctx)
    exact = mp.fadd(mp.fmul(n, p.x, exact=True), p.theta, exact=True)
    assert -mp.mpf(1) / 2 < p.frac <= mp.mpf(1) / 2
    assert mp.fadd(p.whole, p.frac, exact=True) == exact


def test_split_never_negative_whole():
    ctx = CTX30
    p = GaussParams("0.001", "-0.5", 1, ctx)
    assert p.whole == 0
    assert p.frac < 0


def test_public_names_resolve():
    # a name deleted from a module but left in an __all__ would break the
    # star import of that module, or of the package
    import quadgauss

    modules = ["quadgauss"] + [f"quadgauss.{m.name}"
                               for m in pkgutil.iter_modules(quadgauss.__path__)]
    for module in modules:
        names = {}
        exec(f"from {module} import *", names)
        exported = getattr(importlib.import_module(module), "__all__", ())
        assert set(exported) <= names.keys(), module
    assert "quadgauss.special" in modules


def test_package_imports_only_exported_mpmath_modules():
    # pyproject asks only for mpmath>=1.3: its top-level names and libmp
    import quadgauss

    allowed = {"mpmath", "mpmath.libmp"}
    for path in pathlib.Path(quadgauss.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.split(".")[0] == "mpmath":
                    assert name in allowed, (path.name, name)
