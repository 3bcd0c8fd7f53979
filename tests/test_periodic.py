"""Both certified routes against the periodicity oracle at dyadic x = p/2^k.

``_utils.periodic_sum`` gives S_N at any N from two phase sums of at most
2^k terms, sharing only the phase kernel with the routes.  It runs 20
digits above the routes, on their x and theta as rounded, and each route
must land within its own certificate plus a rounding term stated in
fixed terms: no N-scaled allowance.  M = N x stays at most 10^6, which
the chirp short sum covers in a fraction of a second, and one example
reaches M = 4.58 10^6 at N = 10^11.  The two routes are also checked against
each other, within the sum of their certificates, at dyadic x anywhere
in (0, 1).  At non-dyadic x, where there is no period, each route is
checked against itself by the splitting identity

    S_N(x, theta) = S_N1(x, theta) + f(N1) S_(N-N1)(x, theta + N1 x).
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadgauss import (GaussParams, PrecisionContext, asymptotic_sum, direct_sum, exact_sum_detail,
                       normalize_params, phase_term)

from _utils import periodic_sum

CTX = PrecisionContext(30)
REF = PrecisionContext(50)
MAX_M = 10**6


def _rounding(S):
    return 64 * CTX.mp.eps * max(1, abs(S))


def _check_routes(p, k, params):
    """Check both routes against the oracle; return their two bounds."""
    S = periodic_sum(p, k, params.theta, params.N, REF)
    rep = asymptotic_sum(params)
    assert abs(S - rep.value) <= rep.remainder_bound + _rounding(S)
    value, upper, lower = exact_sum_detail(params)
    assert abs(S - value) <= upper.tail_bound + lower.tail_bound + _rounding(S)
    return rep.remainder_bound, upper.tail_bound + lower.tail_bound


@st.composite
def _dyadic(draw, direct=False):
    """(p, k, theta, N): odd p >= 3 with x = p/2^k < 1/8, a binary theta
    and N up to 10^12 with N x <= MAX_M, k <= 18, or with ``direct``, k <= 15
    and 2^k <= N <= 10^5."""
    k = draw(st.integers(8, 15 if direct else 18))
    # p below a random power of two, so that small x is drawn as often as large
    p = 2 * draw(st.integers(1, 2 ** draw(st.integers(1, k - 4)) - 1)) + 1
    theta = draw(st.floats(-0.5, 0.5))
    if direct:
        N = draw(st.integers(2**k, 10**5))
    else:
        # within a factor 2 below the cap over a power of two, so that
        # large N is drawn as often as small
        top = max(1, min(10**12, MAX_M * 2**k // p) >> draw(st.integers(0, 20)))
        N = draw(st.integers(max(1, top // 2), top))
    return p, k, theta, N


def _params(p, k, theta, N):
    return GaussParams(CTX.mp.mpf(p) / 2**k, theta, N, CTX)


@settings(derandomize=True, database=None, deadline=None, max_examples=6)
@given(_dyadic())
@example((3, 14, -0.17, 10**7 + 12345))
@example((5, 15, 0.5, 196608))
@example((3, 15, 0.3, 327670001))
# M = 4.58 10^6 and frac = -0.451: the asym bound is attained to three figures
@example((3, 16, -0.17, 10**11 + 7))
# |S| = 826: the error, 4.35e-44, is the rounding of |S|, far above the asym
# truncation bound 2.04e-51; the rounding term covers it until the
# certificate states its rounding (ROADMAP item 7)
@example((1, 18, 0.05, 10**12 + 3))
def test_routes_within_their_certificates_against_the_periodic_oracle(inp):
    p, k, theta, N = inp
    _check_routes(p, k, _params(p, k, theta, N))


@pytest.mark.parametrize("frac", [0, 2.0**-30, -2.0**-30, 0.25, -0.25, 0.5])
def test_frac_at_and_near_an_integer(frac):
    # N x + theta exactly at, or 2^-30 from, an integer, and at a quarter
    # and a half: x = 3/4096 puts N x 911/4096 above the integer 7324,
    # and a dyadic theta moves frac exactly where it is asked to be.  At
    # frac = 0, N = 4096 2441 makes N x an integer, so theta = 0 as well:
    # both edge series vanish, both bounds are 0 and each route lands
    # within rounding of the oracle
    p, k = 3, 12
    mp = CTX.mp
    for N in (10**7 + 5, 4096 * 2441) if frac == 0 else (10**7 + 5,):
        theta = mp.mpf(frac) - mp.mpf(p * N % 2**k) / 2**k
        params = _params(p, k, theta, N)
        assert params.frac == frac
        bounds = _check_routes(p, k, params)
        if params.theta == 0:
            assert bounds == (0, 0)


@st.composite
def _any_dyadic(draw):
    """(x, theta, N): x = p/2^k anywhere in (0, 1), a binary theta and
    N x <= 500."""
    k = draw(st.integers(1, 20))
    p = 2 * draw(st.integers(0, 2 ** (k - 1) - 1)) + 1
    N = draw(st.integers(1, max(1, 500 * 2**k // p)))
    return CTX.mp.mpf(p) / 2**k, draw(st.floats(-0.5, 0.5)), N


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(_any_dyadic())
@example((CTX.mp.mpf(255) / 256, 0.5, 3))
@example((CTX.mp.mpf(1) / 2**20, -0.5 + 2.0**-30, 2**28 + 1))
def test_asym_and_exact_agree_within_their_certificates(inp):
    # the two routes share the skeleton, so this checks the edge walks: n = 6
    # layers at window 0 against the least proven window walked to tol
    params = GaussParams(*inp, CTX)
    rep = asymptotic_sum(params, 6)
    value, upper, lower = exact_sum_detail(params)
    allow = rep.remainder_bound + upper.tail_bound + lower.tail_bound + _rounding(value)
    assert abs(rep.value - value) <= allow


@settings(derandomize=True, database=None, deadline=None, max_examples=4)
@given(_dyadic(direct=True))
@example((3, 8, 0.5, 3 * 2**8 + 7))
def test_periodic_oracle_matches_direct_sum(inp):
    # at least one whole period, against one direct sum
    p, k, theta, N = inp
    params = _params(p, k, theta, N)
    S = periodic_sum(p, k, params.theta, N, CTX)
    assert abs(S - direct_sum(params)) <= N * CTX.eps


# col1's x and (sqrt(2) - 1)/1000, as rounded at the routes' precision
SPLIT_X = (1 / (250 * CTX.mp.sqrt(CTX.mp.pi)), (CTX.mp.sqrt(2) - 1) / 1000)
SPLIT_MAX_M = 10**5


@st.composite
def _split(draw):
    """(x, theta, N, N1): x from SPLIT_X, theta a multiple of 2^-30, N
    log-uniform from 10^6, past the direct oracle's reach, to N x <=
    SPLIT_MAX_M (about 4.4 10^7 and 2.4 10^8), and 0 < N1 < N."""
    x = draw(st.sampled_from(SPLIT_X))
    theta = draw(st.integers(-2**29, 2**29)) / 2**30
    top = int(SPLIT_MAX_M / x)
    N = min(top, int(10 ** draw(st.floats(6, float(CTX.mp.log10(top))))))
    return x, theta, N, draw(st.integers(1, N - 1))


def _asym(params):
    rep = asymptotic_sum(params)
    return rep.value, rep.remainder_bound


def _exact(params):
    value, upper, lower = exact_sum_detail(params)
    return value, upper.tail_bound + lower.tail_bound


@settings(derandomize=True, database=None, deadline=None, max_examples=6)
@given(_split())
@example((SPLIT_X[0], -0.125, 44 * 10**6 + 7, 7300))
@example((SPLIT_X[1], 0.25, 2 * 10**8 + 3, 10**8 - 1))
def test_routes_keep_the_splitting_identity_at_non_dyadic_x(inp):
    # each route against itself: the halves run 20 + log10 N digits finer on
    # the stored x and theta, with theta + N1 x formed exactly and folded by
    # normalize_params, which is exact; rounding theta again would move S by
    # about N |delta theta| |S|.  Allowed: the three certificates and a
    # rounding term in fixed terms, no N-scaled one
    x, theta, N, N1 = inp
    params = GaussParams(x, theta, N, CTX)
    fine = PrecisionContext(CTX.digits + 20 + len(str(N)))
    mp = fine.mp
    first = GaussParams(params.x, params.theta, N1, fine)
    shifted = mp.fadd(params.theta, mp.fmul(params.x, N1, exact=True), exact=True)
    second, conjugated = normalize_params(params.x, shifted, N - N1, fine)
    assert not conjugated and mp.fadd(second.theta, mp.nint(shifted), exact=True) == shifted
    f_N1 = phase_term(N1, first)
    for route in (_asym, _exact):
        (S, bound), (S1, bound1), (S2, bound2) = (route(p) for p in (params, first, second))
        allow = bound + bound1 + bound2 + _rounding(S)
        assert abs(mp.mpc(S) - (S1 + f_N1 * S2)) <= allow, route.__name__
