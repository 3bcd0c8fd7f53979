"""The exact-input expression language."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadgauss import (
    DomainError,
    ExprError,
    ExprSyntaxError,
    PrecisionContext,
    UnknownIdentifierError,
    eval_number_expr,
    parse_number_expr,
)

from _utils import machin_pi

CTX20 = PrecisionContext(20)
CTX30 = PrecisionContext(30)


def _val(src, ctx=CTX30):
    return eval_number_expr(parse_number_expr(src), ctx)


def test_reference_parameter_value():
    got = _val("1/(250*sqrt(pi))", CTX20)
    want = CTX20.mp.mpf("2.2567583341910251e-3")
    assert abs(got - want) <= CTX20.mp.mpf("1e-19")


def test_column3_candidate_value():
    got = _val("1/(250*sqrt(3))", CTX30)
    want = CTX30.mp.mpf("2.3094010767585030580365951220078e-3")
    assert abs(got - want) <= CTX30.eps


def test_decimal_literals_are_exact():
    assert _val("0.25") == CTX30.mp.mpf(1) / 4
    assert _val("0.125") == CTX30.mp.mpf(1) / 8
    assert _val("-0.125") == -CTX30.mp.mpf(1) / 8


def test_sqrt_of_square_is_exact():
    assert _val("sqrt(4)") == 2


def test_pi_against_independent_oracle():
    got = _val("pi", CTX30)
    assert abs(got - machin_pi(CTX30)) <= 2 * CTX30.eps


def test_arithmetic_and_precedence():
    assert _val("(1+2)*(-3)") == -9
    assert _val("2+3*4") == 14
    assert _val("2-3-4") == -5
    assert _val("24/4/2") == 3
    assert _val("-2-2") == -4
    assert _val("--2") == 2


def test_precision_scaling_invariant():
    d = 25
    lo, hi = PrecisionContext(d), PrecisionContext(d + 10)
    for src in ("1/(250*sqrt(pi))", "sqrt(2)/3", "pi/7 - 0.001"):
        tree = parse_number_expr(src)
        a = eval_number_expr(tree, lo)
        b = eval_number_expr(tree, hi)
        assert abs(a - b) <= lo.mp.mpf(10) ** (-d + 2) * abs(b)


def test_syntax_errors_carry_offsets():
    with pytest.raises(ExprSyntaxError) as err:
        parse_number_expr("1+*2")
    assert err.value.offset == 2
    with pytest.raises(ExprSyntaxError) as err:
        parse_number_expr("1+2)")
    assert err.value.offset == 3
    with pytest.raises(ExprSyntaxError):
        parse_number_expr("")
    with pytest.raises(ExprSyntaxError):
        parse_number_expr("sqrt(2")
    with pytest.raises(ExprSyntaxError):
        parse_number_expr("1..2")
    with pytest.raises(ExprSyntaxError):
        parse_number_expr("1 + π")  # non-ASCII


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifierError) as err:
        parse_number_expr("2*cos(1)")
    assert err.value.offset == 2


def test_eval_domain_errors():
    with pytest.raises(DomainError):
        _val("1/(2-2)")
    with pytest.raises(DomainError):
        _val("sqrt(1-2)")


def test_refused_forms():
    for src in ("1e5", "0x10", "1_000", "1j", "True", "2**3", "+0.5",
                "sqrt(1,2)", "sqrt(x=1)", "(1)(2)", "pi()", "sqrt"):
        with pytest.raises(ExprError):
            parse_number_expr(src)


def test_accepted_whitespace_and_literals():
    assert _val(" 0.5") == CTX30.mp.mpf(1) / 2
    assert _val("0.5\n") == CTX30.mp.mpf(1) / 2
    assert _val("1 +\n 2") == 3
    assert _val(".0") == 0 and _val("1.") == 1 and _val(".5") == CTX30.mp.mpf(1) / 2


def test_long_decimal_round_trips_exactly():
    src = "0.12345678901234567890123"
    assert _val(src) == CTX30.mp.mpf(src)


@settings(derandomize=True, database=None, deadline=None)
@given(st.text(alphabet="0123456789.+-*/() pisqrte_x", max_size=40))
def test_parse_then_eval_raises_only_package_errors(src):
    try:
        value = eval_number_expr(parse_number_expr(src), CTX30)
    except (ExprError, DomainError):
        return
    assert isinstance(value, type(CTX30.mp.mpf(0)))


def test_long_sum_prints_text_that_reparses():
    src = "1" + "+1" * 250
    assert _val(src) == 251
