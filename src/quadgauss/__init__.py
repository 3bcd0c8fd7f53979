"""Certified evaluation of generalized quadratic Gauss sums.

S_N(x, theta) = sum_{j=1}^N exp(pi i x j^2 + 2 pi i j theta) evaluated
three independent ways: a direct-summation oracle, an exact
erfc-series representation, and a small-x expansion whose truncation
error carries a computable, N-independent bound.
"""

from .core import (
    GaussParams,
    direct_sum,
    normalize_params,
    phase_sum,
    phase_term,
)
from .errors import (
    DomainError,
    ExprError,
    ExprSyntaxError,
    PrecisionError,
    QuadGaussError,
    ResourceBudgetError,
    TruncationError,
    UnknownIdentifierError,
)
from .exact import (
    BoundarySeries,
    TailPolicy,
    boundary_series,
    exact_sum_detail,
)
from .expansion import ExpansionReport, asymptotic_sum
from .exprs import eval_number_expr, parse_number_expr
from .precision import PrecisionContext
from .special import cot_pi_reg, erfc_kernel

__version__ = "0.1.0"

# The advertised surface: parameters, context, the three routes and their
# reports, the errors and the expression entry points.  One entry point per
# route, and its report carries every bound.  The helpers imported above
# (phase_sum, phase_term, boundary_series, erfc_kernel, cot_pi_reg) stay
# importable from the package without being listed.
__all__ = [
    "GaussParams",
    "PrecisionContext",
    "normalize_params",
    "direct_sum",
    "exact_sum_detail",
    "asymptotic_sum",
    "ExpansionReport",
    "BoundarySeries",
    "TailPolicy",
    "QuadGaussError",
    "DomainError",
    "PrecisionError",
    "ResourceBudgetError",
    "TruncationError",
    "ExprError",
    "ExprSyntaxError",
    "UnknownIdentifierError",
    "parse_number_expr",
    "eval_number_expr",
    "__version__",
]
