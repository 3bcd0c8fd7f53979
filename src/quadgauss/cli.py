"""Command-line harness: evaluation, table reproduction, trajectories, bench.

Subcommands
-----------
sum       direct term-by-term summation (the oracle)
exact     erfc-series representation with tail certificates
asym      certified small-x expansion
table1    absolute error of the truncated expansion vs the oracle,
          n in {1,2,3,4,6,8,10}
table2    empirical remainder |R_n| against its computable bound,
          n in {1,2,4,6,8,10}
curlicue  partial-sum trajectory (the spiral patterns), <= 10^6 points
bench     wall time of the oracle vs the expansion plus the certificate

Parameters --x/--theta take exact expressions ("1/(250*sqrt(pi))"), so
irrational inputs enter at full working precision.  Output (JSON by
default, CSV on request) is buffered and emitted only on success; reals
are rendered as decimal strings once --digits exceeds 17 so consumers
cannot truncate them.  Exit codes: 2 usage, 3 domain error, 4
precision/resource error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time

from .core import (
    DEFAULT_MAX_TERMS,
    _phase_partial_sums,
    direct_sum,
    normalize_params,
    split_nearest,
)
from .errors import (
    DomainError,
    ExprError,
    PrecisionError,
    QuadGaussError,
    ResourceBudgetError,
    TruncationError,
)
from .exact import TailPolicy, exact_sum_detail
from .expansion import asymptotic_sum, reduced_sum_pair, remainder_bound
from .exprs import eval_number_expr, parse_number_expr
from .precision import PrecisionContext

__all__ = ["main", "build_parser", "PRESETS", "TABLE1_ROWS", "TABLE2_ROWS"]

PRESETS = {
    "col1": {"x": "1/(250*sqrt(pi))", "theta": "-0.125", "N": 7300},
    "col2": {"x": "1/(250*sqrt(pi))", "theta": "0.25", "N": 7430},
    # Published column-3 header and parameters disagree; both candidate
    # corrections are first-class presets so the discrepancy stays
    # reproducible.  col3a is the one that matches the printed errors.
    "col3a": {"x": "1/(500*sqrt(3))", "theta": "0", "N": 6000},
    "col3b": {"x": "1/(250*sqrt(3))", "theta": "0", "N": 3000},
}

TABLE1_ROWS = (1, 2, 3, 4, 6, 8, 10)
TABLE2_ROWS = (1, 2, 4, 6, 8, 10)

DEFAULT_DIGITS = 30

# |oracle - expansion| is certified only up to the oracle's own noise
ORACLE_NOISE_FACTOR = 10**4

# curlicue buffers every emitted point before writing any
_MAX_POINTS = 10**6


class UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadgauss",
        description="Certified evaluation of generalized quadratic Gauss sums.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, need_params=True, with_n=False):
        if need_params:
            p.add_argument("--x", help="x as an exact expression, e.g. '1/(250*sqrt(pi))'")
            p.add_argument("--theta", default="0", help="theta as an exact expression")
            p.add_argument("--N", type=int, help="number of terms (positive integer)")
        if with_n:
            p.add_argument("--n", type=int, default=None, help="truncation index")
        p.add_argument("--digits", type=int, default=DEFAULT_DIGITS,
                       help="significant decimal digits of working precision")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="write output to PATH instead of stdout")

    p = sub.add_parser("sum", help="direct term-by-term summation")
    add_common(p)
    p = sub.add_parser("exact", help="erfc-series representation")
    add_common(p)
    p.add_argument("--tol", default=None, help="tail tolerance per boundary series")
    p = sub.add_parser("asym", help="certified small-x expansion")
    add_common(p, with_n=True)
    table_help = {
        "table1": "absolute error of the truncated expansion per n",
        "table2": "empirical remainder |R_n| against its computable bound",
    }
    for name in ("table1", "table2"):
        p = sub.add_parser(name, help=table_help[name])
        add_common(p)
        p.add_argument("--preset", choices=sorted(PRESETS), default=None)
    p = sub.add_parser("curlicue", help="partial-sum trajectory export")
    add_common(p)
    p.add_argument("--stride", type=int, default=1, help="emit every stride-th point")
    p = sub.add_parser("bench", help="oracle vs expansion timing with certificate")
    add_common(p, with_n=True)
    return parser


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------


def _real_out(mp, value, digits):
    """JSON rendering of a real: number at digits <= 17, string beyond."""
    if digits <= 17:
        return float(mp.mpf(value))
    return mp.nstr(mp.mpf(value), digits, strip_zeros=False)


def _real_csv(mp, value, digits):
    """CSV rendering: scientific notation, >= 17 significant digits."""
    # the empty fixed-exponent window [1, 0) forces scientific form
    return mp.nstr(mp.mpf(value), max(17, digits), min_fixed=1, max_fixed=0,
                   show_zero_exponent=True, strip_zeros=False)


def _emit(rows, fmt):
    """Render a list of ordered dicts as a JSON document or RFC-4180 CSV."""
    if fmt == "json":
        doc = rows[0] if len(rows) == 1 else rows
        return json.dumps(doc, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(list(rows[0].keys()))
    for row in rows:
        writer.writerow(list(row.values()))
    return buf.getvalue()


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise UsageError(f"--{name} is required for this command")


def _params_from(args, ctx):
    _require(args, "x", "N")
    x_raw = eval_number_expr(parse_number_expr(args.x), ctx)
    theta_raw = eval_number_expr(parse_number_expr(args.theta), ctx)
    params, record = normalize_params(x_raw, theta_raw, args.N, ctx)
    return params, record


def _value_fields(args, ctx, method, value, n=None, bound=None, elapsed_ns=0):
    mp = ctx.mp
    row = {
        "method": method,
        "x": args.x,
        "theta": args.theta,
        "N": args.N,
        "digits": args.digits,
    }
    if n is not None:
        row["n"] = n
    fmt_real = _real_csv if args.format == "csv" else _real_out
    row["value_re"] = fmt_real(mp, value.real, args.digits)
    row["value_im"] = fmt_real(mp, value.imag, args.digits)
    if bound is not None:
        row["bound"] = fmt_real(mp, bound, args.digits)
    row["elapsed_ns"] = elapsed_ns
    return row


def _cmd_sum(args):
    ctx = PrecisionContext(args.digits)
    params, record = _params_from(args, ctx)
    t0 = time.perf_counter_ns()
    value = record.unapply(direct_sum(params, ctx))
    elapsed = time.perf_counter_ns() - t0
    return [_value_fields(args, ctx, "sum", value, elapsed_ns=elapsed)]


def _cmd_exact(args):
    ctx = PrecisionContext(args.digits)
    params, record = _params_from(args, ctx)
    policy = TailPolicy(tol=args.tol)
    t0 = time.perf_counter_ns()
    value, upper, lower = exact_sum_detail(params, policy, ctx)
    elapsed = time.perf_counter_ns() - t0
    value = record.unapply(value)
    bound = upper.tail_bound + lower.tail_bound
    return [_value_fields(args, ctx, "exact", value, bound=bound, elapsed_ns=elapsed)]


def _cmd_asym(args):
    ctx = PrecisionContext(args.digits)
    params, record = _params_from(args, ctx)
    t0 = time.perf_counter_ns()
    report = asymptotic_sum(params, args.n, ctx)
    elapsed = time.perf_counter_ns() - t0
    if report.beyond_optimal:
        print(f"quadgauss: warning: n={report.n_used} is at or past the "
              f"optimal truncation index {report.optimal_n}; the divergent "
              "series has stopped gaining accuracy", file=sys.stderr)
    value = record.unapply(report.value)
    return [_value_fields(args, ctx, "asym", value, n=report.n_used,
                          bound=report.remainder_bound, elapsed_ns=elapsed)]


def _cmd_table(args, row_ns):
    if args.preset is not None:
        preset = PRESETS[args.preset]
        args.x = preset["x"]
        args.theta = preset["theta"]
        args.N = preset["N"]
    elif args.x is None or args.N is None:
        raise UsageError("table commands need --preset or explicit --x/--theta/--N")
    ctx = PrecisionContext(args.digits)
    params, _ = _params_from(args, ctx)
    mp = ctx.mp
    report, reference = reduced_sum_pair(params, max(row_ns), ctx)
    split = split_nearest(params)
    fmt_real = _real_csv if args.format == "csv" else _real_out
    rows = []
    series = mp.mpc(0)
    terms = iter(report.terms)
    done = 0
    for n in row_ns:
        while done < n:
            series += next(terms)
            done += 1
        abs_rn = abs(reference - series)
        bound = remainder_bound(n, params.x, split.frac, params.theta, ctx)
        rows.append({
            "preset": args.preset or "",
            "x": args.x,
            "theta": args.theta,
            "N": args.N,
            "digits": args.digits,
            "n": n,
            "abs_error": fmt_real(mp, abs_rn, args.digits),
            "abs_Rn": fmt_real(mp, abs_rn, args.digits),
            "bound": fmt_real(mp, bound, args.digits),
            "ratio": fmt_real(mp, bound / abs_rn, args.digits),
        })
    return rows


def _cmd_curlicue(args):
    _require(args, "x", "N")
    ctx = PrecisionContext(args.digits)
    mp = ctx.mp
    if args.stride < 1:
        raise UsageError("--stride must be >= 1")
    if args.N > DEFAULT_MAX_TERMS or args.N // args.stride + 1 > _MAX_POINTS:
        raise ResourceBudgetError(
            f"curlicue: N={args.N} at stride {args.stride} exceeds the budget of "
            f"{DEFAULT_MAX_TERMS} terms and {_MAX_POINTS} points")
    x = eval_number_expr(parse_number_expr(args.x), ctx)
    theta = eval_number_expr(parse_number_expr(args.theta), ctx)
    fmt_real = _real_csv if args.format == "csv" else _real_out
    rows = [{"j": 0, "re": fmt_real(mp, 0, args.digits),
             "im": fmt_real(mp, 0, args.digits)}]
    for j, s in _phase_partial_sums(x, theta, args.N, mp, args.stride):
        rows.append({"j": j, "re": fmt_real(mp, s.real, args.digits),
                     "im": fmt_real(mp, s.imag, args.digits)})
    return rows


def _cmd_bench(args):
    ctx = PrecisionContext(args.digits)
    params, _ = _params_from(args, ctx)
    mp = ctx.mp
    t0 = time.perf_counter_ns()
    oracle = direct_sum(params, ctx)
    direct_ns = time.perf_counter_ns() - t0
    t0 = time.perf_counter_ns()
    report = asymptotic_sum(params, args.n, ctx)
    expansion_ns = time.perf_counter_ns() - t0
    err = abs(oracle - report.value)
    allowance = ORACLE_NOISE_FACTOR * ctx.eps * params.N
    certified = err <= report.remainder_bound + allowance
    if not certified:
        raise PrecisionError(
            f"bench: |error|={mp.nstr(err, 6)} exceeds bound+noise="
            f"{mp.nstr(report.remainder_bound + allowance, 6)}")
    fmt_real = _real_csv if args.format == "csv" else _real_out
    return [{
        "method": "bench",
        "x": args.x,
        "theta": args.theta,
        "N": args.N,
        "digits": args.digits,
        "n": report.n_used,
        "direct_ns": direct_ns,
        "expansion_ns": expansion_ns,
        "speedup": round(direct_ns / max(expansion_ns, 1), 3),
        "abs_error": fmt_real(mp, err, args.digits),
        "bound": fmt_real(mp, report.remainder_bound, args.digits),
        "certified": True,
    }]


_HANDLERS = {
    "sum": _cmd_sum,
    "exact": _cmd_exact,
    "asym": _cmd_asym,
    "table1": lambda args: _cmd_table(args, TABLE1_ROWS),
    "table2": lambda args: _cmd_table(args, TABLE2_ROWS),
    "curlicue": _cmd_curlicue,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        rows = _HANDLERS[args.command](args)
        text = _emit(rows, args.format)
    except (UsageError, ExprError) as exc:
        print(f"quadgauss: usage error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"quadgauss: domain error: {exc}", file=sys.stderr)
        return 3
    except (PrecisionError, ResourceBudgetError, TruncationError) as exc:
        print(f"quadgauss: {exc}", file=sys.stderr)
        return 4
    except QuadGaussError as exc:  # pragma: no cover - safety net
        print(f"quadgauss: {exc}", file=sys.stderr)
        return 4
    # output is fully materialized before anything is written
    if args.out is not None:
        with open(args.out, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
