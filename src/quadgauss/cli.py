"""Command-line harness: evaluation, table reproduction, trajectories, bench.

sum       direct term-by-term summation (the oracle)
exact     erfc-series representation with tail certificates
asym      certified small-x expansion
table1    absolute error of the truncated expansion vs the oracle per n
table2    empirical remainder |R_n| against its computable bound per n
curlicue  partial-sum trajectory (the spiral patterns), <= 10^6 points
bench     wall time of the oracle vs the expansion plus the certificate

Parameters --x/--theta take exact expressions ("1/(250*sqrt(pi))"), so
irrational inputs enter at full working precision.  Each handler returns
rows whose reals are raw mpf values, and ``_emit`` formats each real once
and writes each row as it comes: a JSON number at --digits <= 17, a
decimal string beyond (so consumers cannot truncate it), scientific
notation in CSV.  In JSON the one row of sum, exact, asym and bench is a
bare object, and the rows of the other commands a list.  A nonzero real
outside the normal double range is a decimal string in JSON at any
--digits: a double would print it as 0 or as Infinity, which is not
JSON.  Raw parameters are folded into the canonical ranges exactly
(``normalize_params``), and a value computed for the conjugate
parameters is conjugated back.  The rows go to a
temporary file that is published only on success.  Exit codes: 2 usage
(an --out that cannot be written too), 3 domain error, 4
precision/resource error, 141 (the shell's SIGPIPE status) when the
reader closes stdout early.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import itertools
import json
import os
import shutil
import sys
import tempfile
import time

from .core import _phase_partial_sums, direct_sum, normalize_params
from .errors import (DomainError, ExprError, PrecisionError, QuadGaussError,
                     ResourceBudgetError)
from .exact import TailPolicy, exact_sum_detail
from .expansion import asymptotic_sum
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

# curlicue writes about 100 bytes per point at 30 digits
_MAX_POINTS = 10**6


class UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadgauss",
        description="Certified evaluation of generalized quadratic Gauss sums.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_n=False):
        p.add_argument("--x", help="x as an exact expression, e.g. '1/(250*sqrt(pi))'")
        p.add_argument("--theta", help="theta as an exact expression (default 0)")
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
    for name, text in (("table1", "absolute error of the truncated expansion per n"),
                       ("table2", "empirical remainder |R_n| against its computable bound")):
        p = sub.add_parser(name, help=text)
        add_common(p)
        p.add_argument("--preset", choices=sorted(PRESETS), default=None)
    p = sub.add_parser("curlicue", help="partial-sum trajectory export")
    add_common(p)
    p.add_argument("--stride", type=int, default=1, help="emit every stride-th point")
    p = sub.add_parser("bench", help="oracle vs expansion timing with certificate")
    add_common(p, with_n=True)
    return parser


def _emit(rows, args, mp, fh):
    """Write rows (dicts, any iterable) to fh as one JSON document or
    RFC-4180 CSV, formatting each mpf once and writing each row as the
    rows are consumed."""
    if args.format == "csv":
        # the empty fixed-exponent window [1, 0) forces scientific form
        real = functools.partial(mp.nstr, n=max(17, args.digits), min_fixed=1,
                                 max_fixed=0, show_zero_exponent=True, strip_zeros=False)
    else:
        text = functools.partial(mp.nstr, n=args.digits, strip_zeros=False)
        if args.digits <= 17:
            def real(v):
                # JSON has no Infinity, and a double would flush to 0 below its range
                normal = not v or sys.float_info.min <= abs(v) <= sys.float_info.max
                return float(v) if normal else text(v)
        else:
            real = text
    out = ({k: real(mp.mpf(v)) if isinstance(v, mp.mpf) else v for k, v in row.items()}
           for row in rows)
    if args.format == "csv":
        first = next(out)
        csv.writer(fh, lineterminator="\r\n").writerows(
            itertools.chain([first.keys(), first.values()], (row.values() for row in out)))
        return
    if args.command in ("sum", "exact", "asym", "bench"):  # one row: a bare object
        fh.write(json.dumps(next(out), indent=2) + "\n")
        return
    # the bytes json.dumps(list(rows), indent=2) gives, 64 rows at a time
    # (few rows held, and the same bytes): each chunk's document less its
    # "[\n" and "\n]"
    sep = "[\n"
    for chunk in iter(lambda: list(itertools.islice(out, 64)), []):
        fh.write(sep + json.dumps(chunk, indent=2)[2:-2])
        sep = ",\n"
    fh.write("\n]\n")


@contextlib.contextmanager
def _staged(path):
    """A file for the output, published only if the block succeeds: copied
    to stdout when path is None, else renamed over path.  A path that
    cannot be written (a missing directory, a directory) is a UsageError."""
    if path is None:
        with tempfile.TemporaryFile("w+", encoding="ascii", newline="") as fh:
            yield fh
            fh.seek(0)
            shutil.copyfileobj(fh, sys.stdout)
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "x", encoding="ascii", newline="")
    except OSError as exc:
        raise UsageError(f"cannot write --out {path}: {exc.strerror}") from None
    try:
        with fh:
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise UsageError(f"cannot write --out {path}: {exc.strerror}") from None
    except BaseException:
        os.unlink(tmp)
        raise


def _context(args):
    """Apply a table preset and check for --x and --N, then build the one
    working-precision context; usage errors win over a bad --digits."""
    if getattr(args, "preset", None) is not None:
        if (args.x, args.theta, args.N) != (None, None, None):
            raise UsageError("--preset sets x, theta and N: give no --x, --theta or --N with it")
        args.x, args.theta, args.N = (PRESETS[args.preset][k] for k in ("x", "theta", "N"))
    elif args.command in ("table1", "table2") and (args.x is None or args.N is None):
        raise UsageError("table commands need --preset or explicit --x/--theta/--N")
    args.theta = "0" if args.theta is None else args.theta
    for name in ("x", "N"):
        if getattr(args, name) is None:
            raise UsageError(f"--{name} is required for this command")
    return PrecisionContext(args.digits)


def _reals(args, ctx):
    """(x, theta) as given, at full working precision."""
    return tuple(eval_number_expr(parse_number_expr(src), ctx)
                 for src in (args.x, args.theta))


def _params_from(args, ctx):
    return normalize_params(*_reals(args, ctx), args.N, ctx)


def _given(args):
    return {"x": args.x, "theta": args.theta, "N": args.N, "digits": args.digits}


def _cmd_value(args, ctx):
    """sum, exact or asym: one row with the value and, but for sum, its bound."""
    params, conjugated = _params_from(args, ctx)
    row = {"method": args.command, **_given(args)}
    cert = {}
    t0 = time.perf_counter_ns()
    if args.command == "sum":
        value = direct_sum(params)
    elif args.command == "exact":
        value, upper, lower = exact_sum_detail(params, TailPolicy(tol=args.tol))
        cert["bound"] = upper.tail_bound + lower.tail_bound
    else:
        report = asymptotic_sum(params, args.n)
        value, row["n"], cert["bound"] = report.value, len(report.terms), report.remainder_bound
    elapsed = time.perf_counter_ns() - t0
    if args.command == "asym" and report.beyond_optimal:
        print(f"quadgauss: warning: n={len(report.terms)} is at or past the "
              f"optimal truncation index {report.optimal_n}; the divergent "
              "series has stopped gaining accuracy", file=sys.stderr)
    if conjugated:
        value = value.conjugate()
    return [{**row, "value_re": value.real, "value_im": value.imag, **cert,
             "elapsed_ns": elapsed}]


def _cmd_table(args, ctx):
    row_ns = TABLE1_ROWS if args.command == "table1" else TABLE2_ROWS
    # every column is a modulus, unchanged by conjugation: the flag is dropped
    params, _ = _params_from(args, ctx)
    report = asymptotic_sum(params, max(row_ns))
    oracle = direct_sum(params)
    # the reduced sum the series targets, and the part of the expansion
    # outside the series
    reference = oracle - report.renorm_term - report.boundary_term - report.E_term
    skeleton = report.renorm_term + report.boundary_term + report.E_term
    # partial[n] is the series truncated after n terms
    partial = list(itertools.accumulate(report.terms, initial=ctx.mp.mpc(0)))
    for n in row_ns:
        abs_error = abs(oracle - (skeleton + partial[n]))
        abs_rn = abs(reference - partial[n])
        bound = report.bounds[n - 1]
        # an exact decomposition (dyadic inputs) leaves |R_n| = 0: no ratio
        yield {"preset": args.preset or "", **_given(args), "n": n, "abs_error": abs_error,
               "abs_Rn": abs_rn, "bound": bound, "ratio": bound / abs_rn if abs_rn else None}


def _cmd_curlicue(args, ctx):
    if args.stride < 1:
        raise UsageError("--stride must be >= 1")
    if args.N < 1:
        raise DomainError(f"curlicue: N must be a positive integer, got {args.N}")
    if args.N // args.stride + 1 > _MAX_POINTS:
        raise ResourceBudgetError(
            f"curlicue: N={args.N} at stride {args.stride} exceeds the budget of "
            f"{_MAX_POINTS} points")
    x, theta = _reals(args, ctx)
    points = itertools.chain([(0, ctx.mp.mpf(0))],
                             _phase_partial_sums(x, theta, args.N, ctx.mp, args.stride))
    # a generator: points are formatted and written one at a time
    return ({"j": j, "re": s.real, "im": s.imag} for j, s in points)


def _cmd_bench(args, ctx):
    params, _ = _params_from(args, ctx)
    t0 = time.perf_counter_ns()
    oracle = direct_sum(params)
    direct_ns = time.perf_counter_ns() - t0
    t0 = time.perf_counter_ns()
    report = asymptotic_sum(params, args.n)
    expansion_ns = time.perf_counter_ns() - t0
    err = abs(oracle - report.value)
    allowance = ORACLE_NOISE_FACTOR * ctx.eps * params.N
    if not err <= report.remainder_bound + allowance:
        raise PrecisionError(
            f"bench: |error|={ctx.mp.nstr(err, 6)} exceeds bound+noise="
            f"{ctx.mp.nstr(report.remainder_bound + allowance, 6)}")
    return [{"method": "bench", **_given(args), "n": len(report.terms),
             "direct_ns": direct_ns, "expansion_ns": expansion_ns,
             "speedup": round(direct_ns / max(expansion_ns, 1), 3),
             "abs_error": err, "bound": report.remainder_bound, "certified": True}]


_HANDLERS = {"sum": _cmd_value, "exact": _cmd_value, "asym": _cmd_value,
             "table1": _cmd_table, "table2": _cmd_table,
             "curlicue": _cmd_curlicue, "bench": _cmd_bench}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        ctx = _context(args)
        with _staged(args.out) as fh:
            _emit(_HANDLERS[args.command](args, ctx), args, ctx.mp, fh)
    except (UsageError, ExprError) as exc:
        print(f"quadgauss: usage error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"quadgauss: domain error: {exc}", file=sys.stderr)
        return 3
    except QuadGaussError as exc:  # precision, resource and truncation errors
        print(f"quadgauss: {exc}", file=sys.stderr)
        return 4
    except BrokenPipeError:
        # the reader closed stdout (``| head``): fd 1 goes to the null device
        # so that the flush at interpreter exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
