"""Span tracer that wraps quadgauss functions from outside the package.

Each call of a wrapped function records one span: name, start, end,
parent span and evaluation id.  Spans are kept in memory and written out
when the run ends.  A function is replaced in every ``quadgauss`` module
namespace that holds it, so a call is traced whichever module makes it
(``exact.erfc_kernel`` and ``special.erfc_kernel`` are one object).
Targets missing at a given commit are skipped and report zero.

The self time of a span is its duration minus the durations of its
children; spans nest strictly because the benchmark is single-threaded.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
import time
from collections import defaultdict


class Tracer:
    """Spans as parallel flat lists, so recording them creates no container
    objects for the garbage collector to walk (that distorts timings once
    hundreds of thousands of spans are alive)."""

    def __init__(self):
        self.names, self.starts, self.ends = [], [], []
        self.parents, self.evals = [], []
        self.attrs = {}
        self.eval_id = -1
        self._stack = []
        self._patched = []

    def _wrap(self, fn, name, classify, annotate):
        names, starts, ends = self.names, self.starts, self.ends
        parents, evals, attrs = self.parents, self.evals, self.attrs
        stack, clock = self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(classify(*args, **kwargs) if classify else name)
            parents.append(stack[-1] if stack else -1)
            evals.append(self.eval_id)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if annotate:
                attrs[index] = annotate(result, *args, **kwargs)
            return result

        return traced

    def install(self, targets):
        """Wrap each (module, attribute, name, classify, annotate) target.

        ``attribute`` may be ``Class.method``; the method is wrapped on the
        class.  A plain function is wrapped in every quadgauss namespace
        bound to the same object.
        """
        modules = [m for key, m in list(sys.modules.items())
                   if key == "quadgauss" or key.startswith("quadgauss.")]
        for module_name, attr, name, classify, annotate in targets:
            owner = sys.modules.get(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name, None)
                orig = vars(cls).get(method) if cls is not None else None
                if orig is None:
                    continue
                self._patched.append((cls, method, orig))
                setattr(cls, method, self._wrap(orig, name, classify, annotate))
                continue
            orig = getattr(owner, attr, None)
            if orig is None:
                continue
            wrapped = self._wrap(orig, name, classify, annotate)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        self._patched.append((module, key, orig))
                        setattr(module, key, wrapped)

    def uninstall(self):
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched.clear()

    def write(self, path):
        """Write every span as one tab-separated line."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("span\tparent\teval\tname\tstart_ns\tend_ns\n")
            for index, name in enumerate(self.names):
                fh.write(f"{index}\t{self.parents[index]}\t{self.evals[index]}\t"
                         f"{name}\t{self.starts[index]}\t{self.ends[index]}\n")


class SpanStats:
    """Per-name totals of a finished trace."""

    def __init__(self, trace: Tracer):
        self.t = trace
        names, parents = trace.names, trace.parents
        durs = [e - s for s, e in zip(trace.starts, trace.ends)]
        child_ns = [0] * len(names)
        for parent, dur in zip(parents, durs):
            if parent >= 0:
                child_ns[parent] += dur
        self.durs = durs
        self.calls = defaultdict(int)
        self.incl_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.top_ns = 0
        for index, name in enumerate(names):
            self.calls[name] += 1
            self.incl_ns[name] += durs[index]
            self.self_ns[name] += durs[index] - child_ns[index]
            if parents[index] < 0:
                self.top_ns += durs[index]

    def _parent_is(self, index, parent):
        p = self.t.parents[index]
        return p >= 0 and self.t.names[p] == parent

    def incl_under(self, prefix, parent):
        """Inclusive ns of spans named ``prefix*`` whose parent is ``parent``."""
        return sum(self.durs[i] for i, name in enumerate(self.t.names)
                   if name.startswith(prefix) and self._parent_is(i, parent))

    def _attrs(self, name):
        return [(i, a) for i, a in self.t.attrs.items() if self.t.names[i] == name]

    def attr_sum(self, name, key, parent=None):
        return sum(a[key] for i, a in self._attrs(name)
                   if parent is None or self._parent_is(i, parent))

    def attr_median(self, name, key):
        values = [a[key] for _, a in self._attrs(name) if a[key] is not None]
        return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# quadgauss targets
# ---------------------------------------------------------------------------


def _erfc_branch(t, x, ctx, *rest, **kwargs):
    """Branch erfc_kernel takes for argument t, by its own thresholds."""
    special = sys.modules["quadgauss.special"]
    t = float(t)
    if t < 0:
        return "special.erfc_kernel.reflect"
    r2 = math.pi * t * t / float(x)
    if r2 <= special._SERIES_RADIUS2:
        return "special.erfc_kernel.maclaurin"
    if r2 >= math.log(10) * (ctx.mp.dps + 8):
        return "special.erfc_kernel.biglam"
    return "special.erfc_kernel.cfrac"


def _phase_sum_terms(result, x, theta, count, *rest, **kwargs):
    return {"terms": count}


def _boundary_attrs(result, edge, params, policy=None, ctx=None):
    exact = sys.modules["quadgauss.exact"]
    ctx = ctx or params.ctx
    if result.k_stop == 0:
        return {"pairs": 0, "orders": 0, "doublings": 0, "ratio": None}
    a = abs(float(edge * params.x + params.theta))
    # exact.boundary_series starts at this k_stop and doubles it
    k_first = max(math.floor(a) + 9, 16)
    tol = (policy or exact.TailPolicy()).resolve_tol(ctx)
    return {"pairs": result.k_stop, "orders": result.orders,
            "doublings": (result.k_stop // k_first).bit_length() - 1,
            "ratio": float(result.tail_bound / tol)}


def _report_attrs(result, *args, **kwargs):
    return {"beyond_optimal": int(bool(result.beyond_optimal))}


TARGETS = [
    ("quadgauss.core", "phase_sum", "core.phase_sum", None, _phase_sum_terms),
    ("quadgauss.core", "direct_sum", "core.direct_sum", None, None),
    ("quadgauss.precision", "CompensatedSum.add", "precision.CompensatedSum.add",
     None, None),
    ("quadgauss.special", "erfc_kernel", "special.erfc_kernel", _erfc_branch, None),
    ("quadgauss.special", "_hzeta", "special._hzeta", None, None),
    ("quadgauss.special", "_digamma", "special._digamma", None, None),
    ("quadgauss.special", "hurwitz_zeta_odd", "special.hurwitz_zeta_odd", None, None),
    ("quadgauss.special", "hzeta_diff", "special.hzeta_diff", None, None),
    ("quadgauss.special", "hzeta_sum", "special.hzeta_sum", None, None),
    ("quadgauss.special", "cot_pi_reg", "special.cot_pi_reg", None, None),
    ("quadgauss.exact", "exact_sum_detail", "exact.exact_sum_detail", None, None),
    ("quadgauss.exact", "boundary_series", "exact.boundary_series", None,
     _boundary_attrs),
    ("quadgauss.exact", "phase_integral", "exact.phase_integral", None, None),
    ("quadgauss.expansion", "asymptotic_sum", "expansion.asymptotic_sum", None,
     _report_attrs),
    ("quadgauss.expansion", "_renorm_term", "expansion._renorm_term", None, None),
    ("quadgauss.expansion", "remainder_bound", "expansion.remainder_bound", None, None),
    ("quadgauss.exprs", "parse_number_expr", "exprs.parse_number_expr", None, None),
    ("quadgauss.exprs", "eval_number_expr", "exprs.eval_number_expr", None, None),
    ("quadgauss.cli", "main", "cli.main", None, None),
]

_ERFC_BRANCHES = ("maclaurin", "cfrac", "biglam", "reflect")
_SPECIAL = ("_hzeta", "_digamma", "hurwitz_zeta_odd", "hzeta_diff", "hzeta_sum",
            "cot_pi_reg")

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    [("core.phase_sum.calls", "count", "lower"),
     ("core.phase_sum.terms", "count", "lower"),
     ("core.phase_sum.terms_oracle", "count", "lower"),
     ("core.phase_sum.terms_renorm", "count", "lower"),
     ("core.phase_sum.self_s", "s", "lower"),
     ("core.phase_sum.us_per_term", "us", "lower"),
     ("precision.CompensatedSum.add.calls", "count", "lower"),
     ("precision.CompensatedSum.add.self_s", "s", "lower")]
    + [(f"special.erfc_kernel.{b}.{stat}", unit, "lower")
       for b in _ERFC_BRANCHES for stat, unit in (("calls", "count"), ("self_s", "s"))]
    + [(f"special.{f}.{stat}", unit, "lower")
       for f in _SPECIAL for stat, unit in (("calls", "count"), ("self_s", "s"))]
    + [("exact.exact_sum_detail.self_s", "s", "lower"),
       ("exact.boundary_series.calls", "count", "lower"),
       ("exact.boundary_series.self_s", "s", "lower"),
       ("exact.boundary_series.pairs", "count", "lower"),
       ("exact.boundary_series.k_stop_doublings", "count", "lower"),
       ("exact.boundary_series.orders", "count", "lower"),
       ("exact.tail_bound_over_tol", "ratio", "higher"),
       ("exact.phase_integral.calls", "count", "lower"),
       ("exact.phase_integral.self_s", "s", "lower"),
       ("expansion.asymptotic_sum.calls", "count", "lower"),
       ("expansion.asymptotic_sum.self_s", "s", "lower"),
       ("expansion.renorm_s", "s", "lower"),
       ("expansion.coeff_s", "s", "lower"),
       ("expansion.kernel_s", "s", "lower"),
       ("expansion.remainder_bound.calls", "count", "lower"),
       ("expansion.remainder_bound.self_s", "s", "lower"),
       ("expansion.beyond_optimal", "count", "lower"),
       ("exprs.parse_number_expr.self_s", "s", "lower"),
       ("exprs.eval_number_expr.self_s", "s", "lower"),
       ("cli.main.self_s", "s", "lower"),
       ("trace.overhead_frac", "frac", "lower"),
       ("trace.unattributed_frac", "frac", "lower")]
)


def layer_values(stats: SpanStats, passes: int, traced_ns: int, overhead: float):
    """Per-layer metric values, totals divided by the number of passes.

    ``traced_ns`` is the summed wall time of the traced evaluations and
    ``overhead`` the median ratio of traced to untraced time, minus one.
    """
    per = 1 / passes
    ns = 1e-9 * per
    v = {}
    terms = stats.attr_sum("core.phase_sum", "terms")
    v["core.phase_sum.calls"] = stats.calls["core.phase_sum"] * per
    v["core.phase_sum.terms"] = terms * per
    v["core.phase_sum.terms_oracle"] = stats.attr_sum(
        "core.phase_sum", "terms", parent="core.direct_sum") * per
    v["core.phase_sum.terms_renorm"] = stats.attr_sum(
        "core.phase_sum", "terms", parent="expansion._renorm_term") * per
    v["core.phase_sum.self_s"] = stats.self_ns["core.phase_sum"] * ns
    v["core.phase_sum.us_per_term"] = (
        stats.incl_ns["core.phase_sum"] / terms * 1e-3 if terms else 0.0)
    v["precision.CompensatedSum.add.calls"] = stats.calls["precision.CompensatedSum.add"] * per
    v["precision.CompensatedSum.add.self_s"] = (
        stats.self_ns["precision.CompensatedSum.add"] * ns)
    for b in _ERFC_BRANCHES:
        name = f"special.erfc_kernel.{b}"
        v[f"{name}.calls"] = stats.calls[name] * per
        v[f"{name}.self_s"] = stats.self_ns[name] * ns
    for f in _SPECIAL:
        v[f"special.{f}.calls"] = stats.calls[f"special.{f}"] * per
        v[f"special.{f}.self_s"] = stats.self_ns[f"special.{f}"] * ns
    v["exact.exact_sum_detail.self_s"] = stats.self_ns["exact.exact_sum_detail"] * ns
    v["exact.boundary_series.calls"] = stats.calls["exact.boundary_series"] * per
    v["exact.boundary_series.self_s"] = stats.self_ns["exact.boundary_series"] * ns
    for key, metric in (("pairs", "pairs"), ("doublings", "k_stop_doublings"),
                        ("orders", "orders")):
        v[f"exact.boundary_series.{metric}"] = stats.attr_sum(
            "exact.boundary_series", key) * per
    v["exact.tail_bound_over_tol"] = stats.attr_median("exact.boundary_series", "ratio")
    v["exact.phase_integral.calls"] = stats.calls["exact.phase_integral"] * per
    v["exact.phase_integral.self_s"] = stats.self_ns["exact.phase_integral"] * ns
    top = "expansion.asymptotic_sum"
    v["expansion.asymptotic_sum.calls"] = stats.calls[top] * per
    v["expansion.asymptotic_sum.self_s"] = stats.self_ns[top] * ns
    v["expansion.renorm_s"] = stats.incl_under("expansion._renorm_term", top) * ns
    v["expansion.coeff_s"] = stats.incl_under("special.hzeta_diff", top) * ns
    v["expansion.kernel_s"] = stats.incl_under("special.erfc_kernel.", top) * ns
    v["expansion.remainder_bound.calls"] = stats.calls["expansion.remainder_bound"] * per
    v["expansion.remainder_bound.self_s"] = stats.self_ns["expansion.remainder_bound"] * ns
    v["expansion.beyond_optimal"] = stats.attr_sum(top, "beyond_optimal") * per
    v["exprs.parse_number_expr.self_s"] = stats.self_ns["exprs.parse_number_expr"] * ns
    v["exprs.eval_number_expr.self_s"] = stats.self_ns["exprs.eval_number_expr"] * ns
    v["cli.main.self_s"] = stats.self_ns["cli.main"] * ns
    v["trace.overhead_frac"] = overhead
    v["trace.unattributed_frac"] = 1 - stats.top_ns / traced_ns
    return v
