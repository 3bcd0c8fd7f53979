"""The benchmark's outputs, bit for bit, for comparing two checkouts.

Run from the root of a checkout:

    python3 tools/sweep_values.py OUT.json

It loads that checkout's ``qgbench/workloads.py`` (imported only, never
written) and, through it, the checkout's ``src/quadgauss``.  It evaluates
the 64 inputs of seeds 1-3 of ``asym_sweep`` and ``exact_sweep``, runs
``table1``/``table2`` on col1, col2 and col3a at digits 50 through the
CLI, and then, in the same process as ``paper_cli`` runs them, the seeded
``sum`` and ``curlicue`` commands of its seeds 1-3 at digits 30.  A fixed
block (``precision_block``, about 10 s) then reaches the precisions where
the fixed-point engines' guard bits show: both routes at digits 100 and
450, one N x + theta whose fractional part carries more bits than the
working precision, the erfc kernel on both sides of its series switch,
the regularized cotangent near 0 and 1/2, and 40 orders of the
Hurwitz-zeta walk.  OUT.json gets each value's and bound's libmp tuple,
each table's text and each command's output without its ``elapsed_ns``,
with sorted keys, so the files of two checkouts whose outputs agree bit
for bit compare equal with ``cmp``.
"""

import importlib.util
import itertools
import json
import math
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2, 3)


def load_workloads():
    sys.dont_write_bytecode = True  # leave qgbench/ as it is
    path = os.path.join(HERE, "qgbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def libmp(v):
    """The exact libmp tuple of an mpf or mpc."""
    return v._mpc_ if hasattr(v, "_mpc_") else v._mpf_


def precision_block(qg):
    """{key: libmp tuples} of the engines at the inputs listed above.

    Its inputs are formed here, from the tool's own constants, so that
    they do not move with the program's: r2 = pi t^2/x around
    (prec + 16) ln 2 + 1, where ``special._switch`` sits today.
    """
    doc = {}
    for digits in (100, 450):
        ctx = qg.PrecisionContext(digits)
        mp = ctx.mp
        col1_x = 1 / (250 * mp.sqrt(mp.pi))
        for x, theta, N in (("0.99", "0.3", 50), ("0.01", "-0.17", 3001),
                            (col1_x, "-0.125", 7300), (mp.mpf(2) ** -20, "0.4", 10**7 + 9)):
            params = qg.GaussParams(x, theta, N, ctx)
            key = f"precision:{digits}:{mp.nstr(params.x, 8)}:{theta}:{N}"
            rep = qg.asymptotic_sum(params)
            value, upper, lower = qg.exact_sum_detail(params)
            doc[key] = {"asym": [libmp(rep.value), [libmp(b) for b in rep.bounds]],
                        "exact": [libmp(value), [libmp(s.tail_bound) for s in (upper, lower)],
                                  [s.k_stop for s in (upper, lower)]]}
    # frac = N x + theta - M carries more bits than the working precision
    ctx = qg.PrecisionContext(30)
    params = qg.GaussParams(ctx.mp.mpf(3) / 2**16, "-0.17", 10**11 + 7, ctx)
    rep = qg.asymptotic_sum(params)
    value, upper, lower = qg.exact_sum_detail(params)
    doc["precision:30:3/2^16:-0.17:10^11+7"] = {
        "asym": [libmp(rep.value), [libmp(b) for b in rep.bounds]],
        "exact": [libmp(value), [libmp(s.tail_bound) for s in (upper, lower)]]}
    for digits in (15, 30, 100, 450):
        ctx = qg.PrecisionContext(digits)
        mp = ctx.mp
        switch = (mp.prec + 16) * math.log(2) + 1
        for x in ("0.37", "0.0001"):
            x = mp.mpf(x)
            for r2 in (switch - 5, switch - 0.5, switch + 0.5, switch + 5):
                with mp.extraprec(2 * mp.prec):  # t with more bits than prec
                    t = mp.sqrt(mp.mpf(r2) * x / mp.pi)
                doc[f"kernel:{digits}:{x}:{r2:.1f}"] = libmp(qg.erfc_kernel(t, x, ctx))
        for lam in (2.0**-20, -(2.0**-20), 0.4999, -0.4999):
            doc[f"cot:{digits}:{lam}"] = libmp(qg.cot_pi_reg(lam, ctx))
        for a in (2.0**-10, 17.5):
            orders = itertools.islice(qg.special.zeta_odd_orders(a, ctx), 40)
            doc[f"zeta:{digits}:{a}"] = [libmp(z) for z in orders]
    return doc


def main():
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUT.json")
    workloads = load_workloads()
    qg = workloads.load_program(HERE)
    doc = {}
    for cls in (workloads.AsymSweep, workloads.ExactSweep):
        w = cls(qg)
        for seed in SEEDS:
            for i, inp in enumerate(w.inputs(seed)):
                value, bound = w.evaluate(inp)
                doc[f"{w.name}:{seed}:{i:02d}"] = {
                    "input": repr(inp), "value": libmp(value), "bound": libmp(bound)}
    with tempfile.TemporaryDirectory() as tmp:
        cli = workloads.PaperCli(qg, os.path.join(tmp, "out.json"))
        for table in ("table1", "table2"):
            for preset in ("col1", "col2", "col3a"):
                rc, text = cli.evaluate((table, preset))
                doc[f"{cli.name}:{table}:{preset}"] = {"rc": rc, "text": text}
        for seed in SEEDS:
            for i, inp in enumerate(cli.inputs(seed)):
                if inp[0] in ("sum", "curlicue"):
                    rc, text = cli.evaluate(inp)
                    out = json.loads(text) if rc == 0 else None
                    if isinstance(out, dict):
                        del out["elapsed_ns"]
                    doc[f"{cli.name}:{seed}:{i:02d}"] = {
                        "input": repr(inp), "rc": rc, "output": out}
    doc.update(precision_block(qg))
    with open(sys.argv[1], "w", encoding="ascii") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
