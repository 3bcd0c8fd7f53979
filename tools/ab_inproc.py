"""In-process A/B of two checkouts: CPU time of the benchmark's inputs.

Run from the root of a checkout, with the parent commit extracted in
another directory:

    python3 tools/ab_inproc.py PARENT_DIR OUT.json [--seeds 1] [--rounds 7]
        [--workloads asym_sweep exact_sweep] [--inputs N]

Both checkouts' ``src/quadgauss`` are loaded in this one process, under
the package names ``qg_parent`` and ``qg_change``; no module of the
package holds mutable state, so the two share nothing but mpmath.  Each
side's inputs, evaluation and set-up come from its own
``qgbench/workloads.py`` (imported only, never written), given its
package as ``qg``; ``--inputs`` keeps the first N inputs of each seed.
Each round evaluates every input once on each side, the two sides of an
input one right after the other, so that the machine's drift over a
round reaches both alike; which side goes first alternates by input and
by round.  Each evaluation is timed by ``time.process_time``, with the
cyclic garbage collector off within a round.  Per workload and side, OUT.json gets the sum
over inputs of each input's least time over the rounds (``min_s``), the
ratio change/parent of those sums, and the quartiles of the per-round
ratios of the two sides' totals, which show the spread.  A ratio above
1 means the change takes longer.  It times the evaluations alone, not
the end-to-end runs of ``tools/bench_pairs.py``, and does not replace
them.
"""

import argparse
import gc
import importlib.util
import json
import os
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def load(root, side):
    """(workloads module, quadgauss package) of the checkout at root."""
    sys.dont_write_bytecode = True  # leave both checkouts as they are
    name = f"qg_{side}"
    pkg = os.path.join(root, "src", "quadgauss")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg])
    qg = importlib.util.module_from_spec(spec)
    sys.modules[name] = qg
    spec.loader.exec_module(qg)
    importlib.import_module(f"{name}.cli")
    spec = importlib.util.spec_from_file_location(
        f"workloads_{side}", os.path.join(root, "qgbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads, qg


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("out")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--workloads", nargs="+",
                        default=["asym_sweep", "exact_sweep", "paper_cli"])
    parser.add_argument("--inputs", type=int, help="the first N inputs of each seed")
    args = parser.parse_args()
    sides = dict(zip(SIDES, (load(args.parent, "parent"), load(HERE, "change"))))
    result = {"seeds": args.seeds, "rounds": args.rounds, "inputs": args.inputs}
    with tempfile.TemporaryDirectory() as tmp:
        for name in args.workloads:
            runs = {}
            for side, (workloads, qg) in sides.items():
                w = workloads.make(name, qg, os.path.join(tmp, f"{side}.json"))
                w.warmup()
                inputs = [i for s in args.seeds for i in w.inputs(s)[:args.inputs]]
                runs[side] = (w, inputs, [])
            for r in range(args.rounds):
                for side in SIDES:
                    runs[side][2].append([])
                gc.collect()
                gc.disable()
                for i in range(len(runs["parent"][1])):
                    for side in SIDES[::-1] if (r + i) % 2 else SIDES:
                        w, inputs, times = runs[side]
                        t0 = time.process_time()
                        w.evaluate(inputs[i])
                        times[-1].append(time.process_time() - t0)
                gc.enable()
            mins = {side: sum(map(min, zip(*runs[side][2]))) for side in SIDES}
            ratios = [sum(c) / sum(p) for p, c in zip(runs["parent"][2], runs["change"][2])]
            q1, med, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
            result[name] = {"n_inputs": len(runs["parent"][1]),
                            "min_s": {k: round(v, 4) for k, v in mins.items()},
                            "ratio": round(mins["change"] / mins["parent"], 4),
                            "round_ratio_quartiles": [round(q, 4) for q in (q1, med, q3)]}
            print(name, json.dumps(result[name]), flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
