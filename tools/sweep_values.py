"""The benchmark's outputs, bit for bit, for comparing two checkouts.

Run from the root of a checkout:

    python3 tools/sweep_values.py OUT.json

It loads that checkout's ``qgbench/workloads.py`` (imported only, never
written) and, through it, the checkout's ``src/quadgauss``.  It evaluates
the 64 inputs of seeds 1-3 of ``asym_sweep`` and ``exact_sweep``, runs
``table1``/``table2`` on col1, col2 and col3a at digits 50 through the
CLI, and then, in the same process as ``paper_cli`` runs them, the seeded
``sum`` and ``curlicue`` commands of its seeds 1-3 at digits 30.  OUT.json
gets each value's and bound's libmp tuple, each table's text and each
command's output without its ``elapsed_ns``, with sorted keys, so the
files of two checkouts whose outputs agree bit for bit compare equal with
``cmp``.
"""

import importlib.util
import json
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
    with open(sys.argv[1], "w", encoding="ascii") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
