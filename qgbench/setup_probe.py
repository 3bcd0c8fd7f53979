"""Time one set-up of a workload in a fresh interpreter; print it in seconds.

Set-up is importing quadgauss, creating the workload's precision contexts
and one fixed warm-up evaluation.  Interpreter start-up is not included.

    python3 qgbench/setup_probe.py asym_sweep
"""

import os
import sys
import time

import workloads


def main(name):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out_path = os.path.join(workloads.scratch_dir(root), "probe_out.txt")
    t0 = time.perf_counter()
    qg = workloads.load_program(root)
    workloads.make(name, qg, out_path).warmup()
    print(time.perf_counter() - t0)


if __name__ == "__main__":
    main(sys.argv[1])
