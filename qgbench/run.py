"""quadgauss benchmark: certified-evaluation latency on three workloads.

Run from the root of a checkout:

    python3 qgbench/run.py --workload asym_sweep --seed 1 --seconds 30 --trace 0

One process, one closed-loop client: each evaluation starts when the
previous one has returned.  ``--trace 0`` times evaluations until
``--seconds`` seconds of evaluation time have passed, measures set-up in
fresh interpreters between them, and prints the end-to-end metrics.
``--trace 1`` runs each evaluation of the workload's input cycle twice,
untraced and then with every layer wrapped in spans, and prints the
per-layer metrics of the traced evaluations.  Every output is checked
against a reference after the timed region.

Prints readable lines, then one JSON object as the last line of stdout.
Exit status: 0 when every output passed its check, 1 when one failed,
2 when the program cannot be loaded.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUP_PROBES = 15
PROBE_TIMEOUT_S = 120

# (name, unit, better) of every end-to-end metric
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("evals_per_s", "1/s", "higher"),
    ("eval_p50_ms", "ms", "lower"),
    ("eval_p90_ms", "ms", "lower"),
    ("ok_frac", "frac", "higher"),
    ("cert_ok_frac", "frac", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


def probe_setup(name):
    """Seconds one set-up takes in a fresh interpreter (waited for)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), name],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(proc.stdout.split()[-1])


class Client:
    """The closed-loop client: evaluates inputs one at a time and records
    (input index, output or None if it raised, nanoseconds)."""

    def __init__(self, workload, inputs):
        self.workload = workload
        self.inputs = inputs
        self.results = []
        self.trace = None
        self._reported = False

    def evaluate(self, index):
        if self.trace is not None:
            self.trace.eval_id = len(self.results)
        t0 = time.perf_counter_ns()
        try:
            out = self.workload.evaluate(self.inputs[index])
        except Exception:  # an evaluation that raises counts as failed
            out = None
            if not self._reported:
                traceback.print_exc()
                self._reported = True
        ns = time.perf_counter_ns() - t0
        self.results.append((index, out, ns))
        return ns

    def run_for(self, seconds, between, times):
        """Cycle through the inputs until ``seconds`` of evaluation time have
        passed, calling ``between`` ``times`` times, evenly spread, between
        evaluations; returns the evaluation time in ns."""
        budget = seconds * 1e9
        busy = calls = i = 0
        while busy < budget:
            if calls < times and busy >= calls * budget / times:
                between()
                calls += 1
            busy += self.evaluate(i % len(self.inputs))
            i += 1
        return busy

    def check(self):
        """(failed, cert_missed) counts over every recorded output."""
        refs = {}
        failed = missed = 0
        for index, out, _ in self.results:
            result = workloads.FAILED
            try:
                if out is not None:
                    if index not in refs:
                        refs[index] = self.workload.reference(self.inputs[index])
                    result = self.workload.check(self.inputs[index], out, refs[index])
            except Exception:  # a reference or check that raises fails the output
                traceback.print_exc()
            failed += not result.ok
            missed += not result.cert
        return failed, missed


def machine_record():
    import mpmath

    precision = sys.modules.get("quadgauss.precision")
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "mpmath": mpmath.__version__, "backend": mpmath.libmp.BACKEND,
            "digits": workloads.DIGITS,
            "guard_digits": getattr(precision, "GUARD_DIGITS", None)}


def prepare(name, seed):
    """Load the program, set the workload up and warm it; return the client."""
    qg = workloads.load_program(ROOT)
    out_path = os.path.join(workloads.scratch_dir(ROOT), "cli_out.txt")
    workload = workloads.make(name, qg, out_path)
    workload.warmup()
    inputs = workload.inputs(seed)
    workload.evaluate(inputs[0])  # fill lazy caches before timing
    return Client(workload, inputs)


def run_timed(name, seed, seconds):
    client = prepare(name, seed)
    # set-up probes are spread over the run, so that they meet the same
    # drift in machine speed as the evaluations
    setup = []
    busy_ns = client.run_for(seconds, lambda: setup.append(probe_setup(name)),
                             SETUP_PROBES)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, missed = client.check()
    times_ms = [ns * 1e-6 for _, _, ns in client.results]
    attempted = len(times_ms)
    values = {
        "setup_s": statistics.median(setup),
        "evals_per_s": attempted / (busy_ns * 1e-9),
        "eval_p50_ms": statistics.median(times_ms),
        "eval_p90_ms": (statistics.quantiles(times_ms, n=10)[-1]
                        if attempted > 1 else times_ms[0]),
        "ok_frac": 1 - failed / attempted,
        "cert_ok_frac": 1 - missed / attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    return attempted, failed, values, END_TO_END


def run_traced(name, seed, seconds):
    client = prepare(name, seed)
    workload = client.workload
    trace = tracer.Tracer()
    # each evaluation of the cycle runs untraced, then traced, so that the
    # machine's drifting speed cancels out of the overhead; whole passes
    # over the cycle run while the next one is expected to end in time
    passes = traced_ns = 0
    ratios = []
    start = time.perf_counter_ns()
    while True:
        for i in range(workload.cycle):
            untraced = client.evaluate(i)
            trace.install(tracer.TARGETS)
            client.trace = trace
            try:
                traced = client.evaluate(i)
            finally:
                trace.uninstall()
                client.trace = None
            traced_ns += traced
            ratios.append(traced / untraced)
        passes += 1
        if (time.perf_counter_ns() - start) * (passes + 1) / passes > seconds * 1e9:
            break
    failed, _ = client.check()
    trace.write(os.path.join(workloads.scratch_dir(ROOT), f"spans-{name}-{seed}.tsv"))
    stats = tracer.SpanStats(trace)
    values = tracer.layer_values(stats, passes, traced_ns,
                                  statistics.median(ratios) - 1)
    return len(client.results), failed, values, tracer.PER_LAYER


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run = run_traced if args.trace else run_timed
    try:
        attempted, failed, values, spec = run(args.workload, args.seed, args.seconds)
    except (workloads.ProgramMissing, ImportError, subprocess.CalledProcessError) as exc:
        print(f"qgbench: cannot run the program: {exc}", file=sys.stderr)
        return 2
    print("machine " + json.dumps(machine_record()))
    print(f"workload {args.workload} seed {args.seed} evaluations {attempted} "
          f"failed {failed} trace {args.trace}")
    for metric, unit, _ in spec:
        print(f"  {metric:40s} {values[metric]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": values[metric], "unit": unit}
                    for metric, unit, _ in spec},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
