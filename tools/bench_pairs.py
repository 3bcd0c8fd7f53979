"""Alternating parent/change pairs of qgbench runs, summarized per metric.

Run from the root of a checkout, with the parent commit checked out in
another directory:

    python3 tools/bench_pairs.py PARENT_DIR OUT.json --seeds 201-210

Each pair runs ``qgbench/run.py --trace 0`` on the same seed in both
checkouts, on every workload and for the run length that BENCHMARK.json
sets, one process at a time, the parent first in even pairs and the
change first in odd ones.  OUT.json gets every run and, per workload and
end-to-end metric, the quartiles of each side, the pairs the change
wins, and the gap of the medians over the parent's interquartile range.

Each run also records its child process's CPU seconds (``cpu_s``) and
``evals_per_cpu_s`` = attempted / cpu_s, summarized by the quartiles of
each side.  A run that gets less of a shared machine makes fewer
evaluations in its fixed wall-clock length, and spends fewer CPU seconds
with them, so this figure follows the code more than the machine's load.
It includes the run's set-up probes and its checks, not only the timed
evaluations, so it is only for comparing the two sides of a pair, never
a throughput.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(root, workload, seed, seconds):
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    out = subprocess.run(
        [sys.executable, "qgbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True).stdout
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu_s = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
    doc = json.loads(out.strip().splitlines()[-1])
    row = {k: v["value"] for k, v in doc["metrics"].items()}
    row.update(attempted=doc["attempted"], failed=doc["failed"], correct=doc["correct"],
               cpu_s=round(cpu_s, 3), evals_per_cpu_s=round(doc["attempted"] / cpu_s, 3))
    return row


def quartiles(values):
    if len(values) < 2:
        values = values * 2
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 4), round(med, 4), round(q3, 4)]


def summarize(runs, spec):
    summary = {}
    for metric in spec:
        name, better, bound = metric["name"], metric["better"], metric["bound"]
        parent = [r["parent"][name] for r in runs]
        change = [r["change"][name] for r in runs]
        sign = 1 if better == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        ties = sum(c == p for p, c in zip(parent, change))
        pq, cq = quartiles(parent), quartiles(change)
        iqr = pq[2] - pq[0]
        summary[name] = {
            "parent_q1_median_q3": pq, "change_q1_median_q3": cq,
            "change_over_parent_median": round(cq[1] / pq[1], 4) if pq[1] else None,
            "change_better_pairs": wins, "ties": ties, "pairs": len(runs),
            "median_gap_over_parent_iqr": round(abs(cq[1] - pq[1]) / iqr, 2) if iqr else None,
            "worse_by_frac_of_parent_median":
                round(-sign * (cq[1] - pq[1]) / pq[1], 4) if pq[1] else 0.0,
            "bound": bound,
        }
    summary["evals_per_cpu_s"] = {
        side + "_q1_median_q3": quartiles([r[side]["evals_per_cpu_s"] for r in runs])
        for side in ("parent", "change")}
    return summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("out")
    parser.add_argument("--seeds", default="201-210")
    args = parser.parse_args()
    lo, hi = map(int, args.seeds.split("-"))
    with open(os.path.join(HERE, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    spec, seconds = bench["end_to_end"], bench["run_seconds"]
    result = {}
    for workload in [w["name"] for w in bench["workloads"]]:
        runs = []
        for i, seed in enumerate(range(lo, hi + 1)):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                root = args.parent if side == "parent" else HERE
                pair[side] = run(root, workload, seed, seconds)
            runs.append(pair)
            print(workload, seed, {s: round(pair[s]["eval_p90_ms"], 3) for s in order},
                  flush=True)
            result[workload] = {"summary": summarize(runs, spec), "runs": runs}
            with open(args.out, "w") as fh:
                json.dump(result, fh, indent=1)


if __name__ == "__main__":
    main()
