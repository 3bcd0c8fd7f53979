"""Self-tests of the benchmark: tiny runs emit every metric, the checker
catches planted corruption, tracing wraps and restores every namespace.

    python3 -m pytest -q qgbench
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracer
import workloads

ROOT = run.ROOT
qg = workloads.load_program(ROOT)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture
def tiny(monkeypatch):
    """Two-input cycles and a single set-up probe."""
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    for cls in (workloads.AsymSweep, workloads.ExactSweep, workloads.PaperCli):
        monkeypatch.setattr(cls, "cycle", 2)


def _run(capsys, *argv):
    code = run.main(list(argv))
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


def test_metric_lists_match_benchmark_json():
    spec = _spec()
    assert ([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
            == list(run.END_TO_END))
    assert ([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
            == list(tracer.PER_LAYER))
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_emits_every_metric(tiny, capsys, name, trace):
    code, result = _run(capsys, "--workload", name, "--seed", "7",
                        "--seconds", "0.01", "--trace", trace)
    spec = run.END_TO_END if trace == "0" else tracer.PER_LAYER
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        metric: unit for metric, unit, _ in spec}
    if trace == "0":
        # two inputs may both miss their certificate; nothing else may be 0
        assert all(result["metrics"][m]["value"] > 0 for m, _, _ in spec
                   if m != "cert_ok_frac")
    else:
        # the spans account for the traced wall time
        assert 0 <= result["metrics"]["trace.unattributed_frac"]["value"] < 0.01


def test_same_seed_same_inputs():
    for name in workloads.WORKLOADS:
        w = workloads.make(name, qg, None)
        assert w.inputs(3) == w.inputs(3)
        assert w.inputs(3) != w.inputs(4)


def test_exact_inputs_stay_in_range():
    w = workloads.make("exact_sweep", qg, None)
    for seed in range(20):
        for x, theta, N, _ in w.inputs(seed):
            assert 0.005 <= x <= 0.9 and -0.5 <= theta <= 0.5 and 1 <= N <= 3000
            assert N * x + theta <= 300


def _both_flagged(check):
    return not check.ok and not check.cert


def test_checker_catches_corrupt_asym_value_and_bound():
    w = workloads.make("asym_sweep", qg, None)
    # column 1 of the published study: the n = 4 bound is attained to 5%
    inp = (1 / (250 * math.sqrt(math.pi)), -0.125, 7300, 4)
    value, bound = w.evaluate(inp)
    ref = w.reference(inp)
    assert w.check(inp, (value, bound), ref).ok
    assert _both_flagged(w.check(inp, (value + 10 * bound, bound), ref))
    assert _both_flagged(w.check(inp, (value, bound / 100), ref))


def test_checker_catches_corrupt_exact_value_and_bound():
    w = workloads.make("exact_sweep", qg, None)
    inp = (0.4428, -0.318, 70, "1e-20")
    value, bound = w.evaluate(inp)
    ref = w.reference(inp)
    good = w.check(inp, (value, bound), ref)
    assert good.ok and good.err > 100 * workloads.ORACLE_NOISE_FACTOR * w.ctx.eps * 70
    assert _both_flagged(w.check(inp, (value + 1e-15, bound), ref))
    assert _both_flagged(w.check(inp, (value, bound / 100), ref))


def test_checker_catches_corrupt_table_rows_and_sum(tmp_out):
    w = workloads.PaperCli(qg, tmp_out)
    inp = ("table2", "col1")
    rc, text = w.evaluate(inp)
    assert w.check(inp, (rc, text), None).ok
    rows = json.loads(text)
    bad_value = [dict(r, abs_Rn=str(2 * float(r["abs_Rn"]))) for r in rows]
    bad_bound = [dict(r, bound=str(float(r["abs_Rn"]) / 2)) for r in rows]
    for bad in (bad_value, bad_bound):
        assert _both_flagged(w.check(inp, (rc, json.dumps(bad)), None))
    inp = ("sum", "0.25", "-0.125", 3000)
    rc, text = w.evaluate(inp)
    ref = w.reference(inp)
    assert w.check(inp, (rc, text), ref).ok
    doc = json.loads(text)
    doc["value_re"] = str(float(doc["value_re"]) + 1e-12)
    assert _both_flagged(w.check(inp, (rc, json.dumps(doc)), ref))


def test_corrupt_output_fails_the_run(tiny, capsys, monkeypatch):
    evaluate = workloads.AsymSweep.evaluate

    def corrupted(self, inp):
        value, bound = evaluate(self, inp)
        return value + 1e-6, bound

    monkeypatch.setattr(workloads.AsymSweep, "evaluate", corrupted)
    code, result = _run(capsys, "--workload", "asym_sweep", "--seed", "7",
                        "--seconds", "0.01", "--trace", "0")
    assert code == 1 and not result["correct"]
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["ok_frac"]["value"] == 0
    assert result["metrics"]["cert_ok_frac"]["value"] == 0


def test_tracer_wraps_every_namespace_and_restores():
    special, exact = sys.modules["quadgauss.special"], sys.modules["quadgauss.exact"]
    orig = special.erfc_kernel
    trace = tracer.Tracer()
    trace.install(tracer.TARGETS)
    try:
        assert special.erfc_kernel is not orig
        assert exact.erfc_kernel is special.erfc_kernel
        ctx = qg.PrecisionContext(20)
        exact.erfc_kernel(-3, 0.1, ctx)
    finally:
        trace.uninstall()
    assert special.erfc_kernel is orig and exact.erfc_kernel is orig
    # the reflection span is the parent of the span for the reflected argument
    assert trace.names == ["special.erfc_kernel.reflect", "special.erfc_kernel.biglam"]
    assert trace.parents == [-1, 0]
    stats = tracer.SpanStats(trace)
    assert stats.top_ns == sum(stats.self_ns.values())


@pytest.fixture
def tmp_out():
    path = os.path.join(workloads.scratch_dir(ROOT), "selftest_out.txt")
    yield path
    if os.path.exists(path):
        os.remove(path)


def test_exits_nonzero_without_the_program():
    bare = os.path.join(workloads.scratch_dir(ROOT), "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "qgbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "qgbench/run.py", "--workload", "asym_sweep",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
