"""CLI surface: schemas, exit codes, buffering, command consistency."""

import csv
import io
import json
import os
import subprocess
import sys

import pytest

import quadgauss
from quadgauss import (GaussParams, PrecisionContext, ResourceBudgetError, asymptotic_sum,
                       cli, core, direct_sum, eval_number_expr, exact_sum_detail,
                       parse_number_expr)
from quadgauss.cli import _emit, build_parser, main

from _utils import _expjpi_sums, sig3

CTX = PrecisionContext(30)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _not_json(name):
    raise ValueError(f"{name} is not a JSON number (RFC 8259)")


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out, parse_constant=_not_json)


SCALAR_KEYS = ["method", "x", "theta", "N", "digits", "value_re", "value_im",
               "elapsed_ns"]


def test_sum_trivial_value_and_schema(capsys):
    doc = run_json(capsys, "sum", "--x", "0.5", "--theta", "0", "--N", "4")
    assert list(doc.keys()) == SCALAR_KEYS
    assert doc["method"] == "sum" and doc["N"] == 4 and doc["digits"] == 30
    assert abs(float(doc["value_re"]) - 2) < 1e-25
    assert abs(float(doc["value_im"]) - 2) < 1e-25


def test_values_are_json_numbers_at_low_digits(capsys):
    doc = run_json(capsys, "sum", "--x", "0.5", "--theta", "0", "--N", "4",
                   "--digits", "16")
    assert isinstance(doc["value_re"], float)
    doc = run_json(capsys, "sum", "--x", "0.5", "--theta", "0", "--N", "4",
                   "--digits", "25")
    assert isinstance(doc["value_re"], str)


def test_exact_agrees_with_sum(capsys):
    args = ["--x", "0.01", "--theta", "0.3", "--N", "100", "--digits", "30"]
    ref = run_json(capsys, "sum", *args)
    doc = run_json(capsys, "exact", *args, "--tol", "1e-22")
    assert list(doc.keys()) == SCALAR_KEYS[:5] + ["value_re", "value_im",
                                                  "bound", "elapsed_ns"]
    mp = CTX.mp
    diff = abs(mp.mpc(mp.mpf(ref["value_re"]), mp.mpf(ref["value_im"]))
               - mp.mpc(mp.mpf(doc["value_re"]), mp.mpf(doc["value_im"])))
    assert diff <= mp.mpf("1e-20")


def test_asym_matches_reference_error(capsys):
    args = ["--x", "1/(250*sqrt(pi))", "--theta", "-0.125", "--N", "7300",
            "--digits", "50"]
    ref = run_json(capsys, "sum", *args)
    doc = run_json(capsys, "asym", *args, "--n", "4")
    assert doc["n"] == 4
    mp = PrecisionContext(50).mp
    diff = abs(mp.mpc(mp.mpf(ref["value_re"]), mp.mpf(ref["value_im"]))
               - mp.mpc(mp.mpf(doc["value_re"]), mp.mpf(doc["value_im"])))
    assert sig3(diff) == "1.37e-11"
    assert mp.mpf(doc["bound"]) > diff


def test_normalization_applies_to_raw_cli_parameters(capsys):
    base = run_json(capsys, "sum", "--x", "0.3", "--theta", "0.2", "--N", "50")
    shifted = run_json(capsys, "sum", "--x", "2.3", "--theta", "1.2", "--N", "50")
    conj = run_json(capsys, "sum", "--x", "-0.3", "--theta", "-0.2", "--N", "50")
    for key in ("value_re", "value_im"):
        assert abs(float(base[key]) - float(shifted[key])) < 1e-24
    assert abs(float(base["value_re"]) - float(conj["value_re"])) < 1e-24
    assert abs(float(base["value_im"]) + float(conj["value_im"])) < 1e-24


def test_tiny_negative_x_folds_exactly(capsys):
    # x = -1e-50 and -1e-20 (no exponents in number expressions): the
    # conjugate parameters give the conjugate value, bit for bit
    tiny = "0." + "0" * 49 + "1"
    assert run_cli(capsys, "sum", f"--x=-{tiny}", "--theta", "0.25", "--N", "3")[0] == 0
    x = "0." + "0" * 19 + "1"
    raw = run_json(capsys, "asym", f"--x=-{x}", "--theta", "0.1", "--N", str(10**12))
    conj = run_json(capsys, "asym", "--x", x, "--theta=-0.1", "--N", str(10**12))
    mp = CTX.mp
    assert mp.mpf(raw["value_re"]) == mp.mpf(conj["value_re"])
    assert mp.mpf(raw["value_im"]) == -mp.mpf(conj["value_im"])
    assert raw["bound"] == conj["bound"]


def test_json_writes_reals_outside_the_double_range_as_text(capsys):
    # x = 1e-700 and 1e-800 (no exponents in number expressions): a double
    # would print the bound 3.9e-7007 as 0.0 and parts of a value past 1e399 as Infinity
    mp = CTX.mp
    for k, theta, N, text_keys in ((700, "0.3", 10, {"bound"}),
                                   (800, "0", 10**400, {"value_re", "value_im", "bound"})):
        args = ["asym", "--x", "0." + "0" * (k - 1) + "1", "--theta", theta,
                "--N", str(N), "--digits", "17"]
        doc = run_json(capsys, *args)
        row = next(csv.DictReader(io.StringIO(run_cli(capsys, *args, "--format", "csv")[1])))
        for key in ("value_re", "value_im", "bound"):
            want = mp.mpf(row[key])
            assert want != 0
            if key in text_keys:
                assert isinstance(doc[key], str) and mp.mpf(doc[key]) == want
            else:
                assert isinstance(doc[key], float)
                assert abs(doc[key] - want) <= 1e-15 * abs(want)


def test_table1_col1_reproduces_published_errors(capsys):
    code, out, err = run_cli(capsys, "table1", "--preset", "col1",
                             "--digits", "40", "--format", "csv")
    assert code == 0, err
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [int(r["n"]) for r in rows] == [1, 2, 3, 4, 6, 8, 10]
    published = ["2.216e-4", "5.642e-7", "2.346e-9", "1.369e-11",
                 "9.569e-16", "1.334e-19", "3.096e-23"]
    # abs_error is the error of the whole expansion truncated after n terms
    ctx = PrecisionContext(40)
    x = eval_number_expr(parse_number_expr(cli.PRESETS["col1"]["x"]), ctx)
    p = GaussParams(x, "-0.125", 7300, ctx)
    oracle = direct_sum(p)
    for row, want in zip(rows, published):
        assert sig3(row["abs_error"]) == sig3(want)
        err = abs(oracle - asymptotic_sum(p, int(row["n"])).value)
        assert abs(ctx.mp.mpf(row["abs_error"]) - err) <= 10 * ctx.eps, row["n"]
        assert float(row["abs_Rn"]) <= float(row["bound"])
        assert float(row["ratio"]) >= 1


def test_table2_rows_and_determinism(capsys):
    first = run_cli(capsys, "table2", "--preset", "col2", "--digits", "40")
    second = run_cli(capsys, "table2", "--preset", "col2", "--digits", "40")
    assert first == second  # no timing fields in table output
    doc = json.loads(first[1])
    assert [row["n"] for row in doc] == [1, 2, 4, 6, 8, 10]
    assert sig3(doc[0]["abs_Rn"]) == sig3("1.200e-4")
    assert sig3(doc[0]["bound"]) == sig3("3.272e-4")


def test_table_of_conjugate_parameters_has_the_same_rows(capsys):
    # table columns are moduli, so the conjugate parameters (-x, -theta)
    # give the same rows; only the echoed x and theta differ
    args = ["--N", "6000", "--digits", "40"]
    base = run_json(capsys, "table2", "--x", "1/(500*sqrt(3))", "--theta", "0.125", *args)
    conj = run_json(capsys, "table2", "--x=-1/(500*sqrt(3))", "--theta=-0.125", *args)
    assert [row.pop("x") for row in conj] == ["-1/(500*sqrt(3))"] * 6
    assert [row.pop("theta") for row in conj] == ["-0.125"] * 6
    for row in base:
        del row["x"], row["theta"]
    assert conj == base


def test_table_requires_preset_or_params(capsys):
    code, out, err = run_cli(capsys, "table1")
    assert code == 2 and out == "" and "preset" in err


def test_preset_with_explicit_parameters_is_a_usage_error(capsys):
    # the preset would silently replace them
    for extra in (("--x", "0.3"), ("--theta", "0"), ("--N", "50")):
        code, out, err = run_cli(capsys, "table1", "--preset", "col1", *extra)
        assert code == 2 and out == "" and "--preset" in err, extra


def test_csv_is_rfc4180_and_scientific(capsys):
    code, out, err = run_cli(capsys, "sum", "--x", "0.5", "--theta", "0",
                             "--N", "4", "--format", "csv")
    assert code == 0
    assert "\r\n" in out
    header = out.split("\r\n", 1)[0]
    assert header == ",".join(SCALAR_KEYS)
    row = next(csv.DictReader(io.StringIO(out)))
    assert "e" in row["value_re"]  # scientific notation
    assert float(row["value_re"]) == pytest.approx(2.0, abs=1e-15)


def test_csv_headers_per_command(capsys):
    args = ["--x", "0.017", "--theta", "0.25", "--N", "1000", "--format", "csv"]
    want = {
        "exact": SCALAR_KEYS[:5] + ["value_re", "value_im", "bound", "elapsed_ns"],
        "asym": SCALAR_KEYS[:5] + ["n", "value_re", "value_im", "bound", "elapsed_ns"],
        "bench": ["method", "x", "theta", "N", "digits", "n", "direct_ns",
                  "expansion_ns", "speedup", "abs_error", "bound", "certified"],
    }
    for command, keys in want.items():
        code, out, err = run_cli(capsys, command, *args)
        assert code == 0, err
        assert out.split("\r\n", 1)[0] == ",".join(keys)


def test_asym_warns_past_optimal_truncation(capsys):
    code, out, err = run_cli(capsys, "asym", "--x", "0.3", "--theta", "0.1",
                             "--N", "30", "--n", "40")
    assert code == 0 and json.loads(out)["n"] == 40
    assert "optimal truncation index" in err


def test_table_with_explicit_params(capsys):
    doc = run_json(capsys, "table2", "--x", "1/(500*sqrt(3))", "--N", "6000",
                   "--digits", "17")
    assert [row["n"] for row in doc] == [1, 2, 4, 6, 8, 10]
    for row in doc:
        assert row["preset"] == ""
        assert all(isinstance(row[k], float) for k in ("abs_error", "abs_Rn", "bound", "ratio"))


def test_table_ratio_is_empty_when_the_remainder_vanishes(capsys):
    # at dyadic inputs the decomposition is exact, so |R_n| = 0 and the
    # ratio bound/|R_n| is JSON null or an empty CSV field
    doc = run_json(capsys, "table2", "--x", "0.5", "--theta", "0", "--N", "2",
                   "--digits", "20")
    assert all(row["abs_Rn"] == "0.0" and row["ratio"] is None for row in doc)
    code, out, err = run_cli(capsys, "table1", "--x", "0.25", "--theta=-0.25",
                             "--N", "1000", "--format", "csv")
    assert code == 0, err
    assert all(row["ratio"] == "" for row in csv.DictReader(io.StringIO(out)))


def test_certified_commands_exit_cleanly_on_small_exact_inputs(capsys):
    # every certified command either answers or refuses with a documented
    # code; no input here may escape as an exception
    for command in ("asym", "exact", "table1", "table2"):
        for x in ("1/2", "1/4", "1/3"):
            for theta in ("0", "1/4", "-1/4", "1/2", "-1/2"):
                for n in ("1", "2", "3"):
                    argv = [command, "--x", x, f"--theta={theta}", "--N", n,
                            "--digits", "15"]
                    code, _, err = run_cli(capsys, *argv)
                    assert code in (0, 3, 4) and "Traceback" not in err, (argv, err)


def test_exact_meets_a_tol_beyond_window_16(capsys):
    # at digits 400 and x = 0.99 window 17 is the least that reaches 1e-378
    args = ["--x", "0.99", "--theta", "0.5", "--N", "3", "--digits", "400"]
    ref = run_json(capsys, "sum", *args)
    doc = run_json(capsys, "exact", *args, "--tol", "1e-378")
    mp = PrecisionContext(400).mp
    assert mp.mpf(doc["bound"]) < 2 * mp.mpf("1e-378")
    diff = abs(mp.mpc(mp.mpf(ref["value_re"]), mp.mpf(ref["value_im"]))
               - mp.mpc(mp.mpf(doc["value_re"]), mp.mpf(doc["value_im"])))
    assert diff <= mp.mpf(doc["bound"]) + 64 * mp.eps


def test_curlicue_hand_computed_track(capsys):
    doc = run_json(capsys, "curlicue", "--x", "0.5", "--theta", "0", "--N", "4",
                   "--digits", "16")
    track = [(r["j"], round(r["re"], 9), round(r["im"], 9)) for r in doc]
    assert track == [(0, 0.0, 0.0), (1, 0.0, 1.0), (2, 1.0, 1.0),
                     (3, 1.0, 2.0), (4, 2.0, 2.0)]


def test_curlicue_unit_steps_and_stride(capsys):
    doc = run_json(capsys, "curlicue", "--x", "1/(7*sqrt(2))", "--theta",
                   "0.125", "--N", "200", "--digits", "16")
    assert len(doc) == 201
    for prev, cur in zip(doc, doc[1:]):
        step = complex(cur["re"] - prev["re"], cur["im"] - prev["im"])
        assert abs(abs(step) - 1) < 1e-13
    doc = run_json(capsys, "curlicue", "--x", "0.37", "--theta", "0", "--N",
                   "10000", "--digits", "16", "--stride", "10")
    assert len(doc) == 1001
    assert doc[-1]["j"] == 10000


def test_curlicue_rational_odd_case_is_periodic(capsys):
    # x = 1/3, theta = 0: both p and q odd, the trajectory repeats with
    # period 6 (the block sum vanishes)
    doc = run_json(capsys, "curlicue", "--x", "1/3", "--theta", "0", "--N", "30",
                   "--digits", "20")
    pts = [complex(float(r["re"]), float(r["im"])) for r in doc]
    for j in range(0, 24):
        assert abs(pts[j + 6] - pts[j]) < 1e-15


def test_bench_small_report_well_formed(capsys):
    doc = run_json(capsys, "bench", "--x", "0.017", "--theta", "0.25",
                   "--N", "1000", "--n", "6", "--digits", "30")
    assert list(doc.keys()) == ["method", "x", "theta", "N", "digits", "n",
                                "direct_ns", "expansion_ns", "speedup",
                                "abs_error", "bound", "certified"]
    assert doc["certified"] is True
    assert doc["direct_ns"] > 0 and doc["expansion_ns"] > 0


def test_bench_refuses_a_value_outside_its_certificate(monkeypatch, capsys):
    def off_by_one(*args):
        report = asymptotic_sum(*args)
        return report._replace(value=report.value + 1)

    monkeypatch.setattr(cli, "asymptotic_sum", off_by_one)
    code, out, err = run_cli(capsys, "bench", "--x", "0.017", "--theta", "0.25",
                             "--N", "1000", "--n", "6", "--digits", "30")
    assert code == 4 and out == ""
    assert "exceeds bound+noise" in err and "Traceback" not in err


def test_one_term_budget_for_every_phase_loop(monkeypatch, capsys):
    # core keeps the only term budget, for the loop and the chirp: lowered
    # to 50, the oracle, both routes' short sums (M = N/2) and the curlicue
    # run 40 terms and refuse 60
    monkeypatch.setattr(core, "DEFAULT_MAX_TERMS", 50)
    entries = (lambda m: direct_sum(GaussParams("0.5", "0.1", m, CTX)),
               lambda m: asymptotic_sum(GaussParams("0.5", "0.1", 2 * m, CTX), 2),
               lambda m: exact_sum_detail(GaussParams("0.5", "0.1", 2 * m, CTX)))
    for entry in entries:
        entry(40)
        with pytest.raises(ResourceBudgetError):
            entry(60)
    code, out, _ = run_cli(capsys, "curlicue", "--x", "0.5", "--N", "40")
    assert code == 0 and len(json.loads(out)) == 41
    code, out, _ = run_cli(capsys, "curlicue", "--x", "0.5", "--N", "60")
    assert code == 4 and out == ""


def test_routes_refuse_a_huge_short_sum_as_a_budget_error(capsys):
    # N x + theta = 10^400 + 0.1, far above 2^prec: both routes refuse the
    # short sum of exactly 10^400 terms, not a domain error on frac
    for command in ("asym", "exact"):
        code, out, err = run_cli(capsys, command, "--x", "0.5", "--theta", "0.1",
                                 "--N", str(2 * 10**400))
        assert code == 4 and out == "" and f"{10**400} terms" in err


def test_exit_codes(capsys):
    # usage: unknown flag
    code, _, _ = run_cli(capsys, "sum", "--bogus", "1")
    assert code == 2
    # usage: missing required parameter
    code, _, err = run_cli(capsys, "sum", "--theta", "0")
    assert code == 2
    # usage: malformed expression
    code, _, err = run_cli(capsys, "sum", "--x", "1/(", "--N", "4")
    assert code == 2 and "offset" in err
    # usage: unknown identifier
    code, _, err = run_cli(capsys, "sum", "--x", "2*tau", "--N", "4")
    assert code == 2
    # usage: nesting too deep for Python's parser or stack, no traceback
    for x in ("(" * 300 + "1" + ")" * 300, "1" + "+1" * 20000, "-" * 5000 + "1"):
        code, out, err = run_cli(capsys, "sum", "--x=" + x, "--N", "3")
        assert code == 2 and out == "" and "offset" in err
    # usage: --tol belongs to exact alone
    code, _, _ = run_cli(capsys, "sum", "--x", "0.5", "--N", "4", "--tol", "1e-20")
    assert code == 2
    # domain: --tol text that is not a number
    code, out, err = run_cli(capsys, "exact", "--x", "0.01", "--N", "10", "--tol", "abc")
    assert code == 3 and out == "" and "domain" in err
    # domain: x degenerates mod 2
    code, _, err = run_cli(capsys, "sum", "--x", "2", "--N", "4")
    assert code == 3 and "domain" in err
    # domain: bad digits
    code, _, err = run_cli(capsys, "sum", "--x", "0.5", "--N", "4",
                           "--digits", "5")
    assert code == 3
    # resource: oversized budget
    code, _, err = run_cli(capsys, "sum", "--x", "0.5", "--N", "200000001")
    assert code == 4
    # resource: the short sum of asym would need 5e11 phases
    code, out, _ = run_cli(capsys, "asym", "--x", "0.5", "--N", "1000000000000", "--n", "2")
    assert code == 4 and out == ""
    # resource: asym's layer budget, checked before the first layer
    code, out, _ = run_cli(capsys, "asym", "--x", "0.5", "--N", "3", "--n", "1000000000000")
    assert code == 4 and out == ""
    # resource: curlicue's term and point budgets, checked before any term
    for n, stride in (("2000001", "1"), ("200000001", "1000")):
        code, out, _ = run_cli(capsys, "curlicue", "--x", "0.5", "--N", n,
                               "--stride", stride)
        assert code == 4 and out == ""
    # domain: curlicue needs N >= 1, like every other command
    for n in ("0", "-5"):
        code, out, err = run_cli(capsys, "curlicue", "--x", "0.5", "--N", n)
        assert code == 3 and out == "" and "domain" in err
    # usage: curlicue's stride and required --x
    code, _, _ = run_cli(capsys, "curlicue", "--x", "0.5", "--N", "10", "--stride", "0")
    assert code == 2
    code, _, err = run_cli(capsys, "curlicue", "--theta", "0", "--N", "10")
    assert code == 2 and "--x is required" in err
    # a usage error wins over bad digits; bad digits win over a bad stride
    code, _, _ = run_cli(capsys, "table1", "--digits", "5")
    assert code == 2
    code, _, _ = run_cli(capsys, "curlicue", "--x", "0.5", "--N", "10", "--stride", "0",
                         "--digits", "5")
    assert code == 3
    # help exits 0
    code, _, _ = run_cli(capsys, "--help")
    assert code == 0


def test_no_partial_output_on_error(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, err = run_cli(capsys, "sum", "--x", "2", "--N", "4",
                             "--out", str(target))
    assert code == 3
    assert not target.exists()
    assert out == ""
    # table rows are generated while the output is being written: the
    # failure leaves neither the target nor a temporary file behind
    for out_args in (["--out", str(target)], []):
        code, out, err = run_cli(capsys, "table1", "--x", "2", "--N", "4", *out_args)
        assert code == 3 and out == ""
        assert list(tmp_path.iterdir()) == []
    # an --out that cannot be written, in a missing directory or naming a
    # directory, is a usage error in one line, and leaves no temporary file
    directory = tmp_path / "dir"
    directory.mkdir()
    for path in (tmp_path / "missing" / "out.json", directory):
        code, out, err = run_cli(capsys, "sum", "--x", "0.5", "--N", "4", "--out", str(path))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and str(path) in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == [directory] and list(directory.iterdir()) == []


def test_out_file_writing(tmp_path, capsys):
    target = tmp_path / "row.csv"
    code, out, err = run_cli(capsys, "sum", "--x", "0.5", "--theta", "0",
                             "--N", "4", "--format", "csv", "--out", str(target))
    assert code == 0 and out == ""
    text = target.read_text(encoding="ascii")
    assert text.startswith("method,")


def test_curlicue_json_is_one_document_across_chunks(capsys):
    # 2101 points span 33 chunks of 64 formatted rows
    code, out, err = run_cli(capsys, "curlicue", "--x", "0.37", "--theta", "0.1",
                             "--N", "2100", "--digits", "16")
    assert code == 0, err
    doc = json.loads(out)
    assert len(doc) == 2101 and doc[-1]["j"] == 2100
    assert out == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 129])
def test_emit_json_bytes_equal_one_dumps(n):
    # chunks of 64 rows write the bytes one json.dumps of every row gives;
    # a list command writes a list however few rows it has
    args = build_parser().parse_args(["curlicue", "--x", "0.37", "--theta", "0.1",
                                      "--N", str(n)])
    rows = [{"j": j, "re": j / 3, "im": -j / 7, "tag": None} for j in range(n)]
    fh = io.StringIO()
    _emit(iter(rows), args, CTX.mp, fh)
    assert fh.getvalue() == json.dumps(rows, indent=2) + "\n"


@pytest.mark.parametrize("command", ["sum", "exact", "asym", "bench"])
def test_emit_one_row_command_writes_a_bare_object(command):
    args = build_parser().parse_args([command, "--x", "0.37", "--N", "5"])
    row = {"method": command, "value_re": 1 / 3, "tag": None}
    fh = io.StringIO()
    _emit(iter([row]), args, CTX.mp, fh)
    assert fh.getvalue() == json.dumps(row, indent=2) + "\n"


def test_curlicue_shorter_than_its_stride_is_a_list(capsys):
    # N < stride leaves the one point j = 0
    doc = run_json(capsys, "curlicue", "--x", "0.5", "--N", "5", "--stride", "10")
    assert doc == [{"j": 0, "re": "0.0", "im": "0.0"}]


def test_curlicue_prints_the_reference_loop_digits(capsys):
    doc = run_json(capsys, "curlicue", "--x", "0.37", "--theta", "0.1", "--N", "2100")
    mp = CTX.mp
    want = _expjpi_sums(mp.mpf("0.37"), mp.mpf("0.1"), 2100, mp, 1)
    assert [(row["j"], row["re"], row["im"]) for row in doc[1:]] == [
        (j, mp.nstr(s.real, 30, strip_zeros=False), mp.nstr(s.imag, 30, strip_zeros=False))
        for j, s in want]


def test_cli_import_does_not_load_inspect():
    # typing's NamedTuple records keep dataclasses, and with it inspect,
    # out of start-up
    src = os.path.dirname(os.path.dirname(quadgauss.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, quadgauss.cli; print('inspect' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


def test_curlicue_streams_its_output(tmp_path):
    # 10^5 points at 30 digits peaked at about 145 MB RSS when the whole
    # text was built before writing; written as formatted, the child stays
    # near its start-up size
    target = tmp_path / "track.json"
    script = ("import resource, sys\n"
              "from quadgauss.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
              "sys.exit(code)\n")
    src = os.path.dirname(os.path.dirname(quadgauss.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script, "curlicue", "--x", "0.37", "--theta", "0.1",
         "--N", "100000", "--digits", "30", "--out", str(target)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True)
    assert int(proc.stdout) < 64 * 1024  # KiB
    assert list(tmp_path.iterdir()) == [target]
    with open(target, encoding="ascii") as fh:
        doc = json.load(fh)
    assert len(doc) == 100001 and doc[-1]["j"] == 100000


def test_closed_stdout_exits_141_without_traceback():
    # the reader takes one line and closes the pipe, as `| head -1` does;
    # about 500 KB of rows overflow the pipe, so the copy to stdout fails
    src = os.path.dirname(os.path.dirname(quadgauss.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-c", "import sys\nfrom quadgauss.cli import main\n"
         "sys.exit(main(sys.argv[1:]))\n",
         "curlicue", "--x", "0.37", "--N", "5000", "--stride", "1"],
        env={**os.environ, "PYTHONPATH": src}, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE)
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    finally:
        proc.kill()
        proc.stderr.close()
    assert first == b"[\n"
    assert code == 141
    assert b"Traceback" not in err
