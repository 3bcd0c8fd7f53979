"""Mutation check of the precision constants: which tests see each guard.

Run from the root of a checkout:

    python3 tools/mutants.py OUT.json [--full]

Each entry of ``MUTANTS`` and ``MARGINS`` is one exact string replacement
in one file of ``src/quadgauss``: a guard cut down, a read-in taken at
fewer bits, a stop moved.  ``old`` must occur exactly once in its file,
or the tool refuses to run (``tests/test_mutants.py`` checks the same in
tier-1, so an edit that moves a constant fails there first).  For each
entry the tool copies ``src/``, ``tests/`` and ``pyproject.toml`` into a
temporary directory, applies the replacement, and runs the entry's
``tests`` there, or all of tier-1 when it names none or with ``--full``,
in a subprocess.  The run is ``killed`` when a test fails (the report
names the failing tests), ``survived`` when all pass, and ``timeout``
when it takes more than three times the unmutated tree's own run of the
same tests plus a minute.  The unmutated tree is run first, and must
pass.  At most as many runs go at once as the machine has cores, and
nothing is written into the checkout but OUT.json.

``MUTANTS`` must all be killed (a ``timeout`` counts: a cut that makes a
loop run on is seen).  ``MARGINS`` are expected to survive, each for the
reason its ``why`` gives: float rounding in a proof that no input the API
accepts reaches.  No test pins their value.  The tool exits 1 when an
entry of ``MUTANTS`` survives.

Integer constants that are not guards are left out: the phase table's
size ``_TABLE_BITS``, the term and layer budgets, the unit offsets of
exact integer encodings (the Euler--Maclaurin ratios' 2^6), the two
integer bits of pi in ``_kummer``'s r2 = pi q and the tolerance
``TailPolicy`` defaults to.
"""

import argparse
import concurrent.futures
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# this file's own check reads the unmutated list, so no mutant runs it
SELF_TEST = "tests/test_mutants.py"


class Mutant(NamedTuple):
    file: str  # under src/quadgauss
    old: str
    new: str
    why: str
    tests: tuple = ()  # pytest paths or node ids; () runs all of tier-1


_KERNEL = ("tests/test_special.py",)
_LOOP = ("tests/test_core.py",)

MUTANTS = [
    Mutant("special.py", "_GUARD = 16", "_GUARD = 8",
           "half the engines' guard bits", _KERNEL),
    Mutant("special.py", "_GUARD = 16", "_GUARD = 4",
           "a quarter of the engines' guard bits", _KERNEL),
    Mutant("special.py", "return (prec + _GUARD // 2) * _LN2 + 1", "return prec * _LN2 + 1",
           "the large-t series from where its least term is not yet below its stop",
           _KERNEL),
    Mutant("special.py", "Q = F + 3 * prec.bit_length()", "Q = F",
           "_large_t's integer sums without the bits of their T^3 floors", _KERNEL),
    Mutant("special.py", "    F = prec + _GUARD\n    Q = F", "    F = prec\n    Q = F",
           "_large_t's 1/(2 r2) and lead at the working precision", _KERNEL),
    Mutant("special.py", "stop = 1 << (Q - prec - _GUARD // 2)", "stop = 1 << (Q - prec)",
           "_large_t stops at 2^-prec of its leading term", _KERNEL),
    Mutant("special.py", "    F = prec + _GUARD + prec.bit_length()\n",
           "    F = prec + 4\n",
           "_kummer's result and r2 at 4 guard bits", _KERNEL),
    Mutant("special.py", "    F = prec + _GUARD + prec.bit_length()\n",
           "    F = prec + _GUARD\n",
           "_kummer without the bits of its factor v^2 ~ prec", _KERNEL),
    Mutant("special.py", "Q = F + (6 * int(size) + F).bit_length() + 4", "Q = F",
           "_kummer's integer sums without the bits of their term count", _KERNEL),
    Mutant("special.py", "t = mpf_pos(t, prec + _GUARD, round_nearest)",
           "t = mpf_pos(t, prec, round_nearest)",
           "erfc_kernel reads t at the working precision", _KERNEL),
    Mutant("special.py", "q = mpf_div(tt, x, prec + _GUARD, round_nearest)",
           "q = mpf_div(tt, x, prec, round_nearest)",
           "erfc_kernel forms t^2/x at the working precision", _KERNEL),
    Mutant("special.py", "    P = prec + _GUARD\n    tiny", "    P = prec + 4\n    tiny",
           "the zeta walk at 4 guard bits", _KERNEL),
    Mutant("special.py", "tiny = 1 << (_GUARD // 2)", "tiny = 1 << _GUARD",
           "the zeta walk's corrections stop at 2^-prec", _KERNEL),
    Mutant("special.py", "    K = max(10, prec // 6)\n", "    K = max(10, prec // 8)\n",
           "the zeta walk's head below its derivation", _KERNEL),
    Mutant("special.py", "max(0, -2 * mp.mag(lam)) + 10", "max(0, -2 * mp.mag(lam))",
           "cot_pi_reg without its extra bits", _KERNEL),
    Mutant("core.py", "B = prec + count.bit_length() + 20", "B = prec + count.bit_length() + 2",
           "the phase kernel with 2 guard bits", _LOOP),
    Mutant("core.py", "F = B + 2 * count.bit_length() + 4", "F = B + 6",
           "the phase read-in without the bits of count^2", _LOOP),
    Mutant("core.py", "    guard = 16\n", "    guard = 4\n",
           "the cosine table's powers at 4 guard bits", _LOOP),
    Mutant("core.py", "F + 6 - B:", "F + 9 - B:",
           "the Taylor series stops at 2^(9-B)", _LOOP),
    Mutant("core.py", "width = (2 * B + L.bit_length() + 4 + 7) // 8",
           "width = (2 * B + 7) // 8",
           "the chirp's slots without room for the convolution's sums", _LOOP),
    Mutant("expansion.py", "with mp.extraprec(2 * (k0 + 1).bit_length() + 6):",
           "with mp.extraprec(0):",
           "_digamma_gap without guard bits for its cancellation",
           ("tests/test_expansion.py",)),
    Mutant("expansion.py", "extra = max(0, mp.mag(max(1, whole) ** 2 / x))", "extra = 0",
           "_renorm_term forms -1/x and theta/x at the working precision"),
    Mutant("precision.py", "GUARD_DIGITS = 15", "GUARD_DIGITS = 3",
           "the context's guard digits cut to 3"),
]

MARGINS = [
    Mutant("exact.py", "log_tol = float(_MP.log(tol)) - 2.0 ** -20",
           "log_tol = float(_MP.log(tol))",
           "_window's 2^-20 covers the rounding of layer bounds that sit within "
           "float rounding of tol, which no constructible input reaches",
           ("tests/test_exact.py",)),
    Mutant("exact.py", "best = min(best, log_u + scale * 2.0 ** -40)",
           "best = min(best, log_u)",
           "_log_layer_ceiling's 2^-40 covers the float rounding of its sum of "
           "logarithms, which no constructible input reaches",
           ("tests/test_exact.py",)),
]


def _path(entry):
    return os.path.join("src", "quadgauss", entry.file)


def check():
    """Raise ValueError unless every entry's ``old`` occurs exactly once and
    differs from its ``new``."""
    for entry in MUTANTS + MARGINS:
        with open(os.path.join(HERE, _path(entry)), encoding="utf-8") as fh:
            count = fh.read().count(entry.old)
        if count != 1 or entry.old == entry.new:
            raise ValueError(f"{entry.file}: {entry.old!r} occurs {count} times")


def _copy(tmp):
    for part in ("src", "tests"):
        shutil.copytree(os.path.join(HERE, part), os.path.join(tmp, part),
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(HERE, "pyproject.toml"), tmp)


def _pytest(tmp, tests, timeout):
    """(status, failed test ids, seconds) of one pytest run in tmp."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
           "--continue-on-collection-errors", f"--ignore={SELF_TEST}", *tests]
    start = time.monotonic()
    try:
        out = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, text=True,
                             timeout=timeout).stdout
    except subprocess.TimeoutExpired:
        return "timeout", [], round(time.monotonic() - start, 1)
    seconds = round(time.monotonic() - start, 1)
    failed = re.findall(r"^(?:FAILED|ERROR) (\S+)", out, re.M)
    if failed or not re.search(r"\d+ passed", out):
        return "killed", failed or [out.strip().splitlines()[-1]], seconds
    return "survived", [], seconds


def run(entry, tests, timeout):
    """One mutant in its own temporary copy."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        _copy(tmp)
        path = os.path.join(tmp, _path(entry))
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace(entry.old, entry.new, 1))
        return _pytest(tmp, tests, timeout)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("out")
    parser.add_argument("--full", action="store_true",
                        help="run all of tier-1 for every entry")
    args = parser.parse_args()
    check()
    entries = [(e, e in MARGINS) for e in MUTANTS + MARGINS]
    suites = {() if args.full else e.tests for e, _ in entries}
    base = {}
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        _copy(tmp)
        for tests in suites:
            status, failed, seconds = _pytest(tmp, tests, None)
            if status != "survived":
                sys.exit(f"the unmutated tree fails {list(tests) or 'tier-1'}: {failed}")
            base[tests] = seconds
            print("unmutated", list(tests) or "tier-1", f"{seconds} s", flush=True)
    report = []
    with concurrent.futures.ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        jobs = []
        for entry, margin in entries:
            tests = () if args.full else entry.tests
            jobs.append(pool.submit(run, entry, tests, 3 * base[tests] + 60))
        for (entry, margin), job in zip(entries, jobs):
            status, failed, seconds = job.result()
            row = {**entry._asdict(), "tests": list(entry.tests), "margin": margin,
                   "ran": "tier-1" if args.full or not entry.tests else "tests",
                   "status": status, "killed_by": failed, "seconds": seconds}
            report.append(row)
            print(f"{status:9s} {len(failed):3d} {entry.file}: {entry.why}", flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"unmutated_seconds": {" ".join(k) or "tier-1": v for k, v in base.items()},
                   "mutants": report}, fh, indent=1)
        fh.write("\n")
    if any(r["status"] == "survived" and not r["margin"] for r in report):
        sys.exit(1)


if __name__ == "__main__":
    main()
