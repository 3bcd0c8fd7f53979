"""The benchmark's three workloads: seeded inputs, evaluation, reference checks.

Every workload draws a fixed list of inputs from its seed and the client
evaluates them in order, cycling when it reaches the end.  Inputs are
stratified (one draw per stratum of each varied parameter, strata in a
random order), so the cost mix of a run depends little on the seed.
Floating-point inputs are exact binary numbers, so a reference run at
raised precision sees the very same (x, theta).

Each output is checked after the timed loop by two tests:

* ``ok``: error within the reported bound plus the allowance for oracle
  noise, ``ORACLE_NOISE_FACTOR * eps * N`` (the allowance the README and
  ``quadgauss bench`` use);
* ``cert``: error within the reported bound plus rounding of the
  delivered result only, with no N-scaled term.  The known certificate
  gaps (large-N phase round-off, bounds attained to 4 figures) show up
  here and are counted, not hidden.
"""

from __future__ import annotations

import fractions
import json
import math
import os
import random
import sys

DIGITS = 30
REF_DIGITS = 2 * DIGITS  # reference expansion run
ORACLE_DIGITS = DIGITS + 15  # reference direct sums
TABLE_DIGITS = 50

# Kept here, not read from the program, so the program cannot loosen it.
ORACLE_NOISE_FACTOR = 10**4
# Rounding of a library result: this many units in the last place of the
# working precision, relative to max(1, |reference|).
ROUNDING_ULPS = 64

CLI_CYCLES = 8
ORACLE_MAX_N = 15000

# Published study columns, compared at 3 significant figures.
COL1_ERRORS = {1: "2.216e-4", 2: "5.642e-7", 3: "2.346e-9", 4: "1.369e-11",
               6: "9.569e-16", 8: "1.334e-19", 10: "3.096e-23"}
COL2_ERRORS = {1: "1.198e-4", 2: "2.527e-7", 3: "8.332e-10", 4: "3.752e-12",
               6: "1.509e-16", 8: "1.194e-20", 10: "1.568e-24"}
COL3_ERRORS = {1: "1.386e-5", 2: "1.221e-8", 3: "1.590e-11", 4: "2.708e-14",
               6: "1.420e-19", 8: "1.360e-24", 10: "2.082e-29"}
COL1_BOUNDS = {1: "4.062e-4", 2: "7.077e-7", 4: "1.435e-11",
               6: "9.691e-16", 8: "1.339e-19", 10: "3.100e-23"}
COL2_RN = {1: "1.200e-4", 2: "2.527e-7", 4: "3.752e-12",
           6: "1.509e-16", 8: "1.194e-20", 10: "1.574e-24"}
COL2_BOUNDS = {1: "3.272e-4", 2: "4.137e-7", 4: "4.309e-12",
               6: "1.570e-16", 8: "1.208e-20", 10: "1.574e-24"}
TABLE1_NS = (1, 2, 3, 4, 6, 8, 10)
TABLE2_NS = (1, 2, 4, 6, 8, 10)
# (command, preset) -> (n -> published |R_n|, n -> published bound or None)
PUBLISHED = {
    ("table1", "col1"): ({n: COL1_ERRORS[n] for n in TABLE1_NS}, None),
    ("table1", "col2"): ({n: COL2_ERRORS[n] for n in TABLE1_NS}, None),
    ("table1", "col3a"): ({n: COL3_ERRORS[n] for n in TABLE1_NS}, None),
    ("table2", "col1"): ({n: COL1_ERRORS[n] for n in TABLE2_NS}, COL1_BOUNDS),
    ("table2", "col2"): (COL2_RN, COL2_BOUNDS),
    ("table2", "col3a"): ({n: COL3_ERRORS[n] for n in TABLE2_NS}, None),
}


class ProgramMissing(Exception):
    pass


def load_program(root):
    """Import quadgauss from ``root/src``, never from anywhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "quadgauss", "__init__.py")):
        raise ProgramMissing(f"no quadgauss package under {src}")
    sys.path.insert(0, src)
    import quadgauss
    import quadgauss.cli

    if not os.path.abspath(quadgauss.__file__).startswith(os.path.abspath(src)):
        raise ProgramMissing(f"quadgauss imported from {quadgauss.__file__}")
    return quadgauss


# Odd, so k -> k * LATTICE % count is a permutation for a power-of-two count.
LATTICE = 39


def _lattice(rng, count, dims):
    """``count`` points in [0, 1)^dims, one per stratum of every coordinate.

    Point k sits in stratum k * LATTICE**d % count of coordinate d (a rank-1
    lattice), jittered within it, and the points come in random order.
    Which strata pair up is fixed, so the cost mix of the inputs does not
    depend on the seed; returns (k, coordinates) pairs.
    """
    points = [(k, [((k * LATTICE ** d) % count + rng.random()) / count
                   for d in range(dims)]) for k in range(count)]
    rng.shuffle(points)
    return points


def _sig3(value):
    return f"{float(value):.2e}"


class Check:
    """Outcome of checking one output: ``ok`` and ``cert`` as above.

    An output that fails ``ok`` also misses its certificate."""

    __slots__ = ("ok", "cert", "err")

    def __init__(self, ok, cert, err=None):
        self.ok = ok
        self.cert = cert and ok
        self.err = err


FAILED = Check(False, False)


class AsymSweep:
    """asymptotic_sum on N log-uniform in [1e4, 1e12], x = c/N."""

    name = "asym_sweep"
    cycle = 64  # inputs; the client cycles through them

    def __init__(self, qg):
        self.qg = qg
        self.ctx = qg.PrecisionContext(DIGITS)
        self.ref_ctx = qg.PrecisionContext(REF_DIGITS)
        self.oracle_ctx = qg.PrecisionContext(ORACLE_DIGITS)

    def inputs(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        out = []
        for k, (u_c, u_n, u_t) in _lattice(rng, self.cycle, 3):
            c = 2 * 1000 ** u_c
            N = round(10 ** (4 + 8 * u_n))
            out.append((c / N, u_t - 0.5, N, (4, 6, 8)[k % 3]))
        return out

    def warmup(self):
        qg = self.qg
        params = qg.GaussParams("0.0000173", "0.25", 10**6, self.ctx)
        qg.asymptotic_sum(params, 8, self.ctx)

    def evaluate(self, inp):
        x, theta, N, n = inp
        qg = self.qg
        report = qg.asymptotic_sum(qg.GaussParams(x, theta, N, self.ctx), n, self.ctx)
        return report.value, report.remainder_bound

    def reference(self, inp):
        x, theta, N, n = inp
        qg = self.qg
        report = qg.asymptotic_sum(qg.GaussParams(x, theta, N, self.ref_ctx), n + 4,
                                   self.ref_ctx)
        oracle = None
        if N <= ORACLE_MAX_N:
            oracle = qg.direct_sum(qg.GaussParams(x, theta, N, self.oracle_ctx))
        return report.value, report.remainder_bound, oracle

    def check(self, inp, out, ref):
        value, bound = out
        ref_value, ref_bound, oracle = ref
        mp = self.ref_ctx.mp
        N = inp[2]
        noise = ORACLE_NOISE_FACTOR * self.ctx.eps * N
        rounding = ROUNDING_ULPS * self.ctx.mp.eps * max(1, abs(ref_value))
        err = abs(mp.mpc(value) - ref_value)
        ok = err <= bound + ref_bound + noise
        cert = err <= bound + ref_bound + rounding
        if oracle is not None:
            err_o = abs(mp.mpc(value) - oracle)
            ok = ok and err_o <= bound + noise
            cert = cert and err_o <= bound + rounding
        return Check(ok, cert, err)


class ExactSweep:
    """exact_sum_detail on x log-uniform in [0.005, 0.9], N x + theta <= 300."""

    name = "exact_sweep"
    cycle = 64

    def __init__(self, qg):
        self.qg = qg
        self.ctx = qg.PrecisionContext(DIGITS)
        self.oracle_ctx = qg.PrecisionContext(ORACLE_DIGITS)

    def inputs(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        out = []
        for k, (u_x, u_n, u_t) in _lattice(rng, self.cycle, 3):
            x = 0.005 * 180 ** u_x
            theta = u_t - 0.5
            n_max = min(3000, math.floor((300 - fractions.Fraction(theta))
                                         / fractions.Fraction(x)))
            N = max(1, math.floor(n_max ** u_n))
            out.append((x, theta, N, (None, "1e-20")[k % 2]))
        return out

    def warmup(self):
        qg = self.qg
        params = qg.GaussParams("0.01", "0.3", 100, self.ctx)
        qg.exact_sum_detail(params, qg.TailPolicy("1e-22"), self.ctx)

    def evaluate(self, inp):
        x, theta, N, tol = inp
        qg = self.qg
        value, upper, lower = qg.exact_sum_detail(
            qg.GaussParams(x, theta, N, self.ctx), qg.TailPolicy(tol), self.ctx)
        return value, upper.tail_bound + lower.tail_bound

    def reference(self, inp):
        x, theta, N, _ = inp
        qg = self.qg
        return qg.direct_sum(qg.GaussParams(x, theta, N, self.oracle_ctx))

    def check(self, inp, out, ref):
        value, bound = out
        mp = self.oracle_ctx.mp
        noise = ORACLE_NOISE_FACTOR * self.ctx.eps * inp[2]
        rounding = ROUNDING_ULPS * self.ctx.mp.eps * max(1, abs(ref))
        err = abs(mp.mpc(value) - ref)
        return Check(err <= bound + noise, err <= bound + rounding, err)


def _dyadic_str(k, bits=16):
    """k / 2**bits for 0 <= k < 2**bits as an exact decimal string."""
    return f"0.{k * 5**bits:0{bits}d}"


class PaperCli:
    """quadgauss.cli.main on the README's reproduction commands, in process.

    One cycle is table1 and table2 on col1, col2 and col3a at digits 50,
    then a seeded ``sum`` and a seeded ``curlicue`` (stride 10).
    """

    name = "paper_cli"
    cycle = 8  # commands in one cycle; the traced run repeats the first cycle

    def __init__(self, qg, out_path):
        self.qg = qg
        self.out_path = out_path
        self.oracle_ctx = qg.PrecisionContext(ORACLE_DIGITS)
        self.ctx = qg.PrecisionContext(DIGITS)

    def inputs(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        out = []
        for _, (u,) in _lattice(rng, CLI_CYCLES, 1):
            for table in ("table1", "table2"):
                for preset in ("col1", "col2", "col3a"):
                    out.append((table, preset))
            # a long sum goes with a short curlicue, so cycles cost alike
            for command, N in (("sum", 3000 + math.floor(7001 * u)),
                               ("curlicue", 10 * (1000 - math.floor(501 * u)))):
                x = _dyadic_str(rng.randrange(1, 2**16))
                m = rng.randrange(-2**15, 2**15)
                theta = ("-" if m < 0 else "") + _dyadic_str(abs(m))
                out.append((command, x, theta, N))
        return out

    def warmup(self):
        self._run(["asym", "--x", "1/(250*sqrt(pi))", "--theta=-0.125",
                   "--N", "7300", "--n", "4", "--digits", "50"])

    def _argv(self, inp):
        if inp[0] in ("table1", "table2"):
            return [inp[0], "--preset", inp[1], "--digits", str(TABLE_DIGITS)]
        command, x, theta, N = inp
        argv = [command, "--x", x, f"--theta={theta}", "--N", str(N)]
        return argv + (["--stride", "10"] if command == "curlicue" else [])

    def _run(self, argv):
        rc = self.qg.cli.main(argv + ["--out", self.out_path])
        if rc != 0:
            return rc, None
        with open(self.out_path, encoding="ascii") as fh:
            return rc, fh.read()

    def evaluate(self, inp):
        return self._run(self._argv(inp))

    def reference(self, inp):
        if inp[0] in ("table1", "table2"):
            return None
        _, x, theta, N = inp
        qg, ctx = self.qg, self.oracle_ctx
        mp = ctx.mp
        return qg.direct_sum(qg.GaussParams(mp.mpf(x), mp.mpf(theta), N, ctx))

    def check(self, inp, out, ref):
        rc, text = out
        if rc != 0:
            return FAILED
        mp = self.oracle_ctx.mp
        doc = json.loads(text)
        if inp[0] in ("table1", "table2"):
            published_rn, published_bound = PUBLISHED[inp]
            rows = {row["n"]: row for row in doc}
            if sorted(rows) != sorted(published_rn):
                return FAILED
            ok = cert = True
            for n, row in rows.items():
                rn, bound = mp.mpf(row["abs_Rn"]), mp.mpf(row["bound"])
                ok = ok and _sig3(rn) == _sig3(published_rn[n])
                if published_bound is not None:
                    ok = ok and _sig3(bound) == _sig3(published_bound[n])
                cert = cert and rn <= bound
            return Check(ok and cert, cert)
        last = doc if inp[0] == "sum" else doc[-1]
        if inp[0] == "curlicue" and last["j"] != inp[3]:
            return FAILED
        keys = ("value_re", "value_im") if inp[0] == "sum" else ("re", "im")
        value = mp.mpc(mp.mpf(last[keys[0]]), mp.mpf(last[keys[1]]))
        err = abs(value - ref)
        noise = ORACLE_NOISE_FACTOR * self.ctx.eps * inp[3]
        # printed to DIGITS significant digits: that is the delivered rounding
        rounding = self.ctx.eps * max(1, abs(ref))
        return Check(err <= noise, err <= rounding, err)


WORKLOADS = {
    "asym_sweep": AsymSweep,
    "exact_sweep": ExactSweep,
    "paper_cli": PaperCli,
}


def scratch_dir(root):
    """The directory, inside the checkout, for command output and spans."""
    path = os.path.join(root, ".qgbench_out")
    os.makedirs(path, exist_ok=True)
    return path


def make(name, qg, out_path):
    """Instantiate a workload: the contexts are part of its set-up."""
    if name == "paper_cli":
        return PaperCli(qg, out_path)
    return WORKLOADS[name](qg)
