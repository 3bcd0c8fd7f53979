"""Timings of the chirp short sum: against the phase loop per term count,
and both routes at large M, this checkout against a parent checkout.

Run from the root of a checkout:

    python3 tools/bench_chirp.py PARENT_DIR OUT.json

``switch``: CPU time of ``core._chirp_sum`` and ``core.phase_sum`` on the
renormalized arguments (-1/x, theta/x) of x = 3 2^-16 (its mantissa
filled), theta = -0.17, at digits 30 and 50, the median of repeats, the
two calls of a repeat one right after the other.  It records why the
routes have no switch between the two: the loop is faster only below
about 47 terms at digits 30 and 30-40 at digits 50, by tens of
microseconds a call (at digits 30, two runs on a 2-core machine: 45-80
at 1-10 terms, 15-30 at 30 terms, even at 47), so the routes' short sum
is the chirp at every length.
``large``: CPU time and value of ``asym`` (n = 10) and ``exact`` at
x = 3 2^-16, theta = -0.17 and M = N x of 10^4 .. 4.58 10^6, each side in
its own process, the parent first, with the error of each against the
periodicity oracle of ``tests/_utils.py`` 20 digits higher.
"""

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NS = (1, 2, 4, 10, 16, 24, 30, 32, 40, 47, 48, 56, 64, 96, 128, 256, 10**3, 10**4, 10**5,
      10**6)
# N with M = N x about 10^4, 10^5, 10^6 and 4.58 10^6 at x = 3 2^-16
LARGE = (218453333, 2184533333, 21845333333, 10**11 + 7)


def cpu(f):
    t0 = time.process_time()
    f()
    return time.process_time() - t0


def switch():
    sys.path.insert(0, os.path.join(HERE, "src"))
    from quadgauss import PrecisionContext, phase_sum
    from quadgauss.core import _chirp_sum
    rows = []
    for digits in (30, 50):
        mp = PrecisionContext(digits).mp
        x = mp.mpf(3) / 2**16 * (1 - mp.mpf(2) ** -20 / 3)
        with mp.extraprec(80):
            a, b = -1 / x, mp.mpf(-0.17) / x
        for n in NS:
            reps = max(1, min(101, 20000 // n))
            loop_reps = max(1, reps // 10 if n > 10**4 else reps)
            chirps, loops = [], []
            for r in range(reps):  # interleaved, so the machine's drift reaches both
                chirps.append(cpu(lambda: _chirp_sum(a, b, n, mp)))
                if r < loop_reps:
                    loops.append(cpu(lambda: phase_sum(a, b, n, mp)))
            chirp, loop = statistics.median(chirps), statistics.median(loops)
            rows.append({"digits": digits, "n": n, "chirp_ms": round(chirp * 1e3, 4),
                         "loop_ms": round(loop * 1e3, 4), "loop_over_chirp": round(loop / chirp, 2)})
            print(rows[-1], flush=True)
    return rows


def large():
    """One side's asym and exact at each size, in this process."""
    sys.path.insert(0, os.path.join(HERE, "tests"))
    from _utils import periodic_sum
    from quadgauss import GaussParams, PrecisionContext, asymptotic_sum, exact_sum_detail
    ctx, ref = PrecisionContext(30), PrecisionContext(50)
    rows = []
    for N in LARGE:
        params = GaussParams(ctx.mp.mpf(3) / 2**16, -0.17, N, ctx)
        S = periodic_sum(3, 16, params.theta, N, ref)
        row = {"M": params.whole, "N": N}
        for route in ("asym", "exact"):
            t0 = time.process_time()
            if route == "asym":
                rep = asymptotic_sum(params, 10)
                value, bound = rep.value, rep.remainder_bound
            else:
                value, upper, lower = exact_sum_detail(params)
                bound = upper.tail_bound + lower.tail_bound
            row[route] = {"cpu_s": round(time.process_time() - t0, 3), "value": str(value),
                          "error": ctx.mp.nstr(abs(S - value), 6),
                          "bound": ctx.mp.nstr(bound, 6)}
        rows.append(row)
    return rows


def main():
    if sys.argv[1:] == ["--large"]:
        print(json.dumps(large()))
        return
    parent, out = sys.argv[1:]
    result = {"switch": switch(), "large": {}}
    for side, root in (("parent", parent), ("change", HERE)):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "tools", "bench_chirp.py"),
                               "--large"], cwd=root, capture_output=True, text=True, check=True,
                              env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")))
        result["large"][side] = json.loads(proc.stdout.splitlines()[-1])
        print(side, result["large"][side], flush=True)
    with open(out, "w") as fh:
        json.dump(result, fh, indent=1)


if __name__ == "__main__":
    main()
