"""One fresh benchmark process: import stark-lab, build the inputs, run ops.

    python3 perfbench/worker.py --workload W --seed N --mode setup
    python3 perfbench/worker.py --workload W --seed N --mode run --ops K \
        [--trace-out PATH]

The worker prints one JSON object on stdout: the monotonic clock reading
when set-up finished, and for `run` one record per op. The parent process
(run.py) times set-up from just before it started this process, and checks
the verdicts against reference.json. `--ops` runs the first K ops of the
stream; `--trace-out` wraps the traced layers and writes the spans.
"""

import argparse
import itertools
import json
import math
import os
import resource
import sys
import time
from fractions import Fraction

from mpmath.libmp import from_int, mpf_add, mpf_div, mpf_mul, mpf_sqrt

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def load_program():
    """Import starklab from the checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "starklab", "__init__.py")):
        raise SystemExit(f"no stark-lab sources under {src}")
    sys.path.insert(0, src)
    import starklab
    from starklab import verify
    return starklab, verify


def _bits_of(radius_text):
    r = float(radius_text)
    return -math.log2(r) if r > 0 else None


def run_op(verify, op):
    """Run one op through the public API; returns its outcome record.

    A raised exception is the outcome "error" with the exception type; the
    op is not retried and the run goes on.
    """
    try:
        if op["kind"] == "acnf":
            summary = verify.run_acnf(op["D"], op["D"])
            rec = {"outcome": "ok", "verdicts": {"acnf": "pass"},
                   "counts": [summary["positive"], summary["negative"]]}
            radii = [summary["max_positive_residual"]] if op["D"] > 0 else []
        else:
            cert = verify.run_scenario(verify.Scenario(op["spec"]))
            rec = {"outcome": "ok", "exit_code": cert["exit_code"],
                   "verdicts": {e["check"]: e["verdict"]
                                for e in cert["results"]}}
            if "datum_error" in cert:
                rec["verdicts"] = {"datum": "error"}
            radii = [e[k] for e in cert["results"]
                     for k in ("max_radius", "residual_radius") if e.get(k)]
    except Exception as exc:  # counted as a failed op; the run continues
        return {"outcome": "error", "exception": type(exc).__name__}
    bits = [b for b in map(_bits_of, radii) if b is not None]
    if bits:
        rec["cert_bits"] = min(bits)
    return rec


def speed_sample():
    """Seconds taken by a fixed piece of work that the benchmark owns: 128-bit
    mpmath arithmetic (the low-level functions stark-lab's balls are built
    on), Gaussian elimination over Fractions and dict-keyed products (like
    its exact algebra and group rings). It calls no stark-lab code, so a
    change to the program leaves it alone, while a slower or faster machine
    moves it as it moves the ops."""
    t = time.perf_counter()
    one = from_int(1)
    x = one
    for k in range(2, 400):
        y = from_int(k)
        x = mpf_div(mpf_add(mpf_mul(x, y, 128, "n"), one, 128, "n"),
                    mpf_sqrt(y, 128, "n"), 128, "n")
    n = 10
    m = [[Fraction((i * 7 + j * j * 3 + 1) % 23 - 11 + (i == j) * 40)
          for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    elt = {(i % 7, i % 5): i - 17 for i in range(35)}
    for _ in range(5):
        prod = {}
        for (g1, h1), c1 in elt.items():
            for (g2, h2), c2 in elt.items():
                key = ((g1 + g2) % 7, (h1 * h2) % 5)
                prod[key] = prod.get(key, 0) + c1 * c2
    return time.perf_counter() - t


def run_ops(verify, ops, tracer=None):
    """Closed loop, one client: run ops back to back, with a speed sample
    before the first op and after every op. Each record gets the mean of
    the samples on either side of it as `speed_s`. Returns (records, loop
    wall seconds without the samples)."""
    records = []
    after = speed_sample()
    sampling = 0.0
    t0 = time.perf_counter()
    for op in ops:
        before = after
        span = tracer.begin("op") if tracer else None
        t = time.perf_counter()
        rec = run_op(verify, op)
        rec["latency_s"] = time.perf_counter() - t
        if tracer:
            tracer.finish(span)
        after = speed_sample()
        sampling += after
        rec["speed_s"] = (before + after) / 2
        rec["op"] = op
        records.append(rec)
    return records, time.perf_counter() - t0 - sampling


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--ops", type=int)
    ap.add_argument("--trace-out")
    args = ap.parse_args(argv)

    starklab, verify = load_program()
    import workloads
    ops = itertools.islice(workloads.stream(args.workload, args.seed),
                           args.ops)
    out = {"setup_done": time.monotonic()}
    if args.mode == "run":
        tracer = None
        if args.trace_out:
            import spans
            tracer = spans.Tracer()
            spans.install(tracer, starklab)
        records, wall = run_ops(verify, ops, tracer=tracer)
        out.update(records=records, wall_s=wall,
                   mpmath_backend=sys.modules["mpmath"].libmp.BACKEND,
                   peak_rss_kib=resource.getrusage(
                       resource.RUSAGE_SELF).ru_maxrss)
        if tracer:
            out["layers"] = spans.aggregate(tracer)
            spans.write(tracer, args.trace_out,
                        {"workload": args.workload, "seed": args.seed,
                         "ops": len(records)})
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
