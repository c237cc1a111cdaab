"""Where one benchmark run's op time goes, under cProfile in one process.

    python tests/op_profile.py WORKLOAD [--seed N] [--sort KEY] [--top K]
                               [--match REGEX] [--callers REGEX]
                               [--decile D]

runs the ops of a default benchmark run of WORKLOAD: the first
`run.op_count(WORKLOAD, 22)` ops of the seeded stream
`workloads.stream(WORKLOAD, N)` (seed 1 by default), back to back through
the worker's `run_op`, with the profiler on only while an op runs.  It
prints the K functions (25 by default) that lead by KEY, any `pstats` sort
key (`cumulative` by default), restricted to the names that REGEX matches
when given; with --callers, the `pstats` callers of each function whose
name that REGEX matches, with the calls and times that each caller spent
in it; then, for each stratum of the workload's pool, the number of its
ops, their total time and its share of the whole, and the mean op time.
The times are wall times under the profiler: they rank strata and
functions against each other, not against the benchmark's latencies.

Each op has its own profile.  With --decile D (1..9) the functions are
those of the merged profile of the ops at or above the D-th decile of the
run's op times, so `--decile 8` shows what the ops behind the
`latency_p90_ms` tail spend their time in; a line before the table names
how many ops were merged and the threshold.  Without it every op is
merged.

It imports perfbench's modules and changes nothing there; pytest does not
collect this file.
"""

import argparse
import cProfile
import itertools
import os
import pstats
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from starklab import verify  # noqa: E402


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--sort", default="cumulative")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--match", help="print only functions matching this")
    ap.add_argument("--callers", metavar="REGEX",
                    help="print the callers of the functions matching this")
    ap.add_argument("--decile", type=int, choices=range(1, 10),
                    metavar="D", help="merge only the ops at or above the "
                    "D-th decile of the op times")
    args = ap.parse_args(argv)

    count = run.op_count(args.workload, 22)
    stratum_of = {workloads.op_key(op): name
                  for name, _n, ops in workloads.pool(args.workload)
                  for op in ops}
    times = {}
    profiles = []
    for op in itertools.islice(workloads.stream(args.workload, args.seed),
                               count):
        prof = cProfile.Profile()
        t = time.perf_counter()
        prof.enable()
        worker.run_op(verify, op)
        prof.disable()
        elapsed = time.perf_counter() - t
        profiles.append((elapsed, prof))
        times.setdefault(stratum_of[workloads.op_key(op)], []).append(
            elapsed)

    if args.decile:
        cut = statistics.quantiles([t for t, _p in profiles],
                                   n=10)[args.decile - 1]
        profiles = [(t, p) for t, p in profiles if t >= cut]
        print(f"{len(profiles)} ops at or above decile {args.decile} "
              f"({1000 * cut:.3f} ms), "
              f"{sum(t for t, _p in profiles):.3f} s under the profiler")
    stats = pstats.Stats(*(p for _t, p in profiles)).strip_dirs()
    stats.sort_stats(args.sort)
    restrictions = [args.match] if args.match else []
    stats.print_stats(*restrictions, args.top)
    if args.callers:
        stats.print_callers(args.callers)
    total = sum(map(sum, times.values()))
    print(f"{args.workload}, seed {args.seed}: {count} ops, "
          f"{total:.3f} s under the profiler")
    print(f"{'stratum':<24}{'ops':>6}{'total s':>10}{'share':>8}"
          f"{'mean ms':>10}")
    for name, ts in sorted(times.items(), key=lambda kv: -sum(kv[1])):
        print(f"{name:<24}{len(ts):>6}{sum(ts):>10.3f}"
              f"{sum(ts) / total:>8.1%}{1000 * sum(ts) / len(ts):>10.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
