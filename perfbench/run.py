"""stark-lab benchmark: timed runs, correctness check and a traced run.

    python3 perfbench/run.py --workload acnf --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run it from the root of a checkout. Every run starts fresh worker
processes (perfbench/worker.py), so stark-lab's process-global caches start
cold, as they do for a CLI user. A worker runs ops back to back in a closed
loop with one client; no pool, no threads.

A run measures a fixed number of whole rounds of the seeded op stream
(workloads.py), sized from --seconds so that it lasts about that long at
the commit that defined the benchmark. The op count depends only on the
workload and --seconds, so every seed attempts the same number of ops,
meets the same number of crashing cells, and a faster program finishes
the same work sooner. Op latencies are scaled by speed samples taken
around each op (REFERENCE_SPEED_S below).
--trace 0 prints the end-to-end metrics: set-up is timed in SETUP_SAMPLES
fresh processes and reported as their median; then one worker runs the
ops.
--trace 1 prints the per-layer metrics: one worker runs TRACE_SHARE of
those ops untraced while a second runs the same ops with the layers
wrapped, and trace_overhead is the ratio of their loop times.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. `--workload all` prints both kinds of
metrics for every workload as tables instead.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import spans
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".perfbench")

SETUP_SAMPLES = 7
# worker.speed_sample() seconds on the 2-core VM the benchmark was defined
# on, in its usual state. The latency of each op is scaled by this over the
# mean of the speed samples taken on either side of it, so that it reads as
# if the machine had run at that speed throughout: the VM's host alternates
# within seconds between states about 1.7 times apart, which moved
# unscaled 22-second runs by up to 19% (IQR / median over ten seeds) and
# scaled ones by up to 10%. setup_s is not scaled: scaling it by samples
# taken just before a worker starts and just after its set-up did not
# make it steadier.
REFERENCE_SPEED_S = 0.011
# rounds of the op stream per second of --seconds, as measured at the
# commit that defined the benchmark (one worker on a 2-core VM)
ROUNDS_PER_S = {"acnf": 1.0, "rubin_stark": 0.75, "exact_algebra": 1.15}
# share of those rounds that each of the two side-by-side workers of
# --trace 1 runs
TRACE_SHARE = 0.7
# a run must end within 180 s; workers still alive at this point are killed
RUN_LIMIT_S = 170

PASS_FAIL = {"pass", "fail"}


class BenchError(RuntimeError):
    pass


def start(workload, seed, mode, *extra):
    """Start one worker process; returns (process, start time)."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode,
           *map(str, extra)]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    return proc, t0


def finish(proc, t0, deadline):
    """Wait for a worker until the monotonic `deadline`; returns its JSON
    output with `setup_s`, the seconds from just before the process started
    until it had imported starklab and built its inputs."""
    try:
        stdout, stderr = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker timed out: {' '.join(proc.args)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: "
                         f"{stderr.strip()[-2000:]}")
    out = json.loads(stdout.strip().splitlines()[-1])
    out["setup_s"] = out["setup_done"] - t0
    return out


def spawn(deadline, workload, seed, mode, *extra):
    return finish(*start(workload, seed, mode, *extra), deadline)


def judge(records, reference):
    """Mark each record failed or not against the reference outcomes.

    An op fails when its call raised or when a check flipped between pass
    and fail. A flip, or an ACNF op that no longer certifies, is also a
    wrong answer. Returns the number of wrong answers.
    """
    wrong = 0
    for rec in records:
        ref = reference.get(workloads.op_key(rec["op"]))
        if ref is None:
            raise BenchError(f"op missing from reference.json: {rec['op']}")
        flips = 0
        if rec["outcome"] == "ok" and ref["outcome"] == "ok":
            for check, was in ref["verdicts"].items():
                now = rec["verdicts"].get(check)
                if was in PASS_FAIL and now in PASS_FAIL and now != was:
                    flips += 1
            if rec.get("counts") != ref.get("counts"):
                flips += 1
        elif rec["op"]["kind"] == "acnf" and ref["outcome"] == "ok":
            flips += 1  # the ACNF verdict went from pass to a raise
        rec["failed"] = rec["outcome"] == "error" or flips > 0
        wrong += flips
    return wrong


def op_count(workload, seconds, share=1.0):
    """Ops in a run: whole rounds, so the mix is the same for every seed."""
    rounds = max(1, round(ROUNDS_PER_S[workload] * seconds * share))
    return rounds * workloads.round_size(workload)


def end_to_end(workload, seed, seconds, deadline):
    setups = [spawn(deadline, workload, seed, "setup")["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    out = spawn(deadline, workload, seed, "run",
                "--ops", op_count(workload, seconds))
    setups.append(out["setup_s"])
    records = out["records"]
    for r in records:
        r["scaled_s"] = r["latency_s"] * REFERENCE_SPEED_S / r["speed_s"]
    wrong = judge(records, workloads.load_reference(workload))
    done = [r for r in records if not r["failed"]]
    if len(done) < 2:
        raise BenchError(f"only {len(done)} ops completed")
    lat_ms = [r["scaled_s"] * 1e3 for r in done]
    # exact results certify no radius; a workload with none at all (as
    # exact_algebra) reports the 128 bits its ops request
    bits = [r["cert_bits"] for r in done if "cert_bits" in r] or [128]
    metrics = {
        "ops_per_s": (len(done) / sum(r["scaled_s"] for r in records),
                      "1/s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "latency_p90_ms": (statistics.quantiles(lat_ms, n=10)[8], "ms"),
        "ok_rate": (len(done) / len(records), "ratio"),
        "cert_bits_min": (min(bits), "bits"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (out["peak_rss_kib"] / 1024, "MiB"),
    }
    # the timings as the clock read them, before scaling
    raw_ms = [r["latency_s"] * 1e3 for r in done]
    raw = {"ops_per_s": len(done) / out["wall_s"],
           "latency_p50_ms": statistics.median(raw_ms),
           "latency_p90_ms": statistics.quantiles(raw_ms, n=10)[8]}
    info = {"completed": len(done), "setup_samples": setups,
            "unscaled": raw,
            "mpmath_backend": out["mpmath_backend"],
            "error_rate": 1 - len(done) / len(records),
            "exceptions": _exception_counts(records)}
    return records, wrong, metrics, info


def layer_metrics(layers):
    """Per-layer metrics from spans.aggregate output; a layer the run never
    called reports zero."""
    metrics = {}
    for module, attr, stats in spans.LAYERS:
        name = spans.layer_name(module, attr)
        rec = layers.get(name, {"calls": 0, "self_s": 0.0})
        for stat in stats:
            if stat == "calls":
                metrics[f"{name}.calls"] = (rec["calls"], "count")
            elif stat == "self_s":
                metrics[f"{name}.self_s"] = (rec["self_s"], "s")
            elif stat == "distinct_ratio":
                ratio = rec.get("distinct", 0) / rec["calls"] \
                    if rec["calls"] else 0.0
                metrics[f"{name}.distinct_ratio"] = (ratio, "ratio")
    return metrics


def per_layer(workload, seed, seconds, deadline):
    count = op_count(workload, seconds, TRACE_SHARE)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{workload}-{seed}.json")
    # side by side, so that both see the same machine load
    procs = [start(workload, seed, "run", "--ops", count),
             start(workload, seed, "run", "--ops", count, "--trace-out", path)]
    try:
        plain, traced = [finish(*p, deadline) for p in procs]
    finally:
        for proc, _t0 in procs:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    reference = workloads.load_reference(workload)
    wrong = judge(plain["records"], reference) \
        + judge(traced["records"], reference)
    metrics = layer_metrics(traced["layers"])
    metrics["trace_overhead"] = (traced["wall_s"] / plain["wall_s"], "ratio")
    info = {"completed": sum(not r["failed"] for r in plain["records"]),
            "trace_ops": count, "spans_file": os.path.relpath(path, ROOT),
            "mpmath_backend": plain["mpmath_backend"],
            "exceptions": _exception_counts(plain["records"])}
    return plain["records"], wrong, metrics, info


def _exception_counts(records):
    out = {}
    for r in records:
        if r["outcome"] == "error":
            out[r["exception"]] = out.get(r["exception"], 0) + 1
    return out


def provenance(workload, seed, ops, backend):
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or None
    except OSError:
        sha = None
    return {"git_sha": sha, "python": platform.python_version(),
            "mpmath_backend": backend,
            "nproc": os.cpu_count(), "seed": seed, "workload": workload,
            "ops": ops}


def measure(workload, seed, seconds, trace):
    fn = per_layer if trace else end_to_end
    deadline = time.monotonic() + RUN_LIMIT_S
    records, wrong, metrics, info = fn(workload, seed, seconds, deadline)
    result = {
        "correct": wrong == 0,
        "attempted": len(records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    info["provenance"] = provenance(workload, seed, len(records),
                                    info.pop("mpmath_backend"))
    return result, info


def _print_table(workload, trace, result, info):
    kind = "per-layer (traced run)" if trace else "end-to-end"
    print(f"== {workload}: {kind}; attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {result['correct']}")
    if not trace:
        print(f"   {'error_rate':<44} {info['error_rate']:>14.6g} ratio")
    for name, m in result["metrics"].items():
        print(f"   {name:<44} {m['value']:>14.6g} {m['unit']}")
    print(f"   info {json.dumps(info, sort_keys=True)}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=list(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=22)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if args.workload == "all":
            for workload in workloads.WORKLOADS:
                for trace in (0, 1):
                    result, info = measure(workload, args.seed,
                                           args.seconds, trace)
                    _print_table(workload, trace, result, info)
            return 0
        result, info = measure(args.workload, args.seed, args.seconds,
                               args.trace)
    except (BenchError, OSError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    _print_table(args.workload, args.trace, result, info)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
