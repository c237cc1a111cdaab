"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import itertools
import json
import os
import re
import subprocess
import sys

import run
import spans
import workloads
from worker import load_program, run_ops

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _take(workload, seed, n=60):
    return list(itertools.islice(workloads.stream(workload, seed), n))


def test_same_seed_same_workload():
    for name in workloads.WORKLOADS:
        assert _take(name, 7) == _take(name, 7)
        assert _take(name, 7) != _take(name, 8)


def test_rounds_have_the_same_mix_for_every_seed():
    strata = workloads.pool("rubin_stark")
    per_round = workloads.round_size("rubin_stark")
    stratum_of = {workloads.op_key(op): name
                  for name, _n, ops in strata for op in ops}
    for seed in (1, 2):
        ops = _take("rubin_stark", seed, 3 * per_round)
        counts = {}
        for op in ops:
            key = stratum_of[workloads.op_key(op)]
            counts[key] = counts.get(key, 0) + 1
        assert counts == {name: 3 * n for name, n, _ops in strata}


def test_whole_rounds_meet_the_same_crashes_for_every_seed():
    for name in ("rubin_stark", "exact_algebra"):
        ref = workloads.load_reference(name)
        n = 20 * workloads.round_size(name)
        crashes = {sum(ref[workloads.op_key(op)]["outcome"] == "error"
                       for op in _take(name, seed, n))
                   for seed in range(1, 9)}
        assert len(crashes) == 1 and crashes != {0}


def test_acnf_rounds_ascend():
    ops = _take("acnf", 3, 10)
    for i in (0, 5):
        ds = [op["D"] for op in ops[i:i + 5]]
        assert ds == sorted(ds) and all(d > 0 for d in ds)


def test_every_pool_op_has_a_reference_outcome():
    for name in workloads.WORKLOADS:
        ref = workloads.load_reference(name)
        for _stratum, _n, ops in workloads.pool(name):
            for op in ops:
                assert workloads.op_key(op) in ref


def test_metric_names():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert all(NAME.fullmatch(n) for n in declared)
    assert len(declared) == len(set(declared))
    emitted = list(run.layer_metrics({})) + ["trace_overhead"]
    assert emitted == [m["name"] for m in bench["per_layer"]]


def test_self_time_on_a_synthetic_tree():
    # root [0, 100) has children [10, 40) and [30, 60) (overlapping: their
    # union covers 50) and [90, 120) (clipped to the root: covers 10);
    # the first child has a grandchild [15, 25)
    parent = [-1, 0, 1, 0, 0]
    start = [0, 10, 15, 30, 90]
    end = [100, 40, 25, 60, 120]
    assert spans.self_times(parent, start, end) == [40, 20, 10, 30, 30]


def test_traced_worker_wraps_every_namespace(tmp_path):
    # a fresh process, so the wrappers never leak into other tests
    path = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(run.BENCH_DIR, "worker.py"),
         "--workload", "acnf", "--seed", "1", "--mode", "run", "--ops", "1",
         "--trace-out", str(path)],
        capture_output=True, text=True, timeout=120, check=True)
    layers = json.loads(proc.stdout)["layers"]
    # verify reaches l_jet through its own namespace, lfun reaches
    # hurwitz_jet and ball_log_int through lfun's
    assert layers["verify.run_acnf"]["calls"] == 1
    assert layers["lfun.l_jet"]["calls"] == 1
    assert layers["lfun.hurwitz_jet"]["calls"] > 1
    log = layers["ball.ball_log_int"]
    assert 0 < log["distinct"] <= log["calls"]
    dump = json.loads(path.read_text())["spans"]
    n = len(dump["start_ns"])
    assert sum(layers[k]["calls"] for k in layers) == n
    assert all(-1 <= p < i for i, p in enumerate(dump["parent"]))


def test_crashing_cell_is_a_failed_op_and_the_run_goes_on():
    _, verify = load_program()
    ref = workloads.load_reference("exact_algebra")
    crash = next(op for _s, _n, ops in workloads.pool("exact_algebra")
                 for op in ops if op["kind"] == "scenario"
                 and op["spec"]["field"]["type"] == "generic")
    assert ref[workloads.op_key(crash)]["outcome"] == "error"
    fine = {"kind": "acnf", "D": -23}
    records, wall = run_ops(verify, iter([crash, fine]))
    assert wall > 0
    assert all(r["speed_s"] > 0 for r in records)
    assert [r["outcome"] for r in records] == ["error", "ok"]
    assert run.judge(records, ref) == 0
    assert [r["failed"] for r in records] == [True, False]


def test_verdict_flip_is_failed_and_wrong():
    ref = workloads.load_reference("exact_algebra")
    op = {"kind": "acnf", "D": -23}
    rec = {"op": op, "outcome": "ok", "verdicts": {"acnf": "fail"},
           "counts": [0, 1]}
    assert run.judge([rec], ref) == 1 and rec["failed"]
