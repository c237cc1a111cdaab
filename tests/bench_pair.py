"""Paired benchmark runs of a parent commit and this checkout's files.

    python tests/bench_pair.py PARENT [--workload W|all] [--pairs N] \
        [--seed S]
    python tests/bench_pair.py PARENT --setup [--workload W|all] \
        [--pairs N] [--seed S]

exports PARENT's committed files (`git archive`) into one temporary
directory and this checkout's files, tracked and untracked alike but not
the ignored ones, as they stand in the working tree, into another, and
runs `perfbench/run.py --workload W --seed S --trace 0` N times (10 by
default) from each tree, alternating which side runs first pair by pair,
every run with the same seed; a run's result is the JSON object on the
last line of its stdout.  `--workload all` pairs every workload of
`BENCHMARK.json` in turn, in its order, from the same two exports.
After each workload it writes `BENCH_<parent sha>.json` at the root of
this checkout: each run's result, and per end-to-end metric the median
and quartiles of each side, the pairs the change wins, whether the
change's median is worse than the parent's by more than the bound of
`BENCHMARK.json`, and whether a gain may be claimed (`claim_met`: the
change wins at least nine tenths of the pairs, ties counting for neither
side, and its median beats the parent's by more than the distance between
the parent's quartiles), with both sides' `setup_s` and `peak_rss_mb`
samples (the set-up samples of every run too).  A file for the same
parent gains the workload's entry, so one file holds every workload
paired against that parent.  A run replaces the workload's entry only
when both have the same seed, and the entry it replaces moves to the end
of `earlier`; a run with another seed goes to the end of `earlier`
itself, with its seed, so a claim made at one seed is not displaced by a
run at another, and the file keeps every run.  The exports are removed
at the end.

With `--setup` each run is one `perfbench/worker.py --workload W --seed S
--mode setup` process alone, timed as `run.py` times set-up: from just
before the process starts to the monotonic clock reading it prints when it
has imported stark-lab and built its inputs.  The pairs alternate as
above, and the file's `setup` entry for W gets the `setup_s` statistics,
so that a bimodal `setup_s` can be told apart from a change without the
cost of whole runs.

An export, unlike a worktree, leaves nothing registered in `.git` when a
run is killed, and holds exactly the files that the benchmark builds
from.  Both sides run from a fresh directory, so neither reads the
checkout's caches or leftovers, which biased `setup_s` and `peak_rss_mb`
when the change side ran in the checkout.  Nothing under `perfbench/`
changes.  pytest does not collect this file; `tests/test_bench_pair.py`
checks its statistics, the copy of the checkout and its loop over the
workloads on fake runs.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
SAMPLED = ("setup_s", "peak_rss_mb")


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def parse_run(stdout):
    """(result, setup samples) of one `run.py --trace 0` stdout: the JSON
    object of its last line, and the `setup_samples` of its info line
    (empty when that line is missing)."""
    lines = stdout.strip().splitlines()
    samples = []
    for line in lines:
        if line.strip().startswith("info {"):
            samples = json.loads(line.strip()[5:]).get("setup_samples", [])
    return json.loads(lines[-1]), samples


def quartiles(xs):
    """The first and third quartiles (inclusive method); a single sample
    is its own quartiles."""
    if len(xs) < 2:
        return [xs[0], xs[0]]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return [q[0], q[2]]


def parse_setup(stdout, t0):
    """The set-up seconds of one `worker.py --mode setup` stdout: its
    `setup_done` clock reading less `t0`, the monotonic clock just before
    the process started."""
    return json.loads(stdout.strip().splitlines()[-1])["setup_done"] - t0


def _by_side(runs):
    return {side: sorted((r for r in runs if r["side"] == side),
                         key=lambda r: r["pair"]) for side in SIDES}


def compare(values, spec):
    """The statistics of one metric's values {side: [value per pair]},
    `spec` its `BENCHMARK.json` entry (name, better, bound)."""
    sign = 1 if spec["better"] == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"],
                                                  values["change"]))
    pairs = min(len(values[side]) for side in SIDES)
    parent, change = (statistics.median(values[side]) for side in SIDES)
    low, high = quartiles(values["parent"])
    # how much worse the change's median reads, as a share of the parent's;
    # negative when it reads better
    worse = sign * (parent - change) / parent if parent else 0.0
    return {"parent_median": parent,
            "parent_quartiles": [low, high],
            "change_median": change,
            "change_quartiles": quartiles(values["change"]),
            "change_better_pairs": wins,
            "worse_share": worse,
            "bound": spec["bound"],
            "within_bound": worse <= spec["bound"],
            "claim_met": (10 * wins >= 9 * pairs
                          and sign * (change - parent) > high - low)}


def summarize_setup(runs, end_to_end):
    """The `setup_s` statistics of `--setup` runs, a list of {"side",
    "pair", "setup_s"}."""
    by_side = _by_side(runs)
    values = {side: [r["setup_s"] for r in by_side[side]] for side in SIDES}
    spec = next(s for s in end_to_end if s["name"] == "setup_s")
    return {"pairs": min(len(v) for v in values.values()),
            "metrics": {"setup_s": compare(values, spec)},
            "samples": {"setup_s": values}}


def summarize(runs, end_to_end):
    """The statistics of one workload's runs: `runs` is a list of
    {"side", "pair", "result", "setup_samples"}, `end_to_end` the
    `BENCHMARK.json` entries of the metrics (name, better, bound)."""
    by_side = _by_side(runs)
    pairs = min(len(by_side[side]) for side in SIDES)
    out = {"pairs": pairs,
           "attempted_failed": {side: sorted({
               (r["result"]["attempted"], r["result"]["failed"])
               for r in by_side[side]}) for side in SIDES},
           "correct": {side: all(r["result"]["correct"]
                                 for r in by_side[side]) for side in SIDES},
           "metrics": {},
           "samples": {}}
    for spec in end_to_end:
        name = spec["name"]
        values = {side: [r["result"]["metrics"][name]["value"]
                         for r in by_side[side]] for side in SIDES}
        out["metrics"][name] = compare(values, spec)
        if name in SAMPLED:
            out["samples"][name] = values
    out["samples"]["setup_samples"] = {
        side: [r["setup_samples"] for r in by_side[side]] for side in SIDES}
    return out


def run_side(tree, workload, seed):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True)
    return parse_run(proc.stdout)


def setup_side(tree, workload, seed):
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "perfbench/worker.py", "--workload", workload,
         "--seed", str(seed), "--mode", "setup"],
        cwd=tree, capture_output=True, text=True, check=True)
    return parse_setup(proc.stdout, t0)


def export(sha, tree):
    """Write the files committed at sha into the directory tree."""
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", tree], input=archive, check=True)


def export_checkout(tree):
    """Copy this checkout's tracked and untracked, not ignored, files as
    they stand in the working tree into the directory tree; a tracked file
    deleted from the working tree is left out."""
    names = git("ls-files", "-z", "--cached", "--others",
                "--exclude-standard").split("\0")
    for name in dict.fromkeys(filter(None, names)):
        src = os.path.join(ROOT, name)
        if os.path.isfile(src):
            dst = os.path.join(tree, name)
            os.makedirs(os.path.dirname(dst), exist_ok=True)
            shutil.copy2(src, dst)


def pair_runs(trees, workload, args):
    """The runs of `args.pairs` alternating pairs of one workload."""
    runs = []
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            run = {"side": side, "pair": pair, "first": order[0]}
            if args.setup:
                run["setup_s"] = setup_side(trees[side], workload, args.seed)
                print(f"{workload} pair {pair} {side}: "
                      f"{run['setup_s']:.3f} s set-up", flush=True)
            else:
                result, run["setup_samples"] = run_side(
                    trees[side], workload, args.seed)
                run["result"] = result
                print(f"{workload} pair {pair} {side}: "
                      f"{result['metrics']['ops_per_s']['value']:.1f} "
                      f"ops/s, correct {result['correct']}", flush=True)
            runs.append(run)
    return runs


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="the commit to pair against")
    ap.add_argument("--workload", default="exact_algebra",
                    help="a workload of BENCHMARK.json, or all of them")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--setup", action="store_true",
                    help="pair the set-up worker alone")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    end_to_end = bench["end_to_end"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workload != "all" and args.workload not in names:
        ap.error(f"--workload must be one of {names} or all")
    workloads = names if args.workload == "all" else [args.workload]
    parent_sha = git("rev-parse", args.parent)
    path = os.path.join(ROOT, f"BENCH_{parent_sha[:7]}.json")
    doc = {}
    if os.path.exists(path):
        with open(path) as fh:
            doc = json.load(fh)
    doc.update({
        "parent_sha": parent_sha,
        "change": f"a copy of this checkout's files at "
                  f"{git('rev-parse', 'HEAD')}"
                  + (" with uncommitted changes"
                     if git("status", "--porcelain", "--", "src", "tests",
                            "perfbench") else ""),
        "command": "python3 perfbench/run.py --workload W --seed S "
                   "--trace 0, from each tree",
        "setup_command": "python3 perfbench/worker.py --workload W "
                         "--seed S --mode setup, from each tree",
        "order": "parent first in even pairs, change first in odd ones",
        "quartiles": "statistics.quantiles(n=4, method='inclusive'), "
                     "first and third",
    })
    key = "setup" if args.setup else "workloads"
    with tempfile.TemporaryDirectory(prefix="bench_pair_") as tmp:
        trees = {side: os.path.join(tmp, side) for side in SIDES}
        for tree in trees.values():
            os.mkdir(tree)
        export(parent_sha, trees["parent"])
        export_checkout(trees["change"])
        for workload in workloads:
            runs = pair_runs(trees, workload, args)
            entry = (summarize_setup if args.setup else summarize)(
                runs, end_to_end)
            entry.update({"seed": args.seed, "runs": runs})
            entries = doc.setdefault(key, {})
            moved = entries.get(workload)
            if moved is not None and moved.get("seed") != args.seed:
                moved = entry       # another seed: the entry stays
                print(f"{workload}: the entry is at seed "
                      f"{entries[workload].get('seed')}; this run goes to "
                      f"earlier")
            else:
                entries[workload] = entry
            if moved is not None:
                doc.setdefault("earlier", {}).setdefault(key, {}).setdefault(
                    workload, []).append(moved)
            with open(path, "w") as fh:
                json.dump(doc, fh, indent=1, sort_keys=True)
                fh.write("\n")
            for name, m in entry["metrics"].items():
                print(f"{workload} {name:<16} parent "
                      f"{m['parent_median']:.4g} change "
                      f"{m['change_median']:.4g} wins "
                      f"{m['change_better_pairs']}/{entry['pairs']} within "
                      f"bound {m['within_bound']} claim met "
                      f"{m['claim_met']}")
            print(f"wrote {os.path.relpath(path, ROOT)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
