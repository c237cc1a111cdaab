"""The statistics of `tests/bench_pair.py`, fed fake run lines: no
benchmark runs and no subprocess starts."""

import json
import subprocess

import pytest

import bench_pair

END_TO_END = [{"name": "ops_per_s", "better": "higher", "bound": 0.25},
              {"name": "latency_p90_ms", "better": "lower", "bound": 0.25},
              {"name": "setup_s", "better": "lower", "bound": 0.25}]


def _stdout(ops, p90, setup, samples=None, failed=25):
    """A `run.py --trace 0` stdout: a table, an info line, the result."""
    result = {"correct": True, "attempted": 250, "failed": failed,
              "metrics": {"ops_per_s": {"value": ops, "unit": "1/s"},
                          "latency_p90_ms": {"value": p90, "unit": "ms"},
                          "setup_s": {"value": setup, "unit": "s"}}}
    info = {"completed": 250 - failed, "setup_samples": samples or [setup]}
    return "\n".join(["== exact_algebra: end-to-end; attempted 250",
                      f"   ops_per_s {ops} 1/s",
                      f"   info {json.dumps(info, sort_keys=True)}",
                      json.dumps(result)]) + "\n"


@pytest.fixture(autouse=True)
def no_subprocess(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a subprocess was started")
    monkeypatch.setattr(subprocess, "run", refuse)
    monkeypatch.setattr(subprocess, "Popen", refuse)


def test_a_run_is_its_last_line_and_its_set_up_samples():
    result, samples = bench_pair.parse_run(
        _stdout(250.0, 6.0, 0.15, samples=[0.14, 0.26, 0.15]))
    assert result["attempted"] == 250 and result["failed"] == 25
    assert result["metrics"]["setup_s"]["value"] == 0.15
    assert samples == [0.14, 0.26, 0.15]
    # a stdout without the info line still gives its result
    line = _stdout(1.0, 1.0, 1.0).splitlines()[-1]
    assert bench_pair.parse_run(line + "\n") == (json.loads(line), [])


def _runs(parent, change):
    """Runs of alternating pairs from (ops, p90, setup) triples."""
    runs = []
    for pair, sides in enumerate(zip(parent, change)):
        for side, (ops, p90, setup) in zip(bench_pair.SIDES, sides):
            result, samples = bench_pair.parse_run(
                _stdout(ops, p90, setup, samples=[setup, 2 * setup]))
            runs.append({"side": side, "pair": pair, "result": result,
                         "setup_samples": samples})
    return runs


def test_medians_quartiles_wins_and_bounds():
    parent = [(200, 8.0, 0.15), (220, 7.0, 0.16), (240, 6.0, 0.26),
              (260, 6.0, 0.15), (280, 5.0, 0.14)]
    change = [(210, 8.0, 0.20), (215, 6.0, 0.25), (250, 6.5, 0.26),
              (270, 5.0, 0.27), (290, 4.0, 0.30)]
    out = bench_pair.summarize(_runs(parent, change), END_TO_END)
    assert out["pairs"] == 5 and out["correct"] == {"parent": True,
                                                    "change": True}
    assert out["attempted_failed"] == {"parent": [(250, 25)],
                                       "change": [(250, 25)]}
    ops = out["metrics"]["ops_per_s"]
    assert (ops["parent_median"], ops["change_median"]) == (240, 250)
    assert ops["parent_quartiles"] == [220, 260]
    assert ops["change_quartiles"] == [215, 270]
    assert ops["change_better_pairs"] == 4            # 215 < 220 loses
    assert ops["worse_share"] == pytest.approx(-10 / 240)
    assert ops["within_bound"]
    # lower is better: the tie at 8.0 counts for neither side
    p90 = out["metrics"]["latency_p90_ms"]
    assert p90["change_better_pairs"] == 3
    assert p90["worse_share"] == pytest.approx(0.0)
    # set-up 0.15 -> 0.26 s is 73% worse, past the 0.25 bound
    setup = out["metrics"]["setup_s"]
    assert setup["worse_share"] == pytest.approx(0.11 / 0.15)
    assert not setup["within_bound"] and setup["change_better_pairs"] == 0
    assert out["samples"]["setup_s"] == {
        "parent": [0.15, 0.16, 0.26, 0.15, 0.14],
        "change": [0.20, 0.25, 0.26, 0.27, 0.30]}
    assert out["samples"]["setup_samples"]["parent"][2] == [0.26, 0.52]
    assert "peak_rss_mb" not in out["samples"]


def test_a_single_pair_is_its_own_quartiles():
    out = bench_pair.summarize(_runs([(100, 2.0, 0.1)], [(90, 2.0, 0.1)]),
                               END_TO_END)
    ops = out["metrics"]["ops_per_s"]
    assert ops["parent_quartiles"] == [100, 100]
    assert ops["worse_share"] == pytest.approx(0.1)
    assert ops["change_better_pairs"] == 0


def test_set_up_pairs_are_read_and_compared_alone():
    # a `worker.py --mode setup` stdout is one JSON line: its set-up time
    # is its clock reading less the reading just before it started
    assert bench_pair.parse_setup('{"setup_done": 105.25}\n', 105.0) == \
        pytest.approx(0.25)
    # a bimodal parent (0.14 / 0.26 s) against a change that reads the
    # same: the medians stay within the bound and the wins are split
    parent = [0.14, 0.26, 0.15, 0.25, 0.14]
    change = [0.15, 0.14, 0.26, 0.15, 0.25]
    runs = [{"side": side, "pair": pair, "setup_s": t}
            for pair, ts in enumerate(zip(parent, change))
            for side, t in zip(bench_pair.SIDES, ts)]
    out = bench_pair.summarize_setup(runs, END_TO_END)
    assert out["pairs"] == 5 and list(out["metrics"]) == ["setup_s"]
    setup = out["metrics"]["setup_s"]
    assert (setup["parent_median"], setup["change_median"]) == (0.15, 0.15)
    assert setup["parent_quartiles"] == [0.14, 0.25]
    assert setup["change_better_pairs"] == 2 and setup["within_bound"]
    assert out["samples"]["setup_s"] == {"parent": parent, "change": change}
    # the statistics of a metric are those of a whole run's
    whole = bench_pair.summarize(_runs([(1.0, 1.0, t) for t in parent],
                                       [(1.0, 1.0, t) for t in change]),
                                 END_TO_END)
    assert whole["metrics"]["setup_s"] == setup


def _claim(parent_ops, change_ops):
    """The `ops_per_s` statistics of pairs that differ only in ops/s."""
    out = bench_pair.summarize(_runs([(x, 5.0, 0.1) for x in parent_ops],
                                     [(x, 5.0, 0.1) for x in change_ops]),
                               END_TO_END)
    return out["metrics"]["ops_per_s"]


def test_a_gain_is_claimed_at_nine_wins_in_ten_beyond_the_parents_spread():
    # the parent reads 100..109: median 104.5, quartiles 102.25 and 106.75
    parent = list(range(100, 110))
    met = _claim(parent, [x + 10 for x in parent])
    assert met["parent_quartiles"] == [102.25, 106.75]
    assert met["change_better_pairs"] == 10 and met["claim_met"]
    # 9 wins and a tie: the tie counts for neither side, and 9/10 holds
    tie = _claim(parent, [x + 10 for x in parent[:9]] + [parent[9]])
    assert tie["change_better_pairs"] == 9 and tie["claim_met"]
    # 8 wins of 10, with the median gain still 10 > 4.5
    eight = _claim(parent, [x + 10 for x in parent[:8]]
                   + [x - 1 for x in parent[8:]])
    assert eight["change_better_pairs"] == 8
    assert eight["change_median"] - eight["parent_median"] > 4.5
    assert not eight["claim_met"]
    # every pair won, but by 2 ops/s: within the parent's 4.5 spread
    narrow = _claim(parent, [x + 2 for x in parent])
    assert narrow["change_better_pairs"] == 10
    assert narrow["change_median"] - narrow["parent_median"] == 2
    assert not narrow["claim_met"]
    # lower is better for a latency: the same rule with the sign turned
    p90 = bench_pair.summarize(
        _runs([(1.0, x, 0.1) for x in parent],
              [(1.0, x - 10, 0.1) for x in parent]),
        END_TO_END)["metrics"]["latency_p90_ms"]
    assert p90["change_better_pairs"] == 10 and p90["claim_met"]


def test_all_pairs_every_workload_in_turn_into_one_file(tmp_path,
                                                        monkeypatch):
    # a checkout whose BENCHMARK.json names three workloads; git, the
    # export and the runs are fakes, and each fake run reads 100 ops/s
    # on the parent and 110 on the change
    names = ["acnf", "rubin_stark", "exact_algebra"]
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"workloads": [{"name": n} for n in names],
         "end_to_end": END_TO_END}))
    monkeypatch.setattr(bench_pair, "ROOT", str(tmp_path))
    monkeypatch.setattr(bench_pair, "git", lambda *args: {
        "rev-parse": "abcdef0123", "status": ""}[args[0]])
    exports, calls, sides = [], [], {}

    def export(sha, tree):
        exports.append(sha)
        sides[tree] = "parent"

    def export_checkout(tree):
        sides[tree] = "change"

    monkeypatch.setattr(bench_pair, "export", export)
    monkeypatch.setattr(bench_pair, "export_checkout", export_checkout)

    def run_side(tree, workload, seed):
        # both sides run from their exports, never from the checkout
        assert not tree.startswith(str(tmp_path))
        side = sides[tree]
        calls.append((workload, side, seed))
        return bench_pair.parse_run(
            _stdout(110.0 if side == "change" else 100.0, 5.0, 0.1))

    monkeypatch.setattr(bench_pair, "run_side", run_side)
    assert bench_pair.main(["HEAD~1", "--workload", "all", "--pairs", "2",
                            "--seed", "11"]) == 0
    # one export; each workload's pairs in turn, alternating the first side
    assert exports == ["abcdef0123"]
    assert calls == [(w, side, 11) for w in names
                     for side in ("parent", "change", "change", "parent")]
    doc = json.loads((tmp_path / "BENCH_abcdef0.json").read_text())
    assert doc["parent_sha"] == "abcdef0123"
    assert list(doc["workloads"]) == sorted(names)
    for entry in doc["workloads"].values():
        assert entry["pairs"] == 2 and entry["seed"] == 11
        ops = entry["metrics"]["ops_per_s"]
        assert (ops["parent_median"], ops["change_median"]) == (100.0, 110.0)
        assert ops["change_better_pairs"] == 2 and ops["claim_met"]
    # a later run of one workload replaces its entry and keeps the old one
    calls.clear()
    assert bench_pair.main(["HEAD~1", "--workload", "acnf", "--pairs",
                            "1"]) == 0
    assert [c[0] for c in calls] == ["acnf", "acnf"]
    doc = json.loads((tmp_path / "BENCH_abcdef0.json").read_text())
    assert doc["workloads"]["acnf"]["pairs"] == 1
    assert [e["pairs"] for e in doc["earlier"]["workloads"]["acnf"]] == [2]
    assert doc["workloads"]["rubin_stark"]["pairs"] == 2
    # a workload that BENCHMARK.json does not name is refused
    with pytest.raises(SystemExit):
        bench_pair.main(["HEAD~1", "--workload", "acfn"])


def test_the_change_side_is_a_copy_of_the_working_tree(tmp_path,
                                                       monkeypatch):
    # tracked and untracked files are copied as they stand, and a tracked
    # file deleted from the working tree is left out; git's listing is a
    # fake, which leaves the ignored files out as `--exclude-standard` does
    root, tree = tmp_path / "checkout", tmp_path / "export"
    (root / "src" / "pkg").mkdir(parents=True)
    tree.mkdir()
    (root / "src" / "pkg" / "mod.py").write_text("edited = True\n")
    (root / "new.py").write_text("untracked = True\n")
    (root / "ignored.log").write_text("left behind\n")
    monkeypatch.setattr(bench_pair, "ROOT", str(root))
    listed = []

    def git(*args):
        listed.append(args)
        return "src/pkg/mod.py\0gone.py\0new.py\0new.py\0"

    monkeypatch.setattr(bench_pair, "git", git)
    bench_pair.export_checkout(str(tree))
    assert listed == [("ls-files", "-z", "--cached", "--others",
                       "--exclude-standard")]
    assert sorted(str(p.relative_to(tree)) for p in tree.rglob("*")
                  if p.is_file()) == ["new.py", "src/pkg/mod.py"]
    assert (tree / "src" / "pkg" / "mod.py").read_text() == "edited = True\n"
