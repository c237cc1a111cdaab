"""Golden verdicts: every benchmark pool op, run once, gives the verdicts
recorded in `tests/pool_verdicts.json`.  A change that moves a verdict
rewrites that table (`python tests/pool_digest.py --write-verdicts`), and
the moved lines are its reviewed diff."""

import json

import pool_digest


def test_every_pool_verdict_matches_the_golden_table():
    with open(pool_digest.VERDICTS) as fh:
        golden = json.load(fh)
    table = pool_digest.verdict_table(pool_digest.pool_results())
    assert table.keys() == golden.keys()
    moved = {(name, key): (golden[name].get(key), val)
             for name, ops in table.items() for key, val in ops.items()
             if golden[name].get(key) != val}
    assert not moved
    assert {name: ops.keys() for name, ops in table.items()} == \
        {name: ops.keys() for name, ops in golden.items()}


def test_a_dump_diff_names_each_moved_value():
    ours = {"w": [["k1", {"results": [{"verdict": "pass", "witness":
                                        {"method": "a", "hnf": [[1, 0]]}}]}],
                  ["k2", {"raised": "AttributeError"}]]}
    theirs = {"w": [["k1", {"results": [{"verdict": "pass", "witness":
                                          {"method": "b", "hnf": [[2]]}}]}],
                    ["k2", {"raised": "AttributeError"}]]}
    assert pool_digest.diff_dumps(ours, ours) == []
    assert pool_digest.diff_dumps(ours, theirs) == [
        ("w", "k1", "$.results[0].witness.hnf[0]"),
        ("w", "k1", "$.results[0].witness.method")]
    assert pool_digest.diff_dumps(ours, {"w": ours["w"][:1]}) == [
        ("w", "-", "$ (2 ops, 1)")]
