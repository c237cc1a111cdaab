"""Digest of every benchmark pool op's result, for checking that a change
keeps every verdict and certificate byte for byte.

    python tests/pool_digest.py

runs each op of `perfbench.workloads.pool` once, in this one process and
at the program's default precision.  It prints one line per workload,
the workload's name, then the number of its ops, the number that raised
and the sha256 of the JSON dump (`sort_keys=True`) of its results, and
last the same three fields over all results.  A result is the `run_acnf`
summary, the `run_scenario` certificate, or, for an op that raised, the
exception's type and message.  Run it on two checkouts, each in its own
process; equal lines mean equal results, and a workload line that differs
names where they moved.

    python tests/pool_digest.py --ops

prints instead one line per op, its key (`workloads.op_key`) and the
sha256 of its result, so that a diff of two checkouts' outputs names each
op whose result moved.

    python tests/pool_digest.py --write-verdicts

runs the same ops and writes `tests/pool_verdicts.json`, the golden
verdict table that `tests/test_pool_verdicts.py` compares every pool op
with: workload -> op key -> what `verdicts` keeps of its result, the
verdicts and the basis-free invariants of the pass entries.  A verdict or
an invariant that moves is then a reviewed diff of that table.  pytest does not
collect this file; the tests import `rubin_data` from it.

    python tests/pool_digest.py --dump FILE
    python tests/pool_digest.py --diff A B

`--dump` runs the same ops and writes their results to FILE as JSON:
workload -> [[op key, result], ...] in pool order.  `--diff` reads two
such dumps, made on two checkouts, and prints one line per value that
differs between an op's two results: the workload, the op key and the
JSON path of the value (`$.results[2].witness.method`); a path stops
where the two results differ in type, in a list's length or in a dict's
keys.  A last line counts the ops and paths that differ.
"""

import hashlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402
from starklab import verify  # noqa: E402


VERDICTS = os.path.join(ROOT, "tests", "pool_verdicts.json")


def run(op):
    try:
        if op["kind"] == "acnf":
            return verify.run_acnf(op["D"], op["D"])
        return verify.run_scenario(verify.Scenario(op["spec"]))
    except Exception as exc:  # recorded as the op's result
        return {"raised": type(exc).__name__, "message": str(exc)}


def sha256(obj):
    """sha256 of the JSON dump of `obj`, keys sorted."""
    text = json.dumps(obj, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def digest(results):
    """ops raised sha256 of a list of [key, result] pairs."""
    raised = sum("raised" in res for _key, res in results)
    return f"{len(results)} {raised} {sha256(results)}"


# The witness keys of a pass entry that no choice of basis moves: the HNF
# of im(epsilon), the Fitting ideal and the class group's invariant
# factors, and igc_membership's ideal I_G^c and its exponent c.  Radii,
# pairing vectors (a change of lattice basis moves them) and method
# strings are not kept.
INVARIANTS = ("image_hnf", "fitting_hnf", "class_group_orders", "ideal_hnf",
              "exponent")


def verdicts(result):
    """What the golden table keeps of an op's result: {check: verdict} of
    a certificate, with "check.key" for each of the `INVARIANTS` that a
    pass entry's witness holds, its datum error, or the type of what the
    op raised.  A `run_acnf` summary is its one check passing: a failing
    sweep raises."""
    if "raised" in result:
        return {"raised": result["raised"]}
    if "datum_error" in result:
        return {"datum_error": result["datum_error"]}
    if "results" in result:
        out = {}
        for e in result["results"]:
            out[e["check"]] = e["verdict"]
            if e["verdict"] == "pass":
                out.update((f"{e['check']}.{k}", e["witness"][k])
                           for k in INVARIANTS if k in e["witness"])
        return out
    return {"acnf": "pass"}


def pool_results():
    """{workload: [[op key, result], ...]} over every pool op, in pool
    order."""
    return {name: [[workloads.op_key(op), run(op)]
                   for _stratum, _n, ops in workloads.pool(name)
                   for op in ops]
            for name in workloads.WORKLOADS}


def rubin_data():
    """A fresh `verify.RubinStarkData` per distinct Rubin datum (field, S,
    V, T) with |V| >= 1 among the pool ops, in pool order, each on the
    datum that `Scenario.validate_datum` builds; the ops' bits and checks
    are dropped."""
    out = {}
    for name in workloads.WORKLOADS:
        for _stratum, _n, ops in workloads.pool(name):
            for op in ops:
                spec = op.get("spec", {})
                if spec.get("V"):
                    datum = {k: spec[k] for k in ("field", "S", "V", "T")}
                    out.setdefault(workloads.op_key(datum),
                                   verify.Scenario(datum))
    for scn in out.values():
        scn.validate_datum()
    return [verify.RubinStarkData(scn.datum) for scn in out.values()]


def verdict_table(results):
    """{workload: {op key: verdicts}} of `pool_results()`."""
    return {name: {key: verdicts(res) for key, res in ours}
            for name, ours in results.items()}


def dump_table(table):
    """The table as JSON text with one op to a line, so that a verdict that
    moves is a one-line diff."""
    return "{\n" + ",\n".join(
        f" {json.dumps(name)}: {{\n" + ",\n".join(
            f"  {json.dumps(key)}: {json.dumps(val, sort_keys=True)}"
            for key, val in sorted(ops.items())) + "\n }"
        for name, ops in sorted(table.items())) + "\n}\n"


def differing_paths(a, b, path="$"):
    """The JSON paths at which the values a and b differ."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for k in sorted(a):
            yield from differing_paths(a[k], b[k], f"{path}.{k}")
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from differing_paths(x, y, f"{path}[{i}]")
    elif a != b:
        yield path


def diff_dumps(a, b):
    """[(workload, op key, path)] over every value that differs between
    two dumps; the ops are paired by workload and position, and an op key
    or a workload that differs is itself a path."""
    out = []
    for name in sorted(a.keys() | b.keys()):
        ours, theirs = a.get(name, []), b.get(name, [])
        if len(ours) != len(theirs):
            out.append((name, "-", f"$ ({len(ours)} ops, {len(theirs)})"))
            continue
        for (key, res), (key2, res2) in zip(ours, theirs):
            if key != key2:
                out.append((name, key, f"$ (op key {key2})"))
                continue
            out.extend((name, key, p) for p in differing_paths(res, res2))
    return out


def main(argv):
    if len(argv) == 3 and argv[0] == "--diff":
        dumps = []
        for path in argv[1:]:
            with open(path) as fh:
                dumps.append(json.load(fh))
        moved = diff_dumps(*dumps)
        for name, key, path in moved:
            print(name, key, path)
        ops = {(name, key) for name, key, _path in moved}
        print(f"{len(ops)} ops differ, in {len(moved)} paths")
        return
    results = pool_results()
    if len(argv) == 2 and argv[0] == "--dump":
        with open(argv[1], "w") as fh:
            fh.write(json.dumps(results, default=str, sort_keys=True))
        return
    if argv == ["--write-verdicts"]:
        with open(VERDICTS, "w") as fh:
            fh.write(dump_table(verdict_table(results)))
        return
    if argv == ["--ops"]:
        for ours in results.values():
            for key, res in ours:
                print(key, sha256(res))
        return
    if argv:
        sys.exit("usage: python tests/pool_digest.py [--ops | "
                 "--write-verdicts | --dump FILE | --diff A B]")
    for name, ours in results.items():
        print(name, digest(ours))
    print(digest([pair for ours in results.values() for pair in ours]))


if __name__ == "__main__":
    main(sys.argv[1:])
