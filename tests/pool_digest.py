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
names where they moved.  pytest does not collect this file.
"""

import hashlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402
from starklab import verify  # noqa: E402


def run(op):
    try:
        if op["kind"] == "acnf":
            return verify.run_acnf(op["D"], op["D"])
        return verify.run_scenario(verify.Scenario(op["spec"]))
    except Exception as exc:  # recorded as the op's result
        return {"raised": type(exc).__name__, "message": str(exc)}


def digest(results):
    """ops raised sha256 of a list of [key, result] pairs."""
    raised = sum("raised" in res for _key, res in results)
    text = json.dumps(results, sort_keys=True, default=str)
    sha = hashlib.sha256(text.encode()).hexdigest()
    return f"{len(results)} {raised} {sha}"


def main():
    results = []
    for name in workloads.WORKLOADS:
        ours = [[workloads.op_key(op), run(op)]
                for _stratum, _n, ops in workloads.pool(name) for op in ops]
        print(name, digest(ours))
        results += ours
    print(digest(results))


if __name__ == "__main__":
    main()
