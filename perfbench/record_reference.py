"""Record the reference outcome of every op in every workload pool.

    python3 perfbench/record_reference.py [workload ...]

Writes perfbench/reference.json: for each op (keyed by workloads.op_key)
its verdict per check, or the exception type it raised. The pools do not
depend on the seed, so this covers every seed. Re-record only in a change
that means to change verdicts, and say so in that change.
"""

import json
import os
import sys

import workloads
from worker import load_program, run_op
from workloads import REFERENCE


def record(verify, workload):
    out = {}
    for _name, _per_round, ops in workloads.pool(workload):
        for op in ops:
            rec = run_op(verify, op)
            rec.pop("cert_bits", None)
            out[workloads.op_key(op)] = rec
    return out


def main(argv):
    _, verify = load_program()
    names = argv or list(workloads.WORKLOADS)
    ref = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as fh:
            ref = json.load(fh)
    for name in names:
        ref[name] = record(verify, name)
        print(f"{name}: {len(ref[name])} ops", file=sys.stderr)
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
