"""Functions of `src/` that nothing enters, for finding dead or untested
code.

    python tests/reach_trace.py

runs each op of `perfbench.workloads.pool` once and then tier-1
(`pytest.main` over `tests/` and `perfbench/`), both in this one process
under a `sys.setprofile` hook that records every Python function entered.
Code run in a child process (the `python -O` gate tests) is not seen.  It
then prints each function or method defined in `src/`, nested ones
included, that no call entered, as `file:line qualname` in source order,
and last a count line.  Run it on two checkouts, each in its own process,
to see which functions a change left without a caller or a test.  pytest
does not collect this file.
"""

import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

entered = {}          # id -> code object, kept alive so no id is reused


def _profile(frame, event, _arg):
    if event == "call":
        code = frame.f_code
        entered[id(code)] = code


# hooked before the imports, so that what runs at import time counts too
sys.setprofile(_profile)
threading.setprofile(_profile)

import pytest  # noqa: E402
import starklab  # noqa: E402
import workloads  # noqa: E402
from starklab import verify  # noqa: E402

CO_NEWLOCALS = 0x2    # set on function bodies, not on class or module bodies


def run(op):
    try:
        if op["kind"] == "acnf":
            verify.run_acnf(op["D"], op["D"])
        else:
            verify.run_scenario(verify.Scenario(op["spec"]))
    except Exception:  # a raising op still entered what it entered
        pass


def defined_functions(path):
    """(line, qualname) of every def in the source file `path`."""
    with open(path) as fh:
        stack = [compile(fh.read(), path, "exec")]
    out = []
    while stack:
        code = stack.pop()
        for const in code.co_consts:
            if hasattr(const, "co_code"):
                stack.append(const)
        if code.co_flags & CO_NEWLOCALS and not code.co_name.startswith("<"):
            out.append((code.co_firstlineno, code.co_qualname))
    return sorted(out)


def main():
    for name in workloads.WORKLOADS:
        for _stratum, _n, ops in workloads.pool(name):
            for op in ops:
                run(op)
    pytest.main(["-q", "-p", "no:cacheprovider",
                 "--continue-on-collection-errors",
                 os.path.join(ROOT, "tests"), os.path.join(ROOT, "perfbench")])
    sys.setprofile(None)
    threading.setprofile(None)
    seen = {(c.co_filename, c.co_firstlineno, c.co_qualname)
            for c in entered.values()}
    package = os.path.dirname(starklab.__file__)
    total = missed = 0
    for fname in sorted(os.listdir(package)):
        if not fname.endswith(".py"):
            continue
        path = os.path.join(package, fname)
        for line, qualname in defined_functions(path):
            total += 1
            if (path, line, qualname) not in seen:
                missed += 1
                print(f"{os.path.relpath(path, ROOT)}:{line} {qualname}")
    print(f"{missed} of {total} functions in src/ not entered")


if __name__ == "__main__":
    main()
