"""Functions of `src/` that nothing enters, for finding dead or untested
code.

    python tests/reach_trace.py

runs each op of `perfbench.workloads.pool` once and then tier-1
(`pytest.main` over `tests/` and `perfbench/`), both in this one process
under a `sys.setprofile` hook that records every Python function entered.
Code run in a child process (the `python -O` gate tests) is not seen.  It
reads the functions and methods defined in `src/`, nested ones included,
before anything runs, so that an edit made to `src/` during the run
cannot shift their line keys, and at the end prints each that no call
entered, as `file:line qualname` in source order, and a count line.  A
second section lists the same way, with its own count line, the functions
that tier-1 entered but no pool op did: code that only tests reach.  Run
it on two checkouts, each in its own process, to see which functions a
change left without a caller or a test.  pytest does not collect this
file.
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


def seen():
    """(file, line, qualname) of every function entered so far."""
    codes = list(entered.values())    # the hook may still add to `entered`
    return {(c.co_filename, c.co_firstlineno, c.co_qualname) for c in codes}


def report(functions, outside, what):
    """Print each of `functions` that is not in `outside`, then a count."""
    missed = [(path, line, qualname) for path, line, qualname in functions
              if (path, line, qualname) not in outside]
    for path, line, qualname in missed:
        print(f"{os.path.relpath(path, ROOT)}:{line} {qualname}")
    print(f"{len(missed)} of {len(functions)} functions in src/ {what}")


def main():
    package = os.path.dirname(starklab.__file__)
    functions = [(os.path.join(package, fname), line, qualname)
                 for fname in sorted(os.listdir(package))
                 if fname.endswith(".py")
                 for line, qualname in defined_functions(
                     os.path.join(package, fname))]
    for name in workloads.WORKLOADS:
        for _stratum, _n, ops in workloads.pool(name):
            for op in ops:
                run(op)
    by_pool = seen()
    pytest.main(["-q", "-p", "no:cacheprovider",
                 "--continue-on-collection-errors",
                 os.path.join(ROOT, "tests"), os.path.join(ROOT, "perfbench")])
    sys.setprofile(None)
    threading.setprofile(None)
    by_any = seen()
    report(functions, by_any, "not entered")
    report([f for f in functions if f in by_any], by_pool,
           "entered by tier-1 and by no pool op")


if __name__ == "__main__":
    main()
