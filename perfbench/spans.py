"""In-memory span tracer that wraps stark-lab's public functions from outside.

Each wrapped call records one span: its name, start, end and parent span.
Spans live in flat arrays while the run lasts and are written out once, at
the end. The traced functions are replaced in every `starklab` module
namespace that holds them, so `verify.l_jet`, `lfun.l_jet` and
`starklab.l_jet` all report to the same span name.
"""

import functools
import importlib
import inspect
import json
import pkgutil
import time
from array import array

# (module, attribute path, reported stats): the path names a function, a
# method as "Class.method", or a class, whose constructor is traced
LAYERS = [
    ("lfun", "hurwitz_jet", ("calls", "self_s")),
    ("lfun", "l_jet", ("calls", "self_s")),
    ("lfun", "stickelberger_element", ("self_s",)),
    ("lfun", "bernoulli_value", ("self_s",)),
    ("ball", "ball_log_int", ("calls", "self_s", "distinct_ratio")),
    ("ball", "ball_det", ("self_s",)),
    ("ball", "gauss_solve", ("self_s",)),
    ("numfld", "s_unit_lattice", ("calls", "self_s")),
    ("numfld", "ray_class", ("calls", "self_s")),
    ("numfld", "class_number", ("self_s",)),
    ("numfld", "fundamental_unit", ("self_s",)),
    ("biquad", "BiquadSUnitLattice", ("self_s",)),
    ("hnf", "hnf", ("self_s",)),
    ("hnf", "kernel", ("calls", "self_s")),
    ("hnf", "diagonalize_relations", ("self_s",)),
    ("zideal", "fitting_ideal", ("calls", "self_s")),
    ("zideal", "GIdealLattice.from_vectors", ("self_s",)),
    ("sublat", "norm_sum_identity", ("self_s",)),
    ("grpring", "GroupRingElement.__mul__", ("calls", "self_s")),
    ("multilin", "all_dual_pairings", ("self_s",)),
    ("multilin", "norm_decomposition_residual", ("self_s",)),
    ("verify", "run_scenario", ("self_s",)),
    ("verify", "run_acnf", ("self_s",)),
]

# layers whose distinct first arguments are counted (cache reuse)
DISTINCT_ARGS = {"ball.ball_log_int"}

NO_PARENT = -1


def layer_name(module, path):
    return f"{module}.{path}"


class Tracer:
    """Span store: parallel arrays indexed by span id, in start order."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self._stack = [NO_PARENT]
        self.distinct = {}

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name):
        idx = len(self.start)
        self.name_id.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self._stack.append(idx)
        return idx

    def finish(self, idx):
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name, fn):
        begin, finish = self.begin, self.finish
        seen = self.distinct.setdefault(name, set()) \
            if name in DISTINCT_ARGS else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if seen is not None and args:
                seen.add(args[0])
            idx = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(idx)
        return traced

    def to_json(self):
        return {"names": self.names,
                "name_id": list(self.name_id), "parent": list(self.parent),
                "start_ns": list(self.start), "end_ns": list(self.end)}


def starklab_modules(package):
    """The package and every submodule, imported."""
    mods = [package]
    for info in pkgutil.iter_modules(package.__path__):
        mods.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return mods


def install(tracer, package):
    """Replace each layer in LAYERS with a traced wrapper, everywhere the
    package's modules hold a reference to it."""
    mods = starklab_modules(package)
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in mods}
    for module, path, _stats in LAYERS:
        name = layer_name(module, path)
        owner = by_name[module]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        target = inspect.getattr_static(owner, attr)
        if inspect.isclass(target):
            target.__init__ = tracer.wrap(name, target.__init__)
        elif isinstance(target, staticmethod):
            setattr(owner, attr, staticmethod(tracer.wrap(name,
                                                          target.__func__)))
        elif outer:
            setattr(owner, attr, tracer.wrap(name, target))
        else:
            wrapped = tracer.wrap(name, target)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is target:
                        setattr(mod, key, wrapped)


def self_times(parent, start, end):
    """Self time of every span: its duration minus the part of it that its
    direct children cover (the union of their intervals, clipped to it).

    Spans must be indexed in start order, as Tracer records them.
    """
    n = len(start)
    covered = [0] * n
    frontier = {}
    for i in range(n):
        p = parent[i]
        if p == NO_PARENT:
            continue
        lo = max(start[i], start[p], frontier.get(p, start[p]))
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
        frontier[p] = max(frontier.get(p, start[p]), hi)
    return [end[i] - start[i] - covered[i] for i in range(n)]


def aggregate(tracer):
    """{layer name: {"calls", "self_s", "total_s"}} over all spans."""
    selfs = self_times(tracer.parent, tracer.start, tracer.end)
    out = {}
    for i, nid in enumerate(tracer.name_id):
        rec = out.setdefault(tracer.names[nid],
                             {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        rec["calls"] += 1
        rec["self_s"] += selfs[i] / 1e9
        rec["total_s"] += (tracer.end[i] - tracer.start[i]) / 1e9
    for name, seen in tracer.distinct.items():
        if name in out:
            out[name]["distinct"] = len(seen)
    return out


def write(tracer, path, header):
    with open(path, "w") as fh:
        json.dump({"header": header, "spans": tracer.to_json()}, fh)
