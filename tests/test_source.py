"""Properties of the `starklab` source itself, read off its syntax trees:
every function is used somewhere in the package, and every memo is a
`functools.lru_cache`, not a dict kept by hand."""

import ast
import pathlib
from collections import Counter

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "starklab"

# Functions that nothing in the package refers to, each kept for a reason.
# Dunders are exempt as a class: the interpreter calls them.
UNREFERENCED_OK = {
    # the console-script entry point: pyproject.toml's `stark-lab` launcher
    # calls it
    "cli.main",
    # the trace of a quadratic element, kept for the exact ACNF check, which
    # recognises the unit eps_D^(2h) by its (integer) trace
    "numfld.QuadElt.trace",
}


def _trees():
    return {p.stem: ast.parse(p.read_text(), str(p))
            for p in sorted(SRC.glob("*.py"))}


def _referenced_names(node):
    """Every name the subtree reads: plain names, attribute names, and the
    names it imports (so a function that `__init__` re-exports is used)."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name


def _functions(node, prefix):
    """(qualified name, def node) of every function and method under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qual = prefix + child.name
            yield qual, child
            yield from _functions(child, qual + ".")
        elif isinstance(child, ast.ClassDef):
            yield from _functions(child, prefix + child.name + ".")
        else:
            yield from _functions(child, prefix)


def test_every_function_is_referenced_outside_its_own_def():
    trees = _trees()
    everywhere = Counter()
    for tree in trees.values():
        everywhere.update(_referenced_names(tree))
    unreferenced = []
    for module, tree in trees.items():
        for qual, node in _functions(tree, module + "."):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            # a recursive call is no use from outside
            inside = Counter(_referenced_names(node))[name]
            if everywhere[name] == inside and qual not in UNREFERENCED_OK:
                unreferenced.append(qual)
    assert unreferenced == []


def _is_dict(value):
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return True
    return isinstance(value, ast.Call) and isinstance(value.func, ast.Name) \
        and value.func.id in ("dict", "defaultdict", "OrderedDict")


def _bindings(body, where):
    """(where, name, value) of every assignment in a module or class body,
    descending into nested classes but not into functions."""
    for stmt in body:
        if isinstance(stmt, ast.ClassDef):
            yield from _bindings(stmt.body, f"{where}.{stmt.name}")
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    yield where, target.id, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None \
                and isinstance(stmt.target, ast.Name):
            yield where, stmt.target.id, stmt.value


def test_no_module_or_class_keeps_a_dict_cache():
    hand_kept = [f"{where}.{name}"
                 for module, tree in _trees().items()
                 for where, name, value in _bindings(tree.body, module)
                 if name.lower().endswith("cache") and _is_dict(value)]
    assert hand_kept == []
