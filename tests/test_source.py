"""Properties of the `starklab` source itself, read off its syntax trees:
`__init__` exports exactly what it imports, every function is used
somewhere in the package or is a reference that tests call, every memo is
a `functools.lru_cache`, not a dict kept by hand, `verify` names each check
once and turns exceptions into verdicts in one place, and only the ball
kernel imports mpmath."""

import ast
import pathlib
from collections import Counter

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "starklab"

TESTS = pathlib.Path(__file__).resolve().parent

# Functions that nothing in the package refers to, each kept for a reason.
# Dunders are exempt as a class: the interpreter calls them.  The other
# functions that only tests call are references that tests compare
# production code against; they are named in `starklab.__all__` instead.
UNREFERENCED_OK = {
    # the console-script entry point: pyproject.toml's `stark-lab` launcher
    # calls it
    "cli.main",
    # the trace of a quadratic element, kept for the exact ACNF check, which
    # recognises the unit eps_D^(2h) by its (integer) trace
    "numfld.QuadElt.trace",
    # a layer that the benchmark's span tracer wraps by name
    # (perfbench/spans.py), so it stays while the benchmark names it
    "hnf.hnf",
    # the sum and the multiples of ideals, with which test_zideal builds the
    # ideals it expects: Fitting ideals of trivial-action modules
    # (test_fitting_examples, test_trivial_action_fitting_closed_form) and
    # powers of I_G (test_aug_ideal_powers)
    "zideal.GIdealLattice.sum",
    "zideal.GIdealLattice.scale",
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


def _init_names(tree):
    """(the names `__init__` imports, the names its `__all__` lists)."""
    imported = [a.asname or a.name for n in tree.body
                if isinstance(n, ast.ImportFrom) for a in n.names]
    listed = [e.value for e in _assigned(tree, "__all__").elts]
    return imported, listed


def test_init_all_is_exactly_what_it_imports():
    imported, listed = _init_names(_trees()["__init__"])
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(imported)


def test_every_function_is_referenced_outside_its_own_def():
    # Matched by name alone: a method counts as used when anything of the
    # same name is, so a dead method that shares its name with a live one
    # elsewhere (`DirichletChar.is_trivial` next to `Character.is_trivial`,
    # say) passes.  Only a call trace finds those.  A re-export from
    # `__init__` is no use: a function that nothing else in the package
    # refers to is in UNREFERENCED_OK, or is named in `__all__` and called
    # from the tests, as a reference they compare production code against.
    trees = _trees()
    _imported, exported = _init_names(trees.pop("__init__"))
    everywhere = Counter()
    for tree in trees.values():
        everywhere.update(_referenced_names(tree))
    in_tests = set()
    for path in sorted(TESTS.glob("*.py")):
        in_tests.update(_referenced_names(ast.parse(path.read_text())))
    unreferenced = []
    defined = set()
    for module, tree in trees.items():
        for qual, node in _functions(tree, module + "."):
            defined.add(qual)
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            # a recursive call is no use from outside
            inside = Counter(_referenced_names(node))[name]
            if everywhere[name] == inside and qual not in UNREFERENCED_OK \
                    and not (name in exported and name in in_tests):
                unreferenced.append(qual)
    assert unreferenced == []
    assert UNREFERENCED_OK <= defined


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


# What `verify._run_check` turns into a verdict, and the classes above them
# that would catch them too
VERDICT_EXCEPTIONS = {"NonIntegralError", "Undecided", "PrecisionError",
                      "UnresolvedOrderError", "UnsupportedCaseError",
                      "CertificationError", "ValueError", "RuntimeError",
                      "Exception", "BaseException"}


def _caught(handler):
    """The class names an except clause names; a bare `except:` catches
    everything."""
    if handler.type is None:
        return {"BaseException"}
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) \
        else [handler.type]
    return {t.id if isinstance(t, ast.Name) else t.attr for t in types}


def test_verify_maps_exceptions_to_verdicts_in_one_place():
    # no runner catches what `_run_check` maps, so an exception gives the
    # same verdict whichever check or layer raised it
    catching = sorted({qual for qual, node in
                       _functions(_trees()["verify"], "verify.")
                       for h in ast.walk(node)
                       if isinstance(h, ast.ExceptHandler)
                       and _caught(h) & VERDICT_EXCEPTIONS})
    # _config_int reads the scenario file, before any check runs: its
    # `except ValueError` turns a failed int() into a ConfigError
    assert catching == ["verify._config_int", "verify._run_check"]


def _assigned(tree, name):
    return next(stmt.value for stmt in tree.body
                if isinstance(stmt, ast.Assign)
                and [t.id for t in stmt.targets] == [name])


def test_verify_names_each_check_once():
    tree = _trees()["verify"]
    checks = [key.value for key in _assigned(tree, "CHECKS").keys]
    named = Counter(n.value for n in ast.walk(tree)
                    if isinstance(n, ast.Constant) and n.value in checks)
    # the old names of two checks map onto the new ones
    named.subtract(v.value for v in _assigned(tree, "CHECK_ALIASES").values)
    assert named == Counter(checks)


def test_only_the_ball_kernel_imports_mpmath():
    # `ball` is the one place that rounds: every other module reaches
    # mpmath through its certified balls
    importers = sorted(
        module for module, tree in _trees().items()
        for n in ast.walk(tree)
        if isinstance(n, ast.Import) and any(
            a.name.split(".")[0] == "mpmath" for a in n.names)
        or isinstance(n, ast.ImportFrom) and n.level == 0
        and n.module.split(".")[0] == "mpmath")
    assert set(importers) == {"ball"}
