"""Properties of the `starklab` source itself, read off its syntax trees:
`__init__` exports exactly what it imports, every function is used
somewhere in the package or is a reference that tests call, every memo is
a `functools.lru_cache`, not a dict kept by hand, `verify` names each check
once and turns exceptions into verdicts in one place, Q is a field object
and not a string, a Rubin datum is normalised and checked in one place,
and only the ball kernel imports mpmath."""

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
    # a layer that the benchmark's span tracer wraps by name
    # (perfbench/spans.py), so it stays while the benchmark names it
    "hnf.hnf",
    # the sum and the multiples of ideals, with which test_zideal builds the
    # ideals it expects: Fitting ideals of trivial-action modules
    # (test_fitting_examples, test_trivial_action_fitting_closed_form) and
    # powers of I_G (test_aug_ideal_powers)
    "zideal.GIdealLattice.sum",
    "zideal.GIdealLattice.scale",
    # the direct action of Z[G] on a finite module, against which tests
    # check `annihilator` (test_annihilator_examples) and recheck the
    # annihilation witnesses (test_witnesses_reverify)
    "zideal.FiniteGModule.act_group_ring",
}


def _trees():
    return {p.stem: ast.parse(p.read_text(), str(p))
            for p in sorted(SRC.glob("*.py"))}


def _functions(node, prefix, kind="function"):
    """(qualified name, def node, kind) of every function under node: kind
    is "function" at module level, "method" in a class body and "nested"
    in a function."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qual = prefix + child.name
            yield qual, child, kind
            yield from _functions(child, qual + ".", "nested")
        elif isinstance(child, ast.ClassDef):
            yield from _functions(child, prefix + child.name + ".", "method")
        else:
            yield from _functions(child, prefix, kind)


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


def _scopes(trees):
    """({module: its module-level function names}, {class: its method
    names}) over the package's syntax trees."""
    modules, classes = {}, {}
    for module, tree in trees.items():
        modules[module] = set()
        for qual, _node, kind in _functions(tree, module + "."):
            *_, owner, name = qual.split(".")
            if kind == "function":
                modules[module].add(name)
            elif kind == "method":
                classes.setdefault(owner, set()).add(name)
    return modules, classes


def _uses(node, module, modules, classes):
    """The references the subtree makes, as keys: ("name", module, n) for a
    plain name n; ("function", "m.f") for `from .m import f` and for
    `m.f`, with f a module-level function of the package module m;
    ("method", "C.n") for `C.n`, with n a method of the package class C;
    ("attribute", n) for any other attribute n."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield "name", module, n.id
        elif isinstance(n, ast.ImportFrom) and n.module:
            source = n.module.split(".")[-1]
            for alias in n.names:
                yield "function", f"{source}.{alias.name}"
        elif isinstance(n, ast.Attribute):
            base = n.value.id if isinstance(n.value, ast.Name) else None
            if n.attr in modules.get(base, ()):
                yield "function", f"{base}.{n.attr}"
            elif n.attr in classes.get(base, ()):
                yield "method", f"{base}.{n.attr}"
            else:
                yield "attribute", n.attr


def _keys(module, qual, kind):
    """The keys of `_uses` through which the function `qual` is used: a
    module-level function through a plain name in its module, an import or
    `module.name`; a nested one through a plain name; a method through
    `Class.name` for its own class, or an attribute of anything else."""
    *_, owner, name = qual.split(".")
    if kind == "function":
        return [("name", module, name), ("function", f"{module}.{name}")]
    if kind == "nested":
        return [("name", module, name)]
    return [("method", f"{owner}.{name}"), ("attribute", name)]


def _unreferenced(trees, tests):
    """(the functions of the package that nothing uses, every function it
    defines), from {module: syntax tree}, `__init__` included, and the
    syntax trees of the tests.

    A recursive call is no use, nor is a re-export from `__init__`.  A
    function that `__init__` exports counts as used when a test reaches it
    through a plain name or `module.name`: it is a reference that tests
    compare production code against.  Dunders are exempt, as the
    interpreter calls them."""
    trees = dict(trees)
    init = trees.pop("__init__")
    exported = {f"{n.module.split('.')[-1]}.{a.name}": a.asname or a.name
                for n in init.body if isinstance(n, ast.ImportFrom)
                for a in n.names}
    modules, classes = _scopes(trees)
    everywhere = Counter()
    for module, tree in trees.items():
        everywhere.update(_uses(tree, module, modules, classes))
    in_tests = Counter()
    for tree in tests:
        in_tests.update(_uses(tree, None, modules, classes))
    unreferenced, defined = [], set()
    for module, tree in trees.items():
        for qual, node, kind in _functions(tree, module + "."):
            defined.add(qual)
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            keys = _keys(module, qual, kind)
            inside = Counter(_uses(node, module, modules, classes))
            if all(everywhere[k] == inside[k] for k in keys) and not (
                    qual in exported
                    and (in_tests["name", None, exported[qual]]
                         or in_tests["function", qual])):
                unreferenced.append(qual)
    return unreferenced, defined


def test_every_function_is_referenced_outside_its_own_def():
    # a function that nothing in the package uses is in UNREFERENCED_OK, or
    # is named in `__all__` and reached from the tests (`_unreferenced`)
    tests = [ast.parse(path.read_text())
             for path in sorted(TESTS.glob("*.py"))]
    unreferenced, defined = _unreferenced(_trees(), tests)
    assert sorted(set(unreferenced) - UNREFERENCED_OK) == []
    assert UNREFERENCED_OK <= defined


# Two dead functions that matching names alone let through: a module-level
# wrapper, re-exported and named like a live method that tests call, and a
# classmethod named like another class's live one
HIDDEN = {
    "__init__": "from .sublat import count_avoiding\n",
    "sublat": """
class HyperplaneSet:
    def count_avoiding(self, v):
        return v


def count_avoiding(p, m, v):
    return HyperplaneSet().count_avoiding(v)
""",
    "verify": """
from .sublat import HyperplaneSet
from .zideal import GIdealLattice

USES = HyperplaneSet().count_avoiding(1), GIdealLattice.from_vectors([1])
""",
    "zideal": """
class GIdealLattice:
    @classmethod
    def from_vectors(cls, vectors):
        return cls()
""",
    "multilin": """
class WedgeElement:
    @classmethod
    def from_vectors(cls, vectors):
        return cls()
""",
}


def test_the_reference_check_sees_functions_hidden_by_a_shared_name():
    trees = {module: ast.parse(text) for module, text in HIDDEN.items()}
    by_method = ast.parse("def test_count(hs):\n"
                          "    assert hs.count_avoiding(1) == 1\n")
    unreferenced, _ = _unreferenced(trees, [by_method])
    assert sorted(unreferenced) == ["multilin.WedgeElement.from_vectors",
                                    "sublat.count_avoiding"]
    # a test that reaches the export by its name or as `module.name` keeps it
    for test in ("from starklab import count_avoiding\n"
                 "count_avoiding(2, 2, 1)\n",
                 "from starklab import sublat\n"
                 "sublat.count_avoiding(2, 2, 1)\n"):
        unreferenced, _ = _unreferenced(trees, [ast.parse(test)])
        assert unreferenced == ["multilin.WedgeElement.from_vectors"]


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
    catching = sorted({qual for qual, node, _kind in
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


def _references(node):
    """The names that `node`'s own code reads, as a plain name or an
    attribute, leaving out the functions and classes defined in it."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        n = stack.pop()
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                          ast.ClassDef)):
            continue
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        stack.extend(ast.iter_child_nodes(n))


def _readers(name):
    """The qualified names of the package's functions whose own code reads
    `name`, and of the modules whose top-level code does."""
    out = set()
    for module, tree in _trees().items():
        if name in set(_references(tree)):
            out.add(module)
        for qual, node, _kind in _functions(tree, module + "."):
            if name in set(_references(node)):
                out.add(qual)
    return sorted(out)


def _comparisons_with(value):
    """The qualified name of the innermost function around each comparison
    with the constant `value` in the package (the module's name at its top
    level), sorted."""
    out = []
    for module, tree in _trees().items():
        owner = {}
        # a nested function comes after its parent, so it owns its nodes
        for qual, node, _kind in _functions(tree, module + "."):
            owner.update(dict.fromkeys(ast.walk(node), qual))
        out += [owner.get(node, module) for node in ast.walk(tree)
                if isinstance(node, ast.Compare)
                and any(isinstance(x, ast.Constant) and x.value == value
                        for x in [node.left, *node.comparators])]
    return sorted(out)


def test_q_is_a_field_not_a_string():
    # the S-unit layer reads Q as `numfld.QQ`, through what it declares;
    # only the readers of a scenario's JSON "type" and of the command
    # line's field word compare with the string "Q"
    assert _comparisons_with("Q") == ["cli._field", "verify.field_of"]


def test_a_rubin_datum_is_normalised_and_checked_in_one_place():
    # (H3) is checked once per datum, where the scenario builds it; S, V
    # and T are normalised by the datum's constructor, and otherwise only
    # by the entry points that take no Rubin datum: an L-series request,
    # an order-0 L-value and the command line
    assert _readers("_check_torsion_killed") == \
        ["verify.Scenario.validate_datum"]
    assert _readers("_normalize_places") == \
        ["cli._dispatch", "lfun.LSpec.__init__", "lfun.bernoulli_value",
         "numfld.RubinDatum.of"]
    # the place normaliser reads its primes through the prime normaliser
    assert _readers("_normalize_primes") == \
        ["lfun.LSpec.__init__", "lfun.bernoulli_value",
         "numfld.RubinDatum.of", "numfld._normalize_places"]
