"""Properties of the `starklab` source itself, read off its syntax trees:
`__init__` exports exactly what it imports, every function is used
somewhere in the package or is a reference that tests call, no module of
the package but `__init__`, and no test module, imports a name it never
reads, every function reads each of its parameters, every memo is a
`functools.lru_cache`, not a dict kept by hand, a value computed once per
object is a `functools.cached_property`, `verify` names each check
once and turns exceptions into verdicts in one place, Q is a field object
and not a string, the field object is the one record of a field's kind, a
Rubin datum is normalised and checked in one place, and only the ball
kernel imports mpmath."""

import ast
import pathlib
from collections import Counter

from starklab.numfld import RubinDatum

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


def _unread_imports(source):
    """The names that a module's imports bind and none of its code reads,
    in import order.  An import marked `# noqa: F401` is made for its side
    effect, and is exempt."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = [(a.asname or a.name).split(".")[0] for n in ast.walk(tree)
             if isinstance(n, (ast.Import, ast.ImportFrom))
             and "# noqa: F401" not in lines[n.lineno - 1]
             for a in n.names]
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in bound if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    # `__init__` imports to export; every other module of the package, and
    # every module under tests/, reads what it imports
    paths = [p for p in sorted(SRC.glob("*.py")) if p.stem != "__init__"]
    unread = {f"{p.parent.name}/{p.name}": _unread_imports(p.read_text())
              for p in paths + sorted(TESTS.glob("*.py"))}
    assert {module: names for module, names in unread.items() if names} == {}


def test_the_import_check_sees_a_leftover():
    # a name read only as an attribute, or only bound again, is not read;
    # an import marked for its side effect is not a leftover
    source = ("import itertools, os.path\n"
              "import pool_digest  # noqa: F401  (its side effect)\n"
              "from .zideal import Presentation, fitting_ideal as fi\n"
              "def f(pres, x):\n"
              "    Presentation = x.itertools\n"
              "    return fi(pres, 0), os.path.sep\n")
    assert _unread_imports(source) == ["itertools", "Presentation"]


def _function_nodes(node, prefix):
    """(qualified name, node) of every function and lambda under node; a
    lambda takes the name of the function or class around it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name, child
            yield from _function_nodes(child, prefix + child.name + ".")
        elif isinstance(child, ast.ClassDef):
            yield from _function_nodes(child, prefix + child.name + ".")
        elif isinstance(child, ast.Lambda):
            yield prefix + "<lambda>", child
            yield from _function_nodes(child, prefix)
        else:
            yield from _function_nodes(child, prefix)


def _unread_parameters(tree, prefix):
    """(qualified name, parameter) of each parameter that its function or
    lambda never reads, a read in a nested function included, leaving out
    self and cls, `_`-prefixed names and the parameters of dunders, whose
    signatures the interpreter fixes."""
    out = []
    for qual, node in _function_nodes(tree, prefix):
        name = qual.rsplit(".", 1)[-1]
        if name.startswith("__") and name.endswith("__"):
            continue
        a = node.args
        params = [arg.arg for arg in [*a.posonlyargs, *a.args, *a.kwonlyargs,
                                      a.vararg, a.kwarg] if arg]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [(qual, param) for param in params
                if param not in read and param not in ("self", "cls")
                and not param.startswith("_")]
    return out


def test_every_function_reads_each_of_its_parameters():
    # a parameter that nothing reads is a leftover of a removed path; the
    # runners in `verify.CHECKS` are exempt, as their signature is the
    # check protocol, (scenario, data, entry), whichever of them they read
    trees = _trees()
    runners = {"verify." + call.args[0].id
               for call in _assigned(trees["verify"], "CHECKS").values}
    assert len(runners) == 8
    unread = [(qual, param) for module, tree in trees.items()
              for qual, param in _unread_parameters(tree, module + ".")
              if qual not in runners]
    assert unread == []


def test_the_parameter_check_sees_a_leftover():
    # a parameter read only as an attribute name is not read; a closure's
    # read counts for its function, and self, `_x` and a dunder's are exempt
    tree = ast.parse("def ray_class(field, S, T, lattice, _x):\n"
                     "    sl = lattice\n"
                     "    def inner():\n"
                     "        return T\n"
                     "    return sl.field, sl.S, (lambda t: sl.T)(inner)\n"
                     "class C:\n"
                     "    def __exit__(self, *exc):\n"
                     "        return None\n"
                     "    def size(self, scale):\n"
                     "        return 0\n")
    assert _unread_parameters(tree, "m.") == [
        ("m.ray_class", "field"), ("m.ray_class", "S"),
        ("m.ray_class.<lambda>", "t"), ("m.C.size", "scale")]


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


# Memos that their object starts over, so no cached_property can hold them:
# the Hermite form, which `add_vector` clears, and the hypothesis flags,
# which `validate_datum` clears
RESET_MEMOS = {"hnf.IntLattice._canon", "verify.Scenario._flags"}


def _self_attribute(node):
    """n for the expression `self.n`, else None."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id == "self":
        return node.attr
    return None


def _lazy_attributes(tree, module):
    """`module.Class.n` of each attribute that a method keeps by hand as a
    value computed once: an `if self.n is None:` whose body assigns
    `self.n`, or an `if self.n is not None:` whose body returns it."""
    out = set()
    for qual, node, kind in _functions(tree, module + "."):
        if kind != "method":
            continue
        for n in ast.walk(node):
            test = n.test if isinstance(n, ast.If) else None
            if not (isinstance(test, ast.Compare) and len(test.ops) == 1
                    and isinstance(test.comparators[0], ast.Constant)
                    and test.comparators[0].value is None):
                continue
            name = _self_attribute(test.left)
            if name is None:
                continue
            body = [x for stmt in n.body for x in ast.walk(stmt)]
            if isinstance(test.ops[0], ast.Is):
                kept = any(isinstance(x, ast.Attribute)
                           and isinstance(x.ctx, ast.Store)
                           and _self_attribute(x) == name for x in body)
            else:
                kept = isinstance(test.ops[0], ast.IsNot) and any(
                    isinstance(x, ast.Return)
                    and _self_attribute(x.value) == name for x in body)
            if kept:
                out.add(f"{qual.rsplit('.', 1)[0]}.{name}")
    return out


def test_values_computed_once_are_cached_properties():
    # a value computed at most once per object is a
    # `functools.cached_property`; only a memo that its object clears is
    # kept by hand
    kept = set().union(*(_lazy_attributes(tree, module)
                         for module, tree in _trees().items()))
    assert kept == RESET_MEMOS


def test_the_lazy_attribute_check_sees_a_leftover():
    # both hand-kept forms are seen, a tuple target included; a test that
    # raises, assigns another attribute or reads another object is not a
    # memo
    tree = ast.parse("class C:\n"
                     "    def ray(self):\n"
                     "        if self._ray is None:\n"
                     "            self._ray, n = f(), 1\n"
                     "        return self._ray\n"
                     "    def eps(self):\n"
                     "        if self._eps is not None:\n"
                     "            return self._eps\n"
                     "        self._eps = f()\n"
                     "        return self._eps\n"
                     "    def other(self, d):\n"
                     "        if self.a is None:\n"
                     "            raise ValueError(self.a)\n"
                     "        if self.b is None:\n"
                     "            self.c = 1\n"
                     "        if d.e is None:\n"
                     "            d.e = 1\n"
                     "        return self.c\n")
    assert _lazy_attributes(tree, "m") == {"m.C._ray", "m.C._eps"}


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


def test_the_field_object_is_the_one_record_of_its_kind():
    # a Rubin datum holds its field, not the name of its kind: only the
    # reader of a scenario's JSON "type" compares with those names, and
    # every other reader asks the field object
    for kind in ("multiquad", "quad", "generic"):
        assert _comparisons_with(kind) == ["verify.field_of"]
    assert RubinDatum._fields == ("realization", "field", "S", "V", "T")


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
