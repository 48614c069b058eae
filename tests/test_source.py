"""Static checks of the library source."""
import ast
import functools
import importlib
import inspect
import json
import re
import typing
from collections import Counter
from pathlib import Path

import toricbdiv

SRC = Path(toricbdiv.__file__).parent
TESTS = Path(__file__).parent
ROOT = TESTS.parent
PERFBENCH = ROOT / "perfbench"
ORACLES = sorted(TESTS.glob("*_oracle.py")) + [TESTS / "fraction_kernel.py"]


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_imports_are_caught():
    tree = ast.parse("import math\nfrom typing import Any, Sequence\nx: Sequence = math.pi\n")
    assert _unused_imports(tree) == ["Any (line 2)"]


def test_no_unused_imports_in_src():
    # the package __init__ imports only to re-export
    unused = {path.name: _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
              for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    assert {name: names for name, names in unused.items() if names} == {}


def _bodies(tree: ast.Module, prefix: str = "") -> dict[str, list[str]]:
    """AST dump of each function body, docstring left out -> the functions' names."""
    out: dict[str, list[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body[1:] if ast.get_docstring(node) is not None else node.body
            out.setdefault(ast.dump(ast.Module(body, [])), []).append(prefix + node.name)
    return out


def test_copied_bodies_are_caught():
    src = ast.parse("def f(x):\n    'the library'\n    return x + 1\n\ndef g(x):\n    return x\n")
    oracle = ast.parse("def old_f(y):\n    'the oracle'\n    return x + 1\n")
    assert set(_bodies(src)) & set(_bodies(oracle)) == {ast.dump(ast.parse("return x + 1"))}


def test_no_src_function_copies_an_oracle():
    # a differential test against a copy of the code it checks tests nothing
    oracle: dict[str, list[str]] = {}
    for path in ORACLES:
        for body, names in _bodies(ast.parse(path.read_text(encoding="utf-8")), f"{path.name}:").items():
            oracle.setdefault(body, []).extend(names)
    copies = {}
    for path in sorted(SRC.glob("*.py")):
        for body, names in _bodies(ast.parse(path.read_text(encoding="utf-8")), f"{path.name}:").items():
            if body in oracle:
                copies[", ".join(names)] = oracle[body]
    assert copies == {}


def _names_used_from(tree: ast.Module, module: str) -> set[str]:
    """Names of `module` that the tree reaches as `module.name`, imports from
    it or names as a ("module", "name") pair of string constants."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == module:
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == module:
            out.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.Tuple) and len(node.elts) == 2
              and all(isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.elts)
              and node.elts[0].value == module):
            out.add(node.elts[1].value)
    return out


def _unreached(modules: dict[str, ast.Module], callers: list[ast.Module]) -> list[str]:
    """Public module-level functions and classes of `modules` that no other
    module but `__init__`, no caller and no load in their own module names."""
    out = []
    for module, tree in modules.items():
        reached = set().union(*(_names_used_from(t, module) for name, t in modules.items()
                                if name not in (module, "__init__")),
                              *(_names_used_from(t, module) for t in callers))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            own = any(isinstance(n, ast.Name) and n.id == node.name and isinstance(n.ctx, ast.Load)
                      for other in tree.body if other is not node for n in ast.walk(other))
            if node.name not in reached and not own:
                out.append(f"{module}.{node.name}")
    return out


def test_unreached_names_are_caught():
    modules = {
        "__init__": ast.parse("from .geo import exported, helper\n"),
        "geo": ast.parse("from dataclasses import dataclass\n"
                         "def exported(): pass\ndef helper(): pass\ndef scale(): pass\n"
                         "def inner(): pass\ndef outer():\n    return inner()\n"
                         "def benched(): pass\ndef traced(): pass\ndef field(): pass\n"
                         "def _private(): pass\nclass Body:\n"
                         "    def scale(self): pass\n"
                         "@dataclass\nclass Cell:\n    field: int\n"),
        "alg": ast.parse("from . import geo\nfrom .geo import Body, Cell\n"
                         "def user(b):\n    return geo.helper(), b.scale()\n"),
    }
    bench = ast.parse("from toricbdiv import geo\ngeo.benched()\nTRACED = [(\"geo\", \"traced\")]\n")
    # a re-export, a method of the same name and a field of the same name do
    # not reach the module function; a ("module", "name") pair does
    assert _unreached(modules, [bench]) == ["geo.exported", "geo.scale", "geo.outer", "geo.field", "alg.user"]


def test_every_public_src_name_has_a_caller():
    # a name only unit tests call belongs in tests/; the acceptance criteria
    # and the benchmark call the public API, and __init__ only re-exports it
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    callers = [ast.parse(path.read_text(encoding="utf-8"))
               for path in [*sorted(PERFBENCH.glob("*.py")), TESTS / "test_acceptance.py"]]
    assert _unreached(modules, callers) == []


def _attribute_names(node: ast.AST) -> Counter:
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


def _unnamed_methods(modules: dict[str, ast.Module], others: list[ast.Module]) -> list[str]:
    """Public methods of public module-level classes that no `.name` names
    outside the method's own def, in the modules or in the other trees."""
    named = sum((_attribute_names(t) for t in [*modules.values(), *others]), Counter())
    out = []
    for module, tree in modules.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for node in cls.body:
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not node.name.startswith("_")
                        and named[node.name] == _attribute_names(node)[node.name]):
                    out.append(f"{module}.{cls.name}.{node.name}")
    return out


def test_unnamed_methods_are_caught():
    modules = {
        "geo": ast.parse("class Body:\n    def area(self): pass\n    def dead(self): pass\n"
                         "    def loop(self):\n        return self.loop()\n"
                         "    def tested(self): pass\n    def _inner(self): pass\n"
                         "    def __len__(self): return 0\n"
                         "class _Hidden:\n    def unused(self): pass\n"
                         "def area_of(b):\n    return b.area()\n"),
    }
    test = ast.parse("from toricbdiv.geo import Body\nBody().tested()\n")
    # a call inside the method's own def names nothing
    assert _unnamed_methods(modules, [test]) == ["geo.Body.dead", "geo.Body.loop"]


def test_every_public_method_is_named():
    # a method only unit tests call belongs in tests/, as a public function does:
    # the callers are the ones test_every_public_src_name_has_a_caller counts
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    callers = [ast.parse(path.read_text(encoding="utf-8"))
               for path in [*sorted(PERFBENCH.glob("*.py")), TESTS / "test_acceptance.py"]]
    assert _unnamed_methods(modules, callers) == []


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _loaded_attributes(tree: ast.AST) -> set[str]:
    return {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def _unread_fields(modules: dict[str, ast.Module], others: list[ast.Module]) -> list[str]:
    """Public fields of public module-level dataclasses that no `.name` reads,
    in the modules or in the other trees. A read in the other trees counts only
    for a name that no class there declares as its own field, as it may read
    that field instead."""
    own = {node.target.id for t in others for cls in ast.walk(t) if isinstance(cls, ast.ClassDef)
           for node in cls.body if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)}
    read = set().union(*map(_loaded_attributes, modules.values()),
                       *(_loaded_attributes(t) - own for t in others))
    out = []
    for module, tree in modules.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_") or not _is_dataclass(cls):
                continue
            for node in cls.body:
                if (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
                        and not node.target.id.startswith("_") and node.target.id not in read):
                    out.append(f"{module}.{cls.name}.{node.target.id}")
    return out


def test_unread_fields_are_caught():
    modules = {
        "geo": ast.parse("import dataclasses\nfrom dataclasses import dataclass\n"
                         "@dataclass(frozen=True)\nclass Body:\n    dim: int\n    source: str\n"
                         "    label: str = ''\n    _cache: dict = None\n"
                         "@dataclasses.dataclass\nclass Pair:\n    left: int\n"
                         "class Plain:\n    kept: int\n"
                         "@dataclass\nclass _Hidden:\n    gone: int\n"
                         "def size(b):\n    b.source = 1\n    return b.dim\n"),
    }
    test = ast.parse("from toricbdiv.geo import Body\nassert Body(2, 'x').label == ''\n")
    # a store is not a read, and only public dataclasses count
    assert _unread_fields(modules, [test]) == ["geo.Body.source", "geo.Pair.left"]
    # a read of a name that a bench class declares may read the bench's own field
    bench = ast.parse("from dataclasses import dataclass\n@dataclass\nclass Query:\n    label: str\n"
                      "def show(q):\n    return q.label, q.dim\n")
    assert _unread_fields(modules, [bench]) == ["geo.Body.source", "geo.Body.label", "geo.Pair.left"]
    assert _unread_fields(modules, [test, bench]) == ["geo.Body.source", "geo.Body.label", "geo.Pair.left"]


def test_every_public_dataclass_field_is_read():
    # a field nothing reads is dead data that every instance still carries
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    others = [ast.parse(path.read_text(encoding="utf-8"))
              for folder in (TESTS, PERFBENCH) for path in sorted(folder.glob("*.py"))]
    assert _unread_fields(modules, others) == []


def test_bench_records_parse():
    # a perf change records its measured parent and change runs in a root BENCH_*.json
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        record = json.loads(path.read_text(encoding="utf-8"))
        assert {"change", "command", "claimed", "workloads"} <= set(record), path.name


_FLOAT_TYPES = {"float", "float16", "float32", "float64", "float96", "float128", "float_",
                "double", "half", "single", "longdouble", "floating"}
_FLOAT_CODES = re.compile(r"[<>=|]?(float\d*|f\d*|d|e|g|double|half|single|longdouble)")


def _float_uses(tree: ast.Module) -> list[tuple[str | None, int]]:
    """(enclosing function, line) of each float an exact count could pass
    through: the name `float`, a numpy float type, a float dtype string given
    to astype, a dtype= or a numpy call, and `weights=` in a numpy call, whose
    sums numpy takes in float64."""
    out = []

    def numpy_rooted(node: ast.AST) -> bool:
        while isinstance(node, (ast.Attribute, ast.Call)):
            node = node.value if isinstance(node, ast.Attribute) else node.func
        return isinstance(node, ast.Name) and node.id in ("np", "numpy")

    def visit(node: ast.AST, func: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name) and child.id == "float":
                out.append((func, child.lineno))
            elif isinstance(child, ast.Attribute) and child.attr in _FLOAT_TYPES and numpy_rooted(child):
                out.append((func, child.lineno))
            elif isinstance(child, ast.Call):
                kws = {k.arg: k.value for k in child.keywords}
                typed = (numpy_rooted(child.func) or "dtype" in kws
                         or isinstance(child.func, ast.Attribute) and child.func.attr == "astype")
                codes = [x for x in [*child.args, kws.get("dtype")]
                         if isinstance(x, ast.Constant) and isinstance(x.value, str)
                         and _FLOAT_CODES.fullmatch(x.value)]
                if typed and codes or "weights" in kws and numpy_rooted(child.func):
                    out.append((func, child.lineno))
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func)

    visit(tree, None)
    return out


def test_float_uses_are_caught():
    tree = ast.parse("import numpy as np\n"
                     "def f(x, w):\n"
                     "    a = np.array(x, dtype=np.int64)\n"
                     "    b = a.astype(float)\n"
                     "    c = np.zeros(3, dtype='f8') + np.float64(1)\n"
                     "    d = np.bincount(a, weights=w)\n"
                     "    e = a.astype('float32') + a.astype('int64')\n"
                     "    return [float(v) for v in x], np.bincount(a), x.count('d')\n")
    assert _float_uses(tree) == [("f", 4), ("f", 5), ("f", 5), ("f", 6), ("f", 7), ("f", 8)]


def test_no_float_in_src():
    # exact counts and Fractions never pass through float64; export-plot's
    # output is documented as approximate
    allowed = {("cli.py", "_cmd_export_plot")}
    uses = [(path.name, func, line) for path in sorted(SRC.glob("*.py"))
            for func, line in _float_uses(ast.parse(path.read_text(encoding="utf-8")))]
    assert [use for use in uses if use[:2] not in allowed] == []


def test_every_src_annotation_resolves():
    # annotations are strings (from __future__ import annotations), so a name that left a
    # module's globals, such as np once numpy is imported only inside functions, goes unseen
    # until typing.get_type_hints evaluates it
    unresolved = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"toricbdiv.{path.stem}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).values() if inspect.isclass(obj) else ()
            for f in [obj, *members, *(m.func for m in members if isinstance(m, functools.cached_property))]:
                if inspect.isfunction(f) or inspect.isclass(f):
                    try:
                        typing.get_type_hints(f)
                    except (NameError, AttributeError) as exc:
                        unresolved.append(f"{module.__name__}.{f.__qualname__}: {exc}")
    assert unresolved == []
