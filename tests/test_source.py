"""Static checks of the library source."""
import ast
from pathlib import Path

import toricbdiv

SRC = Path(toricbdiv.__file__).parent
TESTS = Path(__file__).parent
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
