"""Static checks of the library source."""
import ast
from pathlib import Path

import toricbdiv

SRC = Path(toricbdiv.__file__).parent


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
