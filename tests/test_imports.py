"""The package's imports sit at module level and its module graph has no cycle.

A function-local import is how a module cycle stays hidden: it defers the
import past the point where the cycle would fail.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "stakegame"
MODULES = sorted(SRC.glob("*.py"))


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    nested = sorted(
        node.lineno
        for func in ast.walk(parse(path))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    )
    assert nested == [], f"{path.name}: imports inside functions at lines {nested}"


def test_module_graph_is_acyclic():
    imports = {
        path.stem: {
            node.module
            for node in ast.walk(parse(path))
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        }
        for path in MODULES
    }
    done: set = set()

    def visit(module: str, path: tuple) -> None:
        if module in path:
            raise AssertionError("import cycle: " + " -> ".join(path + (module,)))
        if module not in done:
            for imported in sorted(imports[module]):
                visit(imported, path + (module,))
            done.add(module)

    for module in sorted(imports):
        visit(module, ())
