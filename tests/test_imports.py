"""The package's imports sit at module level, each is used, and its module graph has no cycle.

A function-local import is how a module cycle stays hidden: it defers the
import past the point where the cycle would fail.  The same AST checks keep
``Instance``'s private tables inside ``core``.
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



# __init__.py imports only to re-export, so it is left out
@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_every_import_is_used(path):
    tree = parse(path)
    imported = {
        (alias.asname or alias.name).split(".")[0]: node.lineno
        for node in tree.body
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    assert unused == [], f"{path.name}: unused imports (line, name) {unused}"


# Instance's private tables: the token values by level, the type order and
# the players by id.  Other modules read them through Instance's methods.
PRIVATE_TABLES = {"_values", "_order", "_by_id"}


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "core.py"], ids=lambda p: p.name
)
def test_only_core_names_the_instance_tables(path):
    # an attribute, a bare name, or a string such as setattr's
    named = sorted(
        (node.lineno, name)
        for node in ast.walk(parse(path))
        for name in [
            node.attr if isinstance(node, ast.Attribute)
            else node.id if isinstance(node, ast.Name)
            else node.value if isinstance(node, ast.Constant)
            else None
        ]
        if isinstance(name, str) and name in PRIVATE_TABLES
    )
    assert named == [], f"{path.name}: names Instance's private tables at (line, name) {named}"


# The suffix kernel and its labeling stay inside equilibrium.  Other modules
# solve a myopic stage through its one door, _priced_myopic, which they may
# import; they may name RankedProfile in an annotation, but never build one.
@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "equilibrium.py"], ids=lambda p: p.name
)
def test_only_equilibrium_builds_the_kernel_and_labels_its_ranks(path):
    found = sorted(
        (node.lineno, name)
        for node in ast.walk(parse(path))
        for name in (
            [alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
            else [node.id] if isinstance(node, ast.Name)
            else [node.attr] if isinstance(node, ast.Attribute)
            else [f"{getattr(node.func, 'id', getattr(node.func, 'attr', ''))}(...)"]
            if isinstance(node, ast.Call)
            else []
        )
        if name in ("_labels", "RankedProfile(...)")
    )
    assert found == [], f"{path.name}: reaches past the myopic solve's door at (line, name) {found}"


# Integer stakes come back to lowest terms in core alone: a module that steps
# them does so by ScaledProfile.plus, not by a gcd of its own.
@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "core.py"], ids=lambda p: p.name
)
def test_only_core_imports_gcd(path):
    found = sorted(
        node.lineno
        for node in ast.walk(parse(path))
        if isinstance(node, ast.ImportFrom) and node.module == "math"
        and any(alias.name == "gcd" for alias in node.names)
        or isinstance(node, ast.Attribute) and node.attr == "gcd"
        and isinstance(node.value, ast.Name) and node.value.id == "math"
    )
    assert found == [], f"{path.name}: takes math.gcd at lines {found}"
