"""Print the size of the package source: its line count and its executable statements.

The statement count is the number of ``ast.stmt`` nodes, docstrings left
out, so reformatting cannot move it, unlike the line count.  The two totals
come first; each module's statement count follows, one line each, so a
change's per-module deltas can be read off two runs.

Run from the repository root: ``python tools/src_size.py``.
"""

import ast
import glob
import os

lines = 0
counts = {}
for path in sorted(glob.glob("src/stakegame/*.py")):
    with open(path) as fh:
        source = fh.read()
    lines += source.count("\n")
    tree = ast.parse(source)
    docs = {
        id(node.body[0]) for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
        and isinstance(node.body[0].value.value, str)
    }
    module = os.path.splitext(os.path.basename(path))[0]
    counts[module] = sum(
        isinstance(node, ast.stmt) and id(node) not in docs for node in ast.walk(tree)
    )
print(f"{lines} lines")
print(f"{sum(counts.values())} statements")
for module, count in counts.items():
    print(f"{module} {count}")
