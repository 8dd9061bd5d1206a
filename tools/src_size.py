"""Print the size of the package source: its line count and its executable statements.

The statement count is the number of ``ast.stmt`` nodes, docstrings left
out, so reformatting cannot move it, unlike the line count.

Run from the repository root: ``python tools/src_size.py``.
"""

import ast
import glob

lines = 0
count = 0
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
    count += sum(isinstance(node, ast.stmt) and id(node) not in docs for node in ast.walk(tree))
print(f"{lines} lines")
print(f"{count} statements")
