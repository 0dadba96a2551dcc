"""Every definition in ``src/semiq`` is read by the product.

A function, class or method is reached when ``src/semiq`` or
``perfbench/`` names it outside its own body: as a name, as an attribute,
or as a string constant, since the benchmark's tracer binds by string.
Code that only the tests read belongs in ``tests/oracles.py``. Dunders and
``main`` are entry points and exempt.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "semiq").glob("*.py"))
READERS = SRC + sorted((ROOT / "perfbench").glob("*.py"))

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions(node, prefix=""):
    """(qualified name, node) of every function, class and method under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, DEFS):
            yield prefix + child.name, child
            yield from definitions(child, f"{prefix}{child.name}.")
        else:
            yield from definitions(child, prefix)


def mentions(tree):
    """(name, line) of every Name, Attribute and string constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def test_every_src_definition_is_named_by_the_product():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in READERS}
    named = defaultdict(list)           # name -> [(path, line)]
    for path, tree in trees.items():
        for name, line in mentions(tree):
            named[name].append((path, line))
    unreached = []
    for path in SRC:
        for qual, node in definitions(trees[path]):
            if node.name == "main" or (node.name.startswith("__") and node.name.endswith("__")):
                continue
            inside = lambda p, line: p == path and node.lineno <= line <= node.end_lineno
            if all(inside(p, line) for p, line in named[node.name]):
                unreached.append(f"{path.name}:{qual}")
    assert not unreached, f"named nowhere in src/semiq or perfbench/: {unreached}"
