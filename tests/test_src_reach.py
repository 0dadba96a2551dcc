"""Every definition in ``src/semiq`` is read by the product.

A function, class, method or module-level name is reached when
``src/semiq`` or ``perfbench/`` names it outside its own body or
assignment: as a name, as an attribute, or as a string constant, since the
benchmark's tracer binds by string. An attribute read off a name that the
file binds by ``import`` names nothing here: ``np.stack`` is numpy's, not a
``stack`` method of ``src/semiq``. Code that only the tests read belongs in
``tests/oracles.py``. Dunders and ``main`` are entry points and exempt.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "semiq").glob("*.py"))
READERS = SRC + sorted((ROOT / "perfbench").glob("*.py"))

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions(node, prefix=""):
    """(qualified name, node) of every function, class and method under node,
    and of every name a module-level assignment binds, with the assignment
    as its node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, DEFS):
            yield prefix + child.name, child
            yield from definitions(child, f"{prefix}{child.name}.")
        elif isinstance(node, ast.Module) and isinstance(child, (ast.Assign, ast.AnnAssign)):
            for target in child.targets if isinstance(child, ast.Assign) else [child.target]:
                for name in ast.walk(target):       # x, each of (x, y), not x of x[k]
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                        yield name.id, child
        else:
            yield from definitions(child, prefix)


def modules(tree) -> set:
    """The names that ``import`` statements bind: np, math, cli."""
    return {alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
            if isinstance(node, ast.Import) for alias in node.names}


def mentions(tree):
    """(name, line) of every Name, string constant and Attribute, except an
    attribute read off an imported module."""
    mods = modules(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            if not (isinstance(node.value, ast.Name) and node.value.id in mods):
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
            name = qual.rsplit(".", 1)[-1]
            if name == "main" or (name.startswith("__") and name.endswith("__")):
                continue
            inside = lambda p, line: p == path and node.lineno <= line <= node.end_lineno
            if all(inside(p, line) for p, line in named[name]):
                unreached.append(f"{path.name}:{qual}")
    assert not unreached, f"named nowhere in src/semiq or perfbench/: {unreached}"


def test_an_attribute_of_an_imported_module_names_nothing():
    tree = ast.parse("import numpy as np\nfrom . import suites as s\n"
                     "np.stack(x)\ns.run_suites()\ny.stack\n")
    names = [name for name, _ in mentions(tree)]
    assert names.count("stack") == 1 and "run_suites" in names, names


def test_a_module_level_assignment_is_a_definition():
    tree = ast.parse("TABLE = {}\nA, (B, C) = 1, (2, 3)\nN: int = 0\nTABLE[A] = B\n"
                     "__all__ = []\ndef f():\n    local = 1\n")
    assert [name for name, _ in definitions(tree)] == [
        "TABLE", "A", "B", "C", "N", "__all__", "f"]
