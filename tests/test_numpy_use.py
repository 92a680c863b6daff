"""Where `src/topophase` may use numpy.  Only `search` (the batched rank test
and the oracle's int16 minors) and `stabilizers` (the float verification)
import it, and no module reaches LAPACK: every exact result rests on integer
arithmetic.  The modules are read with `ast`, not imported."""

import ast

from test_public_names import PACKAGE

NUMPY_MODULES = {"search", "stabilizers"}


def trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}


def imported_modules(tree):
    """Dotted names of the modules a tree imports, and of what it imports
    from them."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def test_numpy_only_in_search_and_stabilizers():
    users = {module for module, tree in trees().items()
             if any(name.split(".")[0] == "numpy" for name in imported_modules(tree))}
    assert users == NUMPY_MODULES


def test_no_linalg_attribute_or_import():
    found = set()
    for module, tree in trees().items():
        if any(isinstance(node, ast.Attribute) and node.attr == "linalg" for node in ast.walk(tree)):
            found.add(module)
        if any("linalg" in name.split(".") for name in imported_modules(tree)):
            found.add(module)
    assert found == set()
