"""Where `src/topophase` may use numpy.  Only `search` (the batched rank test
and the oracle's int16 minors) and `stabilizers` (the float verification)
import it, and no module reaches LAPACK: every exact result rests on integer
arithmetic.  The static tests read the modules with `ast`.  The import tests
run fresh interpreters: neither the package root, the CLI's parser nor
`analyze` loads numpy, and the root resolves the names that need it on first
access."""

import ast
import json
import os
import subprocess
import sys

from test_public_names import PACKAGE
from topophase.states import ghz_state, state_to_json

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


def run_fresh(code, cwd):
    """stdout of `code` in a fresh interpreter on this process's path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True,
                          text=True, check=True).stdout


def test_numpy_loads_only_in_the_commands_that_use_it(tmp_path):
    (tmp_path / "ghz3.json").write_text(state_to_json(ghz_state(3)))
    code = (
        "import contextlib, io, json, sys\n"
        "seen = {}\n"
        "def mark(step):\n"
        "    seen[step] = [m for m in ('numpy', 'topophase.search', 'topophase.stabilizers')\n"
        "                  if m in sys.modules]\n"
        "import topophase\n"
        "mark('import topophase')\n"
        "from topophase import cli\n"
        "cli.build_parser()\n"
        "mark('build_parser')\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    seen['analyze rc'] = cli.main(['analyze', 'ghz3.json'])\n"
        "    mark('analyze')\n"
        "    seen['search rc'] = cli.main(['search', '--n', '4', '--out', 's4'])\n"
        "    mark('search')\n"
        "print(json.dumps(seen))\n"
    )
    assert json.loads(run_fresh(code, tmp_path)) == {
        "import topophase": [],
        "build_parser": [],
        "analyze rc": 0,
        "analyze": [],
        "search rc": 0,
        "search": ["numpy", "topophase.search"],
    }


def test_package_root_resolves_the_numpy_names_on_access(tmp_path):
    code = (
        "import json, sys\n"
        "import topophase\n"
        "seen = {'stabilizers': getattr(topophase, 'stabilizers')\n"
        "                       is sys.modules['topophase.stabilizers']}\n"
        "from topophase import enumerate_structures, search_tables\n"
        "search = sys.modules['topophase.search']\n"
        "seen['search_tables'] = search_tables is search.search_tables\n"
        "seen['enumerate_structures'] = enumerate_structures is search.enumerate_structures\n"
        "seen['search'] = getattr(topophase, 'search') is search\n"
        "try:\n"
        "    topophase.no_such_name\n"
        "except AttributeError as exc:\n"
        "    seen['unknown'] = str(exc)\n"
        "print(json.dumps(seen))\n"
    )
    assert json.loads(run_fresh(code, tmp_path)) == {
        "stabilizers": True,
        "search_tables": True,
        "enumerate_structures": True,
        "search": True,
        "unknown": "module 'topophase' has no attribute 'no_such_name'",
    }
