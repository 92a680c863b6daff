"""The benchmark's traced run wraps `topophase.<module>.<name>` for every entry
of `TRACE_TARGETS` in `perfbench/run.py`; a missing name would crash that run.
The list is read with `ast`, so nothing from the benchmark is imported."""

import ast
import importlib
from pathlib import Path

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def trace_targets():
    tree = ast.parse(RUN_PY.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACE_TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACE_TARGETS assignment in {RUN_PY}")


def test_every_trace_target_is_a_module_function():
    targets = trace_targets()
    assert targets
    for modname, functions in targets.items():
        module = importlib.import_module(f"topophase.{modname}")
        for fname in functions:
            assert callable(getattr(module, fname, None)), f"topophase.{modname}.{fname}"
