"""README's "Library quick start" block runs as written, so the package root
and the documentation cannot drift apart."""

import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_block():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, re.S)
    return block


def test_library_quick_start_runs():
    namespace = {}
    exec(compile(quick_start_block(), str(README), "exec"), namespace)
    assert namespace["result"].denominators == (4, 5, 6, 7, 8, 9)
    assert namespace["sol"].chi == Fraction(1)
    stabilizers = namespace["stabilizers"]
    assert stabilizers.verify(namespace["state"], namespace["ops"]).matched
