"""README's "Library quick start" block runs as written and its CLI block
parses, so the package root, the CLI and the documentation cannot drift
apart."""

import argparse
import importlib
import math
import pkgutil
import re
import shlex
from fractions import Fraction
from pathlib import Path

import topophase
from topophase.cli import build_parser

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
    stabilizers, state, sol = (namespace[name] for name in ("stabilizers", "state", "sol"))
    assert stabilizers.verify(state, [float(f) * math.pi for f in sol.phis]).matched


def cli_section():
    text = README.read_text(encoding="utf-8")
    return text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]


def cli_block_commands():
    (block,) = re.findall(r"```sh\n(.*?)```", cli_section(), re.S)
    return [shlex.split(line, comments=True) for line in block.splitlines()
            if line.startswith("topophase ")]


def test_cli_block_matches_parser():
    # Parsed only, not run: a removed or renamed flag fails here.
    commands = cli_block_commands()
    assert len(commands) == 13
    parser = build_parser()
    for argv in commands:
        assert argv[0] == "topophase"
        parser.parse_args(argv[1:])


def test_cli_section_names_every_option_and_no_other():
    # A flag README describes that the parser lacks, or the reverse, fails here.
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", cli_section()))
    (commands,) = [action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    options = {opt for sub in commands.choices.values() for action in sub._actions
               for opt in action.option_strings if opt.startswith("--")}
    assert documented == options - {"--help"}


def test_module_references_exist():
    # A backticked `module.name` in README names something the package has.
    modules = "|".join(m.name for m in pkgutil.iter_modules(topophase.__path__))
    refs = set(re.findall(rf"`({modules})\.(\w+)", README.read_text(encoding="utf-8")))
    assert refs
    for module, name in sorted(refs):
        assert hasattr(importlib.import_module(f"topophase.{module}"), name), f"{module}.{name}"
