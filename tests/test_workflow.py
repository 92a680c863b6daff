"""The CI workflow's "Console script ..." steps, run locally in order.

Each step's `run: |` block is read from `.github/workflows/tests.yml` by
indentation (PyYAML is not a test dependency) and run under
`bash -e -o pipefail`, with one temporary `RUNNER_TEMP` shared by all steps,
as on a runner.  A `topophase` shim first on PATH runs this interpreter's
`python -m topophase.cli` with `src` on PYTHONPATH, in place of the
installed console script; a `python3` shim pins the interpreter the steps'
inline checks run on.  So a pinned hash or value in the workflow that the
program no longer produces fails here, not only in CI.
"""

import os
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
STEP_PREFIX = "- name: Console script "


def console_script_steps(text):
    """(name, script) of each step whose name starts with STEP_PREFIX, in
    file order: the lines after its `run: |` key that are blank or indented
    deeper than the key, with the first line's indentation removed."""
    lines = text.splitlines()
    steps = []
    for i, line in enumerate(lines):
        if not line.lstrip().startswith(STEP_PREFIX):
            continue
        name = line.lstrip()[len("- name: "):]
        key_indent = len(line) - len(line.lstrip()) + 2  # the step's other keys
        j = i + 1
        while lines[j].strip() != "run: |":
            assert len(lines[j]) - len(lines[j].lstrip()) == key_indent, (name, lines[j])
            j += 1
        block = []
        for body in lines[j + 1:]:
            if body.strip() and len(body) - len(body.lstrip()) <= key_indent:
                break
            block.append(body)
        while block and not block[-1].strip():
            block.pop()
        indent = len(block[0]) - len(block[0].lstrip())
        steps.append((name, "\n".join(body[indent:] for body in block) + "\n"))
    return steps


def write_shims(directory):
    python = shlex.quote(sys.executable)
    for name, command in (("topophase", f"{python} -m topophase.cli"), ("python3", python)):
        shim = directory / name
        shim.write_text(f'#!/bin/sh\nexec {command} "$@"\n')
        shim.chmod(0o755)


def test_console_script_steps_pass(tmp_path):
    steps = console_script_steps(WORKFLOW.read_text(encoding="utf-8"))
    assert [name for name, _ in steps] == [
        "Console script writes the pinned search tables",
        "Console script derives and verifies the README structure",
        "Console script analyzes without loading numpy",
        'Console script derives with a winding list joined by "="',
        "Console script forks the oracle workers",
    ]
    shims, runner_temp = tmp_path / "bin", tmp_path / "runner"
    shims.mkdir()
    runner_temp.mkdir()
    write_shims(shims)
    env = dict(os.environ, RUNNER_TEMP=str(runner_temp),
               PATH=f"{shims}{os.pathsep}{os.environ.get('PATH', '')}",
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    for name, script in steps:
        done = subprocess.run(["bash", "-e", "-o", "pipefail", "-c", script], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, (name, done.returncode, done.stdout, done.stderr)
