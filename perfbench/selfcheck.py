"""Fast self-check of the benchmark, under a minute on two cores.

    python3 perfbench/selfcheck.py

Runs every workload of BENCHMARK.json at tiny size, untraced and traced, and
asserts that each run passes its output checks and emits exactly the metrics
BENCHMARK.json names for that mode, each with its unit (end-to-end values
nonzero).  Then runs the benchmark in a directory holding only
BENCHMARK.json and the benchmark's files, where it must fail without a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(root: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)


def check_run(workload: str, trace: int, expected: dict) -> list:
    proc = _run(ROOT, workload, trace)
    label = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{label}: exit code {proc.returncode}: {proc.stderr.strip()[-400:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    for name in sorted(set(expected) | set(got)):
        if got.get(name) != expected.get(name):
            problems.append(f"{label}: {name} unit {got.get(name)!r}, want {expected.get(name)!r}")
    for name, m in result["metrics"].items():
        value = m["value"]
        if not isinstance(value, (int, float)) or (trace == 0 and not value > 0):
            problems.append(f"{label}: {name} = {value!r}")
    print(f"{label}: {'ok' if not problems else 'FAILED'} ({len(got)} metrics)")
    return problems


def check_bare_directory() -> list:
    """Without the topophase sources the benchmark must exit nonzero, no result."""
    bare = os.path.join(ROOT, ".perfbench-out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "search", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit code {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    print("bare directory: ok (exit code %d, no result)" % proc.returncode)
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems += check_run(workload, trace, expected[trace])
    problems += check_bare_directory()
    for problem in problems:
        print("FAILED", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
