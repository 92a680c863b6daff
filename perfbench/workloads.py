"""The four workloads: the CLI jobs of one pass, the work units each job
counts, and the check each job's output must pass.

One pass of `search` or `oracle` is a single job; one pass of `analyze` or
`verify` is one job per corpus state.  Every job is an argv for
`topophase.cli.main`; a check returns None when the output is right and a
one-line reason otherwise.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from typing import Callable, Optional

import corpus

# Explicit bound, so a change of the default bound cannot change the workload.
SEARCH_SIZES = {"full": (8, 32), "tiny": (6, 24)}
# sha256 of the CSV written by `search --n N --bound B` (1565 records at full size).
SEARCH_CSV_SHA256 = {
    "full": "61758bbdec1565df701d317882dcbbcab40f2a51864bd5b408f9469b07b41e9d",
    "tiny": "2cea96a50ea97b5c6867f131e27546d059192508967a344a39668b31ab28734d",
}
ORACLE_SIZES = {"full": 4, "tiny": 3}

# Workloads whose host-speed calibration also times the memory kernel (see
# calibrate.py): the tail of `verify` is numpy streaming over up to 2^20
# amplitudes; the others are interpreted code.
MEMORY_BOUND = {"verify"}

ITEM_UNITS = {
    "search": "multisets scanned",
    "oracle": "supports examined",
    "analyze": "states",
    "verify": "states",
}

Check = Callable[[Optional[int], str, dict], Optional[str]]


@dataclass(frozen=True)
class Job:
    name: str
    argv: list
    items: int
    check: Check
    files: tuple = ()


def _partitions(total: int, parts: int, cap: int):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(min(cap, total - parts + 1), -(-total // parts) - 1, -1):
        for rest in _partitions(total - first, parts - 1, first):
            yield (first,) + rest


def multisets_scanned(n: int, bound: int) -> int:
    """Multisets with gcd 1 that `search_tables(n, bound)` examines."""
    return sum(
        1
        for total in range(n, bound + 1)
        for p in _partitions(total, n, total)
        if gcd(*p) == 1
    )


def _search_jobs(size: str, workdir: str) -> list:
    n, bound = SEARCH_SIZES[size]
    base = os.path.join(workdir, f"search_n{n}")
    csv_path, json_path = base + ".csv", base + ".json"
    pinned = SEARCH_CSV_SHA256[size]

    def check(rc, stdout, files):
        if rc != 0:
            return f"exit code {rc}"
        data = files.get(csv_path)
        if data is None:
            return "no CSV written"
        got = hashlib.sha256(data).hexdigest()
        return None if got == pinned else f"CSV sha256 {got[:12]} != pinned {pinned[:12]}"

    argv = ["search", "--n", str(n), "--bound", str(bound), "--workers", "1", "--out", base]
    return [Job("search", argv, multisets_scanned(n, bound), check, (csv_path, json_path))]


def _oracle_jobs(size: str) -> list:
    n = ORACLE_SIZES[size]
    passed = re.compile(rf"^oracle check n={n}: PASS \(\d+ records, bound \d+\)$", re.M)

    def check(rc, stdout, files):
        if rc != 0:
            return f"exit code {rc}"
        return None if passed.search(stdout) else "no PASS line"

    argv = ["oracle-check", "--n", str(n), "--workers", "1"]
    return [Job("oracle", argv, comb(2 ** n - 1, n), check)]


def _analyze_check(state: corpus.CorpusState) -> Check:
    rows = state.rows()

    def check(rc, stdout, files):
        if rc != 0:
            return f"exit code {rc}"
        doc = json.loads(stdout)
        if (doc["n"], doc["m"]) != (state.n, state.m):
            return "wrong n or m"
        d, cert, kind = doc["d"], doc["certificate"], doc["certificate_kind"]
        if cert is None:
            return None if d == 0 and doc["chi_min"] == "continuous" else "no certificate but d != 0"
        if d == 0 or doc["chi_min"] != {"num": 2 // gcd(2, d), "den": d // gcd(2, d)}:
            return f"chi_min {doc['chi_min']} does not match d = {d}"
        if len(cert) != state.m or any(
            sum(c * row[k] for c, row in zip(cert, rows)) for k in range(state.n)
        ):
            return "certificate is not a left-kernel vector"
        if sum(cert) % d:
            return "certificate sum is not a multiple of d"
        if kind == "convex" and (min(cert) < 0 or sum(cert) <= 0):
            return "convex certificate with a negative coefficient"
        if state.kind == "constructed":
            if kind != "convex" or min(cert) <= 0:
                return "constructed state without an all-positive certificate"
            if d != 2 * state.denominator:
                return f"d = {d}, expected 2 * (sum c - Z) = {2 * state.denominator}"
        return None

    return check


def _verify_check(state: corpus.CorpusState) -> Check:
    def check(rc, stdout, files):
        if rc != 0:
            return f"exit code {rc}"
        doc = json.loads(stdout)
        if doc["matched"] is not True:
            return "matched is not true"
        chi = Fraction(doc["chi"]["num"], doc["chi"]["den"])
        if (chi * state.denominator).denominator != 1:
            return f"chi = {chi} pi is not a multiple of pi/{state.denominator}"
        return None

    return check


def build(name: str, seed: int, size: str, workdir: str) -> tuple:
    """Jobs of one pass and the corpus description (None without a corpus)."""
    if name == "search":
        return _search_jobs(size, workdir), None
    if name == "oracle":
        return _oracle_jobs(size), None
    if name == "analyze":
        states, argv_tail, make_check = corpus.analyze_corpus(seed, size), [], _analyze_check
    else:
        states, argv_tail, make_check = corpus.verify_corpus(seed, size), ["--derive"], _verify_check
    paths = corpus.write_corpus(states, os.path.join(workdir, "corpus"))
    jobs = [
        Job(s.name, [name, path, *argv_tail], 1, make_check(s))
        for s, path in zip(states, paths)
    ]
    return jobs, corpus.describe(states)
