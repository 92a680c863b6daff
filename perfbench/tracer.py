"""Spans around topophase's module boundaries, installed from outside.

`Tracer.install` swaps module attributes: every topophase module whose
namespace holds one of the target functions (the defining module, so calls
inside it count, and every module that imported it by name) gets a wrapper
instead.  `uninstall` puts the originals back.  Nothing under `src/` changes.

Each wrapped call is a span with name, start, end, parent span and job id.
Spans stay in memory until `dump`.  Once a name has produced SPAN_LIMIT spans
in one job, its further calls in that job are only counted, with their self
time, under the nearest ancestor that is still a recorded span.  Self time
is a span's duration minus the time its wrapped children cover.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from time import perf_counter
from types import ModuleType
from typing import Callable, Optional

SPAN_LIMIT = 10_000


class _Stat:
    __slots__ = ("calls", "self_s", "errors", "non_none", "work")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.errors = 0
        self.non_none = 0
        self.work: list = []  # what the `work` hook returned, one entry per call


class Tracer:
    def __init__(self, origin: float):
        self.origin = origin
        self.job: Optional[str] = None
        self.stats: dict[str, _Stat] = {}
        self.spans: list[tuple] = []
        self.aggregates: dict[tuple, list] = {}
        self._stack: list[list] = []  # [child_s, span_id or None, anchor span id]
        self._per_job: Counter = Counter()
        self._patches: list[tuple] = []

    def install(self, package, targets: dict[str, tuple[str, ...]],
                work: Optional[dict[str, Callable]] = None) -> None:
        """Wrap `package.<module>.<function>` for each target, in every
        submodule of `package` that refers to the same function object."""
        work = work or {}
        modules = [package] + [
            value for value in vars(package).values() if isinstance(value, ModuleType)
        ]
        for modname, functions in targets.items():
            owner = getattr(package, modname)
            for fname in functions:
                original = getattr(owner, fname)
                name = f"{modname}.{fname}"
                self.stats.setdefault(name, _Stat())
                wrapper = self._wrap(name, original, work.get(name))
                for mod in modules:
                    if getattr(mod, fname, None) is original:
                        self._patches.append((mod, fname, original))
                        setattr(mod, fname, wrapper)

    def uninstall(self) -> None:
        for mod, fname, original in reversed(self._patches):
            setattr(mod, fname, original)
        self._patches.clear()

    def _wrap(self, name: str, fn: Callable, work: Optional[Callable]) -> Callable:
        stat = self.stats[name]
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            anchor = stack[-1][2] if stack else None
            per_job = self._per_job
            if per_job[name] < SPAN_LIMIT:
                per_job[name] += 1
                span_id = len(self.spans)
                self.spans.append(None)  # reserve the id; filled on exit
                frame = [0.0, span_id, span_id]
            else:
                frame = [0.0, None, anchor]
            stack.append(frame)
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                own = duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                stat.calls += 1
                stat.self_s += own
                if not ok:
                    stat.errors += 1
                elif result is not None:
                    stat.non_none += 1
                if work is not None:
                    stat.work.append(work(args, kwargs))
                if frame[1] is not None:
                    self.spans[frame[1]] = (
                        name, start - self.origin, end - self.origin, anchor, self.job
                    )
                else:
                    agg = self.aggregates.setdefault((self.job, anchor, name), [0, 0.0])
                    agg[0] += 1
                    agg[1] += own

        return wrapper

    def start_job(self, job: str) -> None:
        self.job = job
        self._per_job = Counter()

    def dump(self, path: str) -> None:
        doc = {
            "span_fields": ["name", "start_s", "end_s", "parent", "job"],
            "spans": self.spans,
            "aggregate_fields": ["job", "parent", "name", "count", "self_s"],
            "aggregates": [[*key, *val] for key, val in self.aggregates.items()],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
