"""In-memory spans recorded around the benchmark's calls into ``repro``.

A span has a name, a start and end (``time.perf_counter`` seconds), the
index of its parent span (or ``-1``) and a request id that groups the
spans of one solve or one served request.  Spans stay in memory while the
run measures and are written out as JSON lines when it ends.

A span's *self time* is its duration minus the part of its interval that
its children cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List


class Tracer:
    """An append-only span store with a stack for implicit parents."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.rids: List[str] = []
        self._stack: List[int] = []

    def add(self, name: str, start: float, end: float, parent: int = -1,
            rid: str = "") -> int:
        """Record a finished span; returns its index."""
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        self.rids.append(rid)
        return len(self.names) - 1

    @contextmanager
    def span(self, name: str, rid: str = "") -> Iterator[int]:
        """Time the ``with`` body as a child of the innermost open span."""
        parent = self._stack[-1] if self._stack else -1
        index = self.add(name, time.perf_counter(), 0.0, parent, rid)
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            self.ends[index] = time.perf_counter()

    def duration(self, index: int) -> float:
        return self.ends[index] - self.starts[index]

    def self_times(self) -> List[float]:
        """Per-span duration minus the union of its children's intervals."""
        children: Dict[int, List[int]] = {}
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                children.setdefault(parent, []).append(index)
        result = []
        for index in range(len(self.names)):
            start, end = self.starts[index], self.ends[index]
            covered = 0.0
            reach = start
            for child in sorted(children.get(index, ()), key=self.starts.__getitem__):
                lo = max(self.starts[child], reach)
                hi = min(self.ends[child], end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            result.append((end - start) - covered)
        return result

    def self_time_by_name(self) -> Dict[str, float]:
        """Total self time per span name, in seconds."""
        totals: Dict[str, float] = {}
        for name, value in zip(self.names, self.self_times()):
            totals[name] = totals.get(name, 0.0) + value
        return totals

    def write(self, path: str) -> None:
        """Write one JSON object per span, times relative to the first span."""
        base = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as sink:
            for index, self_time in enumerate(self.self_times()):
                sink.write(json.dumps({
                    "i": index,
                    "name": self.names[index],
                    "start_ms": round((self.starts[index] - base) * 1e3, 4),
                    "end_ms": round((self.ends[index] - base) * 1e3, 4),
                    "self_ms": round(self_time * 1e3, 4),
                    "parent": self.parents[index],
                    "rid": self.rids[index],
                }) + "\n")
