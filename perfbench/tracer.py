"""In-memory spans recorded around calls into the package.

A span has a name, a start, an end (perf_counter_ns) and the index of its
parent span (-1 for a root); the root span of a workload pass identifies the
spans that belong to it. Spans are kept in memory, in parallel lists so that
opening and closing one stays cheap, and written out when the run ends.
"""

from __future__ import annotations

import gzip
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Iterator


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self._stack: list[int] = [-1]

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0)
        self._stack.append(index)
        self.starts.append(perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = self._open(name)
        try:
            yield index
        finally:
            self._close(index)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """Return ``fn`` with a span around every call."""
        open_, close = self._open, self._close

        def traced(*args):
            index = open_(name)
            try:
                return fn(*args)
            finally:
                close(index)

        return traced

    def children(self, index: int, name: str | None = None) -> list[int]:
        """Direct children of a span, optionally only those called ``name``."""
        return [
            i
            for i in range(index + 1, len(self.names))
            if self.parents[i] == index and (name is None or self.names[i] == name)
        ]

    def find(self, name: str, parent: int) -> int:
        """Index of the first direct child of ``parent`` called ``name``."""
        return self.children(parent, name)[0]

    def duration_s(self, index: int) -> float:
        return (self.ends[index] - self.starts[index]) * 1e-9

    def self_time_s(self, index: int) -> float:
        """Duration minus the time covered by direct children."""
        return self.duration_s(index) - sum(self.duration_s(c) for c in self.children(index))

    def accounting_errors(self, index: int) -> list[str]:
        """Children must lie inside the parent and must not overlap, so that
        children plus self time add up to the parent's duration."""
        errors = []
        previous_end = self.starts[index]
        for c in self.children(index):
            if not previous_end <= self.starts[c] <= self.ends[c] <= self.ends[index]:
                errors.append(f"span {c} ({self.names[c]}) is not nested in {self.names[index]}")
                break
            previous_end = self.ends[c]
        if self.self_time_s(index) < 0.0:
            errors.append(f"{self.names[index]} has negative self time")
        return errors

    def write(self, path: Path) -> None:
        """Write the spans as gzipped CSV: index, name, start_ns, end_ns,
        parent index (-1 for a root)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index,name,start_ns,end_ns,parent\n")
            rows = zip(self.names, self.starts, self.ends, self.parents)
            for i, (name, start, end, parent) in enumerate(rows):
                fh.write(f"{i},{name},{start},{end},{parent}\n")
