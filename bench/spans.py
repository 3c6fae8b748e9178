"""In-memory spans around the benchmark's calls into each layer.

A span is (name, start_ns, end_ns, parent, query id, raised).  Spans stay in
flat lists while the run measures and are written out once, at the end.  A
span's self time is its duration minus the durations of its direct children,
which never overlap because the benchmark is single-threaded.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.queries: list[int] = []
        self.raised: list[bool] = []
        self._open: list[int] = []

    def __len__(self):
        return len(self.names)

    def _open_span(self, name: str, query: int) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.queries.append(query)
        self.raised.append(False)
        self.ends.append(0)
        self.starts.append(0)
        self._open.append(index)
        return index

    def call(self, name: str, query: int, fn, *args):
        """fn(*args) inside a span; an exception is recorded and re-raised."""
        index = self._open_span(name, query)
        self.starts[index] = perf_counter_ns()
        try:
            return fn(*args)
        except BaseException:
            self.raised[index] = True
            raise
        finally:
            self.ends[index] = perf_counter_ns()
            self._open.pop()

    @contextmanager
    def span(self, name: str, query: int):
        """A span around a block, for spans that hold child spans."""
        index = self._open_span(name, query)
        self.starts[index] = perf_counter_ns()
        try:
            yield
        except BaseException:
            self.raised[index] = True
            raise
        finally:
            self.ends[index] = perf_counter_ns()
            self._open.pop()

    def durations(self, name: str) -> list[int]:
        return [e - s for n, s, e in zip(self.names, self.starts, self.ends) if n == name]

    def summary(self) -> dict[str, dict[str, int]]:
        """Per span name: calls, exceptions raised, and total self time."""
        self_ns = [e - s for s, e in zip(self.starts, self.ends)]
        for parent, s, e in zip(self.parents, self.starts, self.ends):
            if parent >= 0:
                self_ns[parent] -= e - s
        out: dict[str, dict[str, int]] = {}
        for name, own, raised in zip(self.names, self_ns, self.raised):
            row = out.setdefault(name, {"calls": 0, "exceptions": 0, "self_ns": 0})
            row["calls"] += 1
            row["exceptions"] += raised
            row["self_ns"] += own
        return out

    def write(self, path) -> None:
        """One JSON array per line: name, start, end, parent index, query id,
        raised (0/1).  Parent indexes refer to line numbers, from 0."""
        with open(path, "w") as out:
            for row in zip(self.names, self.starts, self.ends, self.parents, self.queries, self.raised):
                out.write(json.dumps([*row[:5], int(row[5])], separators=(",", ":")) + "\n")
