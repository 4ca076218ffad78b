"""Spans around the benchmark's calls into ramforge, kept in memory.

A span is [name, start_ns, end_ns, parent index, item id].  Clocks are
time.perf_counter_ns, which on Linux reads CLOCK_MONOTONIC and so is
comparable across processes; the CLI probe's spans are merged into the
worker's list as children of the process span that ran them.
"""

from __future__ import annotations

import json
import time
from contextlib import nullcontext

_NULL = nullcontext()


def untraced(name):
    """Span factory for untraced runs: records nothing."""
    return _NULL


class Tracer:
    def __init__(self):
        self.spans = []
        self.item = None
        self._stack = []

    def span(self, name):
        return _Span(self, name)

    def add(self, name, start_ns, end_ns, parent=None):
        """Record a finished span measured elsewhere; returns its index."""
        self.spans.append([name, start_ns, end_ns, parent, self.item])
        return len(self.spans) - 1

    def self_times(self, first=0, last=None, factor=None):
        """{name: [self_ns, count]} over spans[first:last].  Self time is a
        span's duration minus the durations of its direct children, times
        factor(start_ns) when a factor is given."""
        spans = self.spans[first:last]
        covered = {}
        for name, start, end, parent, _ in spans:
            if parent is not None:
                covered[parent] = covered.get(parent, 0) + end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(spans, start=first):
            acc = out.setdefault(name, [0, 0])
            own = end - start - covered.get(i, 0)
            acc[0] += own * factor(start) if factor else own
            acc[1] += 1
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        parent = t._stack[-1] if t._stack else None
        self.index = len(t.spans)
        t.spans.append([self.name, time.perf_counter_ns(), 0, parent, t.item])
        t._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][2] = time.perf_counter_ns()
        t._stack.pop()
        return False
