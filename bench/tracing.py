"""In-memory spans around the benchmark's calls into the library layers.

A span is one call from the benchmark into a public function of a layer:
its name ("layer.function"), start and end (perf_counter_ns), the index of
the span that was open when it started (its parent, -1 for none) and the
operation id.  Spans stay in memory until the traced phase ends.

A span's self time is its duration minus the part covered by its child
spans; summing self times by layer splits an operation's time without
double counting nested calls.

With ``memory=True`` the tracer also records, per layer, the largest
tracemalloc peak above the allocation level at the start of one of that
layer's calls.  tracemalloc slows allocation down, so memory is measured
in a pass of its own, never in a timed one.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from collections import Counter


class Tracer:
    def __init__(self, memory: bool = False):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.peak_bytes: Counter = Counter()
        self.op = 0
        self._memory = memory
        self._stack: list[list[int]] = []

    def call(self, name: str, fn, *args):
        """Run fn(*args) inside a span named ``name``."""
        index = len(self.spans)
        self.spans.append(None)
        frame = [index, 0, 0]  # span index, traced bytes at entry, peak seen
        if self._memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:
                self._stack[-1][2] = max(self._stack[-1][2], peak)
            tracemalloc.reset_peak()
            frame[1] = frame[2] = current
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op)
            if self._memory:
                peak = max(frame[2], tracemalloc.get_traced_memory()[1])
                layer = name.split(".", 1)[0]
                self.peak_bytes[layer] = max(self.peak_bytes[layer], peak - frame[1])
                if self._stack:
                    self._stack[-1][2] = max(self._stack[-1][2], peak)
                tracemalloc.reset_peak()

    def count(self, name: str, amount: int) -> None:
        self.counts[name] += amount

    def maximum(self, name: str, value: int) -> None:
        self.counts[name] = max(self.counts[name], value)

    def self_ns(self) -> Counter:
        """Self time in nanoseconds, summed by (operation id, span name)."""
        covered = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: Counter = Counter()
        for i, (name, start, end, _, op) in enumerate(self.spans):
            totals[op, name] += end - start - covered[i]
        return totals

    def write(self, stream, pass_index: int) -> None:
        for name, start, end, parent, op in self.spans:
            stream.write(json.dumps({
                "pass": pass_index, "op": op, "name": name,
                "start_ns": start, "end_ns": end, "parent": parent,
            }) + "\n")
