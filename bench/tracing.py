"""In-memory trace spans for the benchmark's traced replay.

A span records its op, its own id, the id of the span it was opened in,
its name and its start and end in ns.  Spans stay in memory and are
written out once, when the run ends.  A layer's self time is its span
time minus the time of the spans opened inside it.
"""

from __future__ import annotations

import gzip
import time
from collections import Counter, defaultdict
from pathlib import Path


class _Span:
    __slots__ = ("tracer", "name", "sid", "parent", "start")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        tr = self.tracer
        self.sid = tr.next_id
        tr.next_id += 1
        self.parent = tr.stack[-1]
        tr.stack.append(self.sid)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter_ns()
        tr = self.tracer
        tr.stack.pop()
        tr.spans.append((tr.op, self.sid, self.parent, self.name, self.start, end))


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.op = -1
        self.next_id = 0
        self.stack = [-1]

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def count(self, name: str, n) -> None:
        self.counts[name] += n

    def totals(self) -> dict[str, dict]:
        """Per span name: number of spans and their total ns."""
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "ns": 0})
        for _, _, _, name, start, end in self.spans:
            out[name]["calls"] += 1
            out[name]["ns"] += end - start
        return dict(out)

    def self_ns_by_label(self, labels: list[str]) -> dict[str, Counter]:
        """Self time per span name, summed over the ops of each label."""
        child_ns: Counter = Counter()
        for _, _, parent, _, start, end in self.spans:
            child_ns[parent] += end - start
        out: dict[str, Counter] = defaultdict(Counter)
        for op, sid, _, name, start, end in self.spans:
            out[labels[op]][name] += end - start - child_ns[sid]
        return dict(out)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("op,span,parent,name,start_ns,end_ns\n")
            for rec in self.spans:
                fh.write(",".join(map(str, rec)) + "\n")
