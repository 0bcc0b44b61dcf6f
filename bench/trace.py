"""An in-memory span recorder for the traced pass.

A span is one call across a layer boundary: name, layer, start, end, the
span that caused it, and the operation it belongs to.  Spans are kept in
memory and written out once, when the pass ends.  A span's *self time* is
its duration minus the part of that interval its children cover — children
on other threads may overlap, so the covered part is a union, never a sum.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter


@dataclass(slots=True)
class Span:
    id: int
    name: str  # the boundary crossed, e.g. "Planner.plan"
    layer: str  # the repo module it belongs to, e.g. "core"
    parent: int | None
    op: int | None  # operation number, or None / WARMUP / AFTER
    start: float
    end: float = 0.0
    count: float | None = None  # work counted at this boundary (bytes, ...)

    @property
    def duration(self) -> float:
        return self.end - self.start


#: ``Span.op`` outside the replayed operations (which count from 0):
#: ``None`` during set-up, ``WARMUP`` while warming up, ``AFTER`` for work
#: timed once the replay is over (a compaction).
WARMUP = -1
AFTER = -2


class Recorder:
    """Collects spans from any thread.  Each thread keeps its own stack of
    open spans; work handed to another thread adopts the handing span as
    its parent (see ``bench.layers``), so every span of one operation
    hangs off that operation's root."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: int | None = None  # the replay is one operation at a time
        self._ids = itertools.count()
        self._local = threading.local()

    def stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def open(self, name: str, layer: str) -> Span:
        stack = self.stack()
        span = Span(
            next(self._ids), name, layer, stack[-1] if stack else None, self.op, perf_counter()
        )
        stack.append(span.id)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self.stack().pop()
        self.spans.append(span)  # list.append is atomic

    def add(
        self, name: str, layer: str, parent: int | None, op: int | None, start: float, end: float
    ) -> None:
        """Record a finished span that no single call frame brackets."""
        self.spans.append(Span(next(self._ids), name, layer, parent, op, start, end))

    def write(self, path: Path) -> None:
        """One JSON object per line, ordered by start time."""
        with open(path, "w", encoding="utf-8") as out:
            for span in sorted(self.spans, key=lambda s: s.start):
                out.write(json.dumps(asdict(span)) + "\n")


def covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time per span id: duration minus the union of its children's
    intervals, clipped to the span."""
    children: dict[int | None, list[Span]] = defaultdict(list)
    for span in spans:
        children[span.parent].append(span)
    return {
        span.id: span.duration
        - covered(
            [
                (max(child.start, span.start), min(child.end, span.end))
                for child in children[span.id]
                if child.end > span.start and child.start < span.end
            ]
        )
        for span in spans
    }


def ancestors(spans: list[Span]) -> dict[int, list[Span]]:
    """Every span's chain of ancestors, nearest first."""
    by_id = {span.id: span for span in spans}
    chains: dict[int, list[Span]] = {}
    for span in spans:
        chain = []
        parent = span.parent
        while parent is not None and parent in by_id:
            chain.append(by_id[parent])
            parent = by_id[parent].parent
        chains[span.id] = chain
    return chains
