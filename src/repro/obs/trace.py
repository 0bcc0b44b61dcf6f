"""Hierarchical query-pipeline tracing.

A :class:`Tracer` records one tree of :class:`Span` objects per query —
parse → translate → optimize → plan → index evaluation → candidate parsing
→ database instantiation — each span carrying wall-time plus a flat metric
dict (bytes scanned, regions produced, cache hits, ...).  The finished tree
is a :class:`Trace`, attached to every traced
:class:`~repro.core.engine.QueryResult` and exportable as JSON for the
benchmark harness.

Design constraints, in order:

1. *Cheap when on, absent when not asked for.*  Tracing is enabled by
   default on library and CLI queries, so a span costs two
   ``perf_counter`` calls, one small object, and one list append; hook
   callbacks run only when registered.  The server's ``/query`` asks for
   no trace (``query(..., trace=False)``) and builds no span at all: it
   serves rows, and ``/analyze`` is where a client asks for the tree.
2. *Invisible when off.*  Pipeline code receives :data:`NULL_TRACER` when
   tracing is disabled and never branches on it — the null tracer's spans
   are shared no-op singletons.
3. *Self-describing.*  ``Trace.to_json()`` round-trips through
   ``Trace.from_json()`` so harnesses can persist and re-load traces.
"""

from __future__ import annotations

import json
from time import perf_counter
from typing import Any, Callable, Iterable, Iterator

#: Metric values are JSON scalars.
Metric = "int | float | str | bool"

SpanHook = Callable[["Span"], None]


class Span:
    """One timed pipeline stage: a name, a wall-clock interval, metrics,
    and child spans (sub-stages)."""

    __slots__ = ("name", "started_at", "ended_at", "metrics", "children")

    def __init__(
        self,
        name: str,
        started_at: float = 0.0,
        ended_at: float | None = None,
        metrics: dict[str, Any] | None = None,
        children: list["Span"] | None = None,
    ) -> None:
        self.name = name
        self.started_at = started_at
        self.ended_at = ended_at
        self.metrics = metrics if metrics is not None else {}
        self.children = children if children is not None else []

    @property
    def duration(self) -> float:
        """Elapsed wall-clock seconds (0.0 while the span is still open)."""
        if self.ended_at is None:
            return 0.0
        return self.ended_at - self.started_at

    def annotate(self, **metrics: Any) -> "Span":
        """Attach metrics to this span; later values overwrite earlier ones."""
        self.metrics.update(metrics)
        return self

    def add_child(self, name: str, duration: float = 0.0, **metrics: Any) -> "Span":
        """Append a synthesized child span (used to surface per-operator
        counter tallies, which have counts but no individually measured
        wall-time)."""
        child = Span(
            name,
            started_at=self.started_at,
            ended_at=self.started_at + duration,
            metrics=dict(metrics),
        )
        self.children.append(child)
        return child

    def walk(self) -> Iterator["Span"]:
        """Pre-order traversal of this span and its descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> "Span | None":
        """First span named ``name`` in pre-order, or ``None``."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def to_dict(self, origin: float | None = None) -> dict[str, Any]:
        """A JSON-ready dict.  Times are exported as an offset from
        ``origin`` (the trace start) plus a duration, both in seconds."""
        if origin is None:
            origin = self.started_at
        return {
            "name": self.name,
            "offset_s": self.started_at - origin,
            "duration_s": self.duration,
            "metrics": dict(self.metrics),
            "children": [child.to_dict(origin) for child in self.children],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any], origin: float = 0.0) -> "Span":
        started = origin + float(data["offset_s"])
        return cls(
            name=data["name"],
            started_at=started,
            ended_at=started + float(data["duration_s"]),
            metrics=dict(data.get("metrics", {})),
            children=[cls.from_dict(child, origin) for child in data.get("children", [])],
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.duration * 1e3:.3f}ms, {self.metrics})"


class Trace:
    """A finished span tree for one query.

    The stable export format (``to_dict``/``to_json``) is::

        {"name": ..., "offset_s": ..., "duration_s": ...,
         "metrics": {...}, "children": [...]}

    recursively, rooted at the ``"query"`` span.
    """

    __slots__ = ("root",)

    def __init__(self, root: Span) -> None:
        self.root = root

    @property
    def duration(self) -> float:
        return self.root.duration

    def spans(self) -> Iterator[Span]:
        """All spans, pre-order (pipeline order)."""
        return self.root.walk()

    def span_names(self) -> list[str]:
        return [span.name for span in self.spans()]

    def find(self, name: str) -> Span | None:
        return self.root.find(name)

    def stage_seconds(self) -> dict[str, float]:
        """Summed duration per span name — the per-stage budget view."""
        totals: dict[str, float] = {}
        for span in self.spans():
            totals[span.name] = totals.get(span.name, 0.0) + span.duration
        return totals

    def to_dict(self) -> dict[str, Any]:
        return self.root.to_dict(origin=self.root.started_at)

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Trace":
        return cls(Span.from_dict(data))

    @classmethod
    def from_json(cls, text: str) -> "Trace":
        return cls.from_dict(json.loads(text))

    def describe(self, unit: float = 1e3) -> str:
        """An indented per-stage timing table (milliseconds by default)."""
        lines: list[str] = []

        def render(span: Span, depth: int) -> None:
            extras = ", ".join(
                f"{key}={value}" for key, value in span.metrics.items()
            )
            suffix = f"  ({extras})" if extras else ""
            lines.append(
                f"{'  ' * depth}{span.name:<{max(1, 24 - 2 * depth)}}"
                f"{span.duration * unit:10.3f} ms{suffix}"
            )
            for child in span.children:
                render(child, depth + 1)

        render(self.root, 0)
        return "\n".join(lines)


class _SpanContext:
    """Context manager returned by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc: object) -> None:
        self._tracer._close(self._span)


class Tracer:
    """Records one span tree.  Not thread-safe; one tracer serves one query."""

    __slots__ = ("root", "_stack", "_hooks")

    def __init__(self, name: str = "query", hooks: Iterable[SpanHook] = ()) -> None:
        self.root = Span(name, started_at=perf_counter())
        self._stack: list[Span] = [self.root]
        self._hooks = tuple(hooks)

    @property
    def current(self) -> Span:
        """The innermost open span."""
        return self._stack[-1]

    def span(self, name: str, **metrics: Any) -> _SpanContext:
        """Open a child span of the current span (use as a ``with`` target)."""
        span = Span(name, started_at=perf_counter(), metrics=metrics or None)
        self._stack[-1].children.append(span)
        self._stack.append(span)
        return _SpanContext(self, span)

    def annotate(self, **metrics: Any) -> None:
        """Attach metrics to the current span."""
        self._stack[-1].metrics.update(metrics)

    def _close(self, span: Span) -> None:
        span.ended_at = perf_counter()
        # Close any dangling descendants (an exception may have skipped
        # their __exit__ bodies before ours ran).
        while self._stack and self._stack[-1] is not span:
            self._stack.pop()
        if self._stack:
            self._stack.pop()
        for hook in self._hooks:
            hook(span)

    def finish(self) -> Trace:
        """Close every open span (root included) and freeze the trace."""
        while len(self._stack) > 1:
            self._close(self._stack[-1])
        if self.root.ended_at is None:
            self.root.ended_at = perf_counter()
            for hook in self._hooks:
                hook(self.root)
        self._stack = []
        return Trace(self.root)


class _NullSpan:
    """Shared do-nothing span, yielded by the null tracer."""

    __slots__ = ()

    def annotate(self, **metrics: Any) -> "_NullSpan":
        return self

    def add_child(self, name: str, duration: float = 0.0, **metrics: Any) -> "_NullSpan":
        return self


class _NullSpanContext:
    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, *exc: object) -> None:
        return None


class NullTracer:
    """A tracer that records nothing.  Pipeline code always receives *some*
    tracer, so the hot path never branches on ``tracer is None``."""

    __slots__ = ()

    @property
    def current(self) -> _NullSpan:
        return _NULL_SPAN

    def span(self, name: str, **metrics: Any) -> _NullSpanContext:
        return _NULL_CONTEXT

    def annotate(self, **metrics: Any) -> None:
        return None

    def finish(self) -> None:
        return None


_NULL_SPAN = _NullSpan()
_NULL_CONTEXT = _NullSpanContext()

#: The shared no-op tracer (safe to reuse: it holds no state).
NULL_TRACER = NullTracer()
