"""The reference tracer the raw-label one is tested against.

Before spans kept their labels as given, :meth:`Tracer.span` rendered
every label value with ``str`` when the span opened, so a span held
only strings and every read copied them.  That obviously-correct eager
form lives here, in the test tree, so the production tracer can be
checked against it read for read.
"""

from __future__ import annotations

from typing import Callable

from repro.telemetry.tracing import NULL_SPAN


class ReferenceSpan:
    """One span, its labels rendered when it opened."""

    __slots__ = ("name", "span_id", "parent_id", "labels", "start_ms", "end_ms")

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: int | None,
        labels: dict[str, str],
        start_ms: float,
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.labels = labels
        self.start_ms = start_ms
        self.end_ms: float | None = None


class _ActiveSpan:
    __slots__ = ("_tracer", "span", "_prev")

    def __init__(self, tracer: "ReferenceTracer", span: ReferenceSpan) -> None:
        self._tracer = tracer
        self.span = span
        self._prev: ReferenceSpan | None = None

    def __enter__(self) -> ReferenceSpan:
        self._prev = self._tracer._current
        self._tracer._current = self.span
        return self.span

    def __exit__(self, *exc) -> None:
        self.span.end_ms = self._tracer.clock()
        self._tracer._current = self._prev
        return None


class ReferenceTracer:
    """Span factory that stringifies labels at span time."""

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        max_spans: int = 20_000,
    ) -> None:
        self.clock = clock if clock is not None else (lambda: 0.0)
        self.max_spans = max_spans
        self.spans: list[ReferenceSpan] = []
        self.dropped = 0
        self._current: ReferenceSpan | None = None
        self._next_id = 0

    def span(self, name: str, **labels: object):
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            return NULL_SPAN
        parent = self._current
        span = ReferenceSpan(
            name=name,
            span_id=self._next_id,
            parent_id=parent.span_id if parent is not None else None,
            labels={k: str(v) for k, v in labels.items()} if labels else {},
            start_ms=self.clock(),
        )
        self._next_id += 1
        self.spans.append(span)
        return _ActiveSpan(self, span)

    def activate(self, span: ReferenceSpan | None) -> ReferenceSpan | None:
        prev = self._current
        self._current = span
        return prev

    def wrap(self, callback: Callable[[], None]) -> Callable[[], None]:
        parent = self._current
        if parent is None:
            return callback

        def traced() -> None:
            prev = self.activate(parent)
            try:
                callback()
            finally:
                self.activate(prev)

        return traced

    def reset(self) -> None:
        self.spans.clear()
        self.dropped = 0
        self._current = None
        self._next_id = 0

    def span_tree(self) -> list[dict]:
        nodes: dict[int, dict] = {}
        roots: list[dict] = []
        for span in self.spans:
            node = {
                "name": span.name,
                "labels": dict(span.labels),
                "start_ms": span.start_ms,
                "end_ms": span.end_ms,
                "children": [],
            }
            nodes[span.span_id] = node
            parent = nodes.get(span.parent_id) if span.parent_id is not None else None
            if parent is None:
                roots.append(node)
            else:
                parent["children"].append(node)
        return roots

    def render(self, max_depth: int | None = None) -> str:
        lines: list[str] = []

        def emit(node: dict, depth: int) -> None:
            if max_depth is not None and depth > max_depth:
                return
            labels = node["labels"]
            label_text = (
                " {" + ",".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"
                if labels
                else ""
            )
            if node["end_ms"] is not None:
                timing = (
                    f"  @{node['start_ms']:.1f}ms "
                    f"+{node['end_ms'] - node['start_ms']:.1f}ms"
                )
            else:
                timing = f"  @{node['start_ms']:.1f}ms (open)"
            lines.append("  " * depth + node["name"] + label_text + timing)
            for child in node["children"]:
                emit(child, depth + 1)

        for root in self.span_tree():
            emit(root, 0)
        if self.dropped:
            lines.append(f"... {self.dropped} span(s) dropped past cap")
        return "\n".join(lines)
