"""Causal trace spans for the simulated system.

A :class:`Span` covers one logical operation (a Bloom query, a PBFT
phase, an archival encode).  Spans nest: the tracer keeps a *current*
span, and new spans become children of it.  Causality crosses scheduling
boundaries via :meth:`Tracer.wrap`: the simulation kernel wraps every
scheduled callback so it runs under the span that was current when it
was scheduled -- a message handler's spans therefore nest under the span
that sent the message, and one client update yields a single tree
covering routing, agreement, dissemination, and archival.

Timestamps come from an injected ``clock`` callable (virtual kernel
milliseconds in a deployment; a zero clock for unit tests), so traces
are deterministic.
"""

from __future__ import annotations

from typing import Callable


class Span:
    """One timed, labelled operation in a causal tree.

    ``labels`` is the keyword dict :meth:`Tracer.span` was given, kept
    as is and stringified on read, so a label value must be immutable
    (DESIGN §24).
    """

    __slots__ = ("name", "span_id", "parent_id", "labels", "start_ms", "end_ms")

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: int | None,
        labels: dict[str, object],
        start_ms: float,
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.labels = labels
        self.start_ms = start_ms
        self.end_ms: float | None = None

    @property
    def duration_ms(self) -> float | None:
        if self.end_ms is None:
            return None
        return self.end_ms - self.start_ms


class _ActiveSpan:
    """Context manager making a span current for its ``with`` body."""

    __slots__ = ("_tracer", "span", "_prev")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span
        self._prev: Span | None = None

    def __enter__(self) -> Span:
        self._prev = self._tracer._current
        self._tracer._current = self.span
        return self.span

    def __exit__(self, *exc) -> None:
        self.span.end_ms = self._tracer.clock()
        self._tracer._current = self._prev
        return None


class _NullSpanContext:
    """Shared no-op stand-in when tracing is disabled or saturated."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc) -> None:
        return None


NULL_SPAN = _NullSpanContext()


class Tracer:
    """Span factory, current-span bookkeeping, and tree assembly.

    ``max_spans`` bounds memory on long runs: past the cap, new spans are
    silently replaced by :data:`NULL_SPAN` and counted in
    :attr:`dropped`, so causality in the retained prefix stays intact.
    """

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        max_spans: int = 20_000,
    ) -> None:
        self.clock = clock if clock is not None else (lambda: 0.0)
        self.max_spans = max_spans
        self.spans: list[Span] = []
        self.dropped = 0
        self._current: Span | None = None
        self._next_id = 0

    # -- span lifecycle ---------------------------------------------------

    def span(self, name: str, **labels: object):
        """Start a child of the current span; use as a context manager.

        The ``labels`` dict is kept as given; reads stringify it.
        """
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            return NULL_SPAN
        parent = self._current
        span = Span(
            name=name,
            span_id=self._next_id,
            parent_id=parent.span_id if parent is not None else None,
            labels=labels,
            start_ms=self.clock(),
        )
        self._next_id += 1
        self.spans.append(span)
        return _ActiveSpan(self, span)

    # -- cross-event propagation ------------------------------------------

    def wrap(self, callback: Callable[[], None]) -> Callable[[], None]:
        """Bind ``callback`` to the current span for later execution.

        If no span is current, the callback is returned unchanged, so
        untraced work (timers, background sweeps) costs nothing.
        """
        parent = self._current
        if parent is None:
            return callback

        def traced() -> None:
            prev = self._current
            self._current = parent
            try:
                callback()
            finally:
                self._current = prev

        traced.__wrapped__ = callback
        return traced

    def reset(self) -> None:
        self.spans.clear()
        self.dropped = 0
        self._current = None
        self._next_id = 0

    # -- assembly ---------------------------------------------------------

    def span_tree(self) -> list[dict]:
        """Nested JSON-able dicts, one per root span, children in start
        order."""
        nodes: dict[int, dict] = {}
        roots: list[dict] = []
        for span in self.spans:
            node = {
                "name": span.name,
                "labels": {k: str(v) for k, v in span.labels.items()},
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
        """ASCII span tree, one line per span."""
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
