"""Span differential harness: raw labels vs the stringify-at-span-time reference.

:meth:`Tracer.span` keeps the labels dict it was given; ``span_tree``
and the Perfetto export stringify label values when they read them.
The tracer it replaced stringified every label when the span opened and
lives in ``reference_tracing.py``.  Its contract is that no read can
tell them apart.

A Hypothesis property draws span programs -- nested spans opened and
closed, callbacks bound with ``wrap`` and run later from a FIFO queue
(each one opening a span and scheduling its successor), clock advances,
and a ``max_spans`` cap small enough to drop spans -- over every label
value type the tree passes.  The same program runs against both
tracers; ``span_tree()``, ``render()`` at two depths, ``dropped`` and
the Perfetto export must be equal.  Spans still open at the end render
as open on both sides.
"""

from __future__ import annotations

import enum

from hypothesis import given, settings
from hypothesis import strategies as st

from reference_tracing import ReferenceTracer
from repro.telemetry import Tracer
from repro.telemetry.export import perfetto_json
from repro.util import GUID


class _Phase(enum.Enum):
    PREPARE = "prepare"
    COMMIT = 2


NAMES = ("pbft.request", "pbft.execute", "read", "dissem.push", "archival.encode")
KEYS = ("client", "seq", "replica", "version", "k", "start")

_values = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
    st.binary(max_size=12),
    st.booleans(),
    st.none(),
    st.integers(min_value=0, max_value=2**160 - 1).map(GUID),
    st.sampled_from(_Phase),
)
_labels = st.dictionaries(st.sampled_from(KEYS), _values, max_size=3)
_ops = st.one_of(
    st.tuples(st.just("open"), st.sampled_from(NAMES), _labels),
    st.just(("close",)),
    st.tuples(
        st.just("schedule"),
        st.sampled_from(NAMES),
        _labels,
        st.integers(min_value=0, max_value=2),
    ),
    st.just(("run",)),
    st.tuples(st.just("advance"), st.floats(min_value=0.0, max_value=500.0)),
)
_programs = st.lists(_ops, max_size=40)


def _run(tracer_cls, program, max_spans):
    """Interpret ``program`` against a fresh tracer; returns it."""
    now = [0.0]
    tracer = tracer_cls(clock=lambda: now[0], max_spans=max_spans)
    open_spans = []
    pending = []

    def callback(name, labels, successors):
        def body():
            with tracer.span(name, **labels):
                now[0] += 1.0
                if successors:
                    pending.append(tracer.wrap(callback(f"{name}.next", labels, successors - 1)))

        return body

    for op in program:
        if op[0] == "open":
            context = tracer.span(op[1], **op[2])
            context.__enter__()
            open_spans.append(context)
        elif op[0] == "close" and open_spans:
            open_spans.pop().__exit__(None, None, None)
        elif op[0] == "schedule":
            pending.append(tracer.wrap(callback(*op[1:])))
        elif op[0] == "run" and pending:
            pending.pop(0)()
        elif op[0] == "advance":
            now[0] += op[1]
    return tracer


class TestRawLabelsMatchEager:
    @given(program=_programs, max_spans=st.integers(min_value=0, max_value=12))
    @settings(max_examples=200, deadline=None)
    def test_every_read_matches_the_reference(self, program, max_spans):
        tracer = _run(Tracer, program, max_spans)
        reference = _run(ReferenceTracer, program, max_spans)
        assert tracer.dropped == reference.dropped
        assert tracer.span_tree() == reference.span_tree()
        assert tracer.render() == reference.render()
        assert tracer.render(max_depth=1) == reference.render(max_depth=1)
        assert perfetto_json(tracer.spans, ()) == perfetto_json(reference.spans, ())

    def test_labels_are_kept_as_given_and_stringified_on_read(self):
        tracer = Tracer()
        guid = GUID(7)
        with tracer.span("read", client=3, object=guid, phase=_Phase.COMMIT):
            pass
        (span,) = tracer.spans
        assert span.labels == {"client": 3, "object": guid, "phase": _Phase.COMMIT}
        assert tracer.span_tree()[0]["labels"] == {
            "client": "3",
            "object": str(guid),
            "phase": "_Phase.COMMIT",
        }
