"""Flight-recorder differential harness: flat deferred records vs the eager reference.

:meth:`FlightRecorder.record` appends one flat ``(time_ms, category,
kind, keys, *values)`` tuple, with ``keys`` interned in a per-recorder
shape table and the seq derived from the eviction count; it renders
nothing.  The recorder it replaced rendered every event at record time
and lives in ``reference_flightrec.py``.  Its contract is that no read
can tell them apart.

A Hypothesis property draws record programs over every detail value type
the tree records (int, float, str, bytes, bool, None, GUID, Enum), with
capacities down to 1 so eviction is forced, records with no detail, one
key set recorded in two orders (two shapes, the same rendered detail),
and ``reset()`` mid-program.  Both recorders share the clock.  After
every program, every read -- ``events``, ``render`` under category
filters and limits, ``digest``, ``dump_json``, ``to_dicts``,
``categories``, ``evicted`` and the Perfetto export -- is equal.

Deferred rendering is exact only while no recorded value changes after
the call.  The second class runs every seed-0 chaos scenario with a
recorder that rejects any other value type, records into the reference
beside it, and checks the dumps and the pinned scenario digests.  It
also checks the layout itself: no retained record holds a dict, and the
shape table stays small.  The same runs reject any span label that is
not immutable, since spans keep their labels raw too.
"""

from __future__ import annotations

import enum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.telemetry
from golden import load_golden
from reference_flightrec import ReferenceFlightRecorder
from repro.chaos import SCENARIOS, run_scenario
from repro.telemetry import FlightRecorder, Tracer
from repro.telemetry.export import perfetto_json
from repro.util import GUID


class _Phase(enum.Enum):
    PREPARE = "prepare"
    COMMIT = 2


CATEGORIES = ("net", "pbft", "recovery", "rings")
KINDS = ("send", "deliver", "prepared", "suspect")
KEYS = ("src", "dst", "seq", "bytes", "object", "reason", "view", "at")

_values = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=12),
    st.binary(max_size=40),
    st.booleans(),
    st.none(),
    st.integers(min_value=0, max_value=2**160 - 1).map(GUID),
    st.sampled_from(_Phase),
)
_details = st.one_of(
    st.just({}),
    st.dictionaries(st.sampled_from(KEYS), _values, max_size=5),
)
#: ("record", advance, category, kind, detail), or "mirror": record the
#: last detail again with its keys reversed, or "reset"
_ops = st.one_of(
    st.tuples(
        st.just("record"),
        st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
        st.sampled_from(CATEGORIES),
        st.sampled_from(KINDS),
        _details,
    ),
    st.just(("mirror",)),
    st.just(("reset",)),
)
_programs = st.lists(_ops, max_size=40)
_capacities = st.one_of(st.just(1), st.integers(min_value=1, max_value=12))
_filters = st.one_of(st.none(), st.sets(st.sampled_from(CATEGORIES)))
_limits = st.one_of(st.none(), st.integers(min_value=0, max_value=45))


def _fields(event) -> tuple:
    return (event.seq, event.time_ms, event.category, event.kind, event.detail)


def _assert_reads_equal(recorder, reference, categories, limit) -> None:
    assert recorder.total_recorded == reference.total_recorded
    assert recorder.evicted == reference.evicted
    assert [_fields(e) for e in recorder.events()] == [
        _fields(e) for e in reference.events()
    ]
    assert [e.render() for e in recorder.events(categories)] == [
        e.render() for e in reference.events(categories)
    ]
    assert [_fields(e) for e in recorder.events(kinds=["send"])] == [
        _fields(e) for e in reference.events(kinds=["send"])
    ]
    assert recorder.render(categories, limit) == reference.render(categories, limit)
    assert recorder.render() == reference.render()
    assert recorder.digest() == reference.digest()
    assert recorder.dump_json(categories) == reference.dump_json(categories)
    assert recorder.to_dicts(categories) == reference.to_dicts(categories)
    assert recorder.categories() == reference.categories()
    assert perfetto_json((), recorder.events()) == perfetto_json(
        (), reference.events()
    )


class TestDeferredMatchesEager:
    @given(
        capacity=_capacities,
        program=_programs,
        categories=_filters,
        limit=_limits,
    )
    @settings(max_examples=200, deadline=None)
    def test_every_read_matches_the_reference(
        self, capacity, program, categories, limit
    ):
        now = [0.0]
        recorder = FlightRecorder(capacity=capacity, clock=lambda: now[0])
        reference = ReferenceFlightRecorder(capacity=capacity, clock=lambda: now[0])
        last = ("net", "send", {})
        for step, op in enumerate(program):
            if op[0] == "reset":
                recorder.reset()
                reference.reset()
            else:
                if op[0] == "record":
                    now[0] += op[1]
                    last = op[2:]
                    category, kind, detail = last
                else:
                    category, kind, detail = last
                    detail = dict(reversed(detail.items()))
                recorder.record(category, kind, **detail)
                reference.record(category, kind, **detail)
            if step % 7 == 0:
                _assert_reads_equal(recorder, reference, categories, limit)
        _assert_reads_equal(recorder, reference, categories, limit)
        recorder.reset()
        reference.reset()
        _assert_reads_equal(recorder, reference, categories, limit)


class TestFlatLayout:
    def test_one_key_set_in_two_orders_is_two_shapes_one_rendering(self):
        recorder = FlightRecorder(capacity=8)
        recorder.record("net", "send", src=1, dst=2)
        recorder.record("net", "send", dst=2, src=1)
        recorder.record("net", "send", src=3, dst=4)
        first, second, third = recorder._records
        assert first[3] == ("src", "dst") and second[3] == ("dst", "src")
        assert third[3] is first[3], "one call site shares one key tuple"
        assert len(recorder._shapes) == 2
        a, b, _ = recorder.events()
        assert a.detail == b.detail == (("dst", "2"), ("src", "1"))
        assert a.render()[7:] == b.render()[7:]

    def test_a_record_is_one_flat_tuple_and_seq_is_derived(self):
        recorder = FlightRecorder(capacity=2)
        for i in range(5):
            recorder.record("pbft", "prepared", seq=i, digest=b"\x01" * 8)
        recorder.record("pbft", "idle")
        assert list(recorder._records) == [
            (0.0, "pbft", "prepared", ("seq", "digest"), 4, b"\x01" * 8),
            (0.0, "pbft", "idle", ()),
        ]
        assert [e.seq for e in recorder.events()] == [4, 5]


#: every value type a flight record may carry; each is immutable, so a
#: record rendered late reads the same as one rendered at the call
IMMUTABLE = (int, float, str, bytes, bool, type(None), GUID, enum.Enum)


class CheckingRecorder(FlightRecorder):
    """A recorder that rejects mutable detail values and mirrors every
    record into the eager reference."""

    created: list["CheckingRecorder"] = []

    def __init__(self, capacity: int = 4096, clock=None) -> None:
        super().__init__(capacity=capacity, clock=clock)
        self.reference = ReferenceFlightRecorder(capacity=capacity, clock=clock)
        CheckingRecorder.created.append(self)

    def record(self, category: str, kind: str, **detail: object) -> None:
        for key, value in detail.items():
            if not isinstance(value, IMMUTABLE):
                raise TypeError(
                    f"{category}.{kind}: detail {key}={value!r} is a "
                    f"{type(value).__name__}, which may change after it is recorded"
                )
        super().record(category, kind, **detail)
        self.reference.record(category, kind, **detail)


class CheckingTracer(Tracer):
    """A tracer that rejects mutable span labels: spans keep their
    labels as given and stringify them on read."""

    def span(self, name: str, **labels: object):
        for key, value in labels.items():
            if not isinstance(value, IMMUTABLE):
                raise TypeError(
                    f"span {name}: label {key}={value!r} is a "
                    f"{type(value).__name__}, which may change after it is recorded"
                )
        return super().span(name, **labels)


#: distinct key orders the recorder may intern over one chaos run; the
#: 34 record call sites bound it, and a seed-0 scenario interns at most 15
MAX_SHAPES = 64


class TestRecordedValuesAreImmutable:
    def test_checking_recorder_rejects_a_mutable_value(self):
        recorder = CheckingRecorder(capacity=4)
        with pytest.raises(TypeError, match="list"):
            recorder.record("pbft", "batch_seal", members=[1, 2])
        recorder.record("pbft", "batch_seal", members="1,2", phase=_Phase.COMMIT)
        assert recorder.render() == recorder.reference.render()

    def test_checking_tracer_rejects_a_mutable_label(self):
        tracer = CheckingTracer()
        with pytest.raises(TypeError, match="dict"):
            tracer.span("pbft.request", client={"node": 1})
        with tracer.span("pbft.request", client=1, phase=_Phase.PREPARE):
            pass
        assert tracer.span_tree()[0]["labels"] == {
            "client": "1",
            "phase": "_Phase.PREPARE",
        }

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_chaos_scenario_records_only_immutable_values(self, name, monkeypatch):
        monkeypatch.setattr(repro.telemetry, "FlightRecorder", CheckingRecorder)
        monkeypatch.setattr(repro.telemetry, "Tracer", CheckingTracer)
        CheckingRecorder.created.clear()
        report = run_scenario(name, seed=0, capture_flight=True)
        pinned = load_golden()["chaos_seed0"][name]
        assert {"digest": report.trace_digest, "passed": report.passed} == pinned
        assert CheckingRecorder.created, "the scenario must run with telemetry on"
        for recorder in CheckingRecorder.created:
            assert recorder.digest() == recorder.reference.digest()
            assert recorder.render() == recorder.reference.render()
            assert not any(
                isinstance(field, dict) for record in recorder._records for field in record
            ), "a retained record holds no dict"
            assert len(recorder._shapes) <= MAX_SHAPES
        if report.flight_dump:
            (recorder,) = CheckingRecorder.created
            assert report.flight_dump == recorder.reference.render()
