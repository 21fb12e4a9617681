"""Scheduler-differential harness: timer wheel vs reference heap.

The timer wheel replaced the one-heap-entry-per-event scheduler as the
kernel's only ready queue (the heap lives on in ``heap_scheduler.py`` as
the reference); its correctness contract is *total behavioural
equivalence* -- same fire order, same ``now`` trajectory, same cancel
semantics, same event-hook observations -- because every pinned trace
digest in this repo depends on it.

Three layers of proof:

1. Hypothesis properties drive randomly generated schedule / cancel /
   reschedule programs (including same-timestamp bursts, scheduling from
   inside callbacks, and cancel-after-fire) through both implementations
   and assert identical outcomes.
2. Directed cases pin the wheel's known edge geometry: bucket
   boundaries, the overflow window, cancels racing the cursor.
3. ``test_chaos_seed0_digests_pinned`` replays every chaos scenario at
   seed 0 against digests recorded before the wheel landed (the
   ``chaos_seed0`` section of ``tests/data/golden.json``) -- the
   whole-system, byte-identical check.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import golden
from heap_scheduler import SCHEDULERS, make_kernel

# Delays chosen to straddle the wheel's geometry: bucket size 16 ms,
# 1024 slots, so 16384 ms is the overflow horizon.
INTERESTING_DELAYS = [
    0.0,
    0.25,
    1.0,
    15.9,
    16.0,
    16.1,
    31.9,
    32.0,
    100.0,
    1023.5,
    16368.0,
    16384.0,
    16384.5,
    50_000.0,
]

_delay = st.one_of(
    st.sampled_from(INTERESTING_DELAYS),
    st.floats(min_value=0.0, max_value=60_000.0,
              allow_nan=False, allow_infinity=False),
)

# An op program: each op either schedules a new event (absolute or
# relative) or cancels a previously created handle (possibly one that
# already fired -- cancel-after-fire must be a silent no-op).
_op = st.one_of(
    st.tuples(st.just("at"), _delay),
    st.tuples(st.just("later"), _delay),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=200)),
)
_program = st.lists(_op, min_size=1, max_size=60)


def run_program(scheduler: str, ops, ops_per_fire: int = 2):
    """Interpret an op program on a fresh kernel; return the trace.

    The first few ops seed the queue; every fired callback then consumes
    the next ``ops_per_fire`` ops, so scheduling and cancelling happen
    *during* the run -- exercising the wheel's cursor/adoption logic, not
    just a pre-loaded queue.
    """
    kernel = make_kernel(scheduler)
    fired: list[tuple[int, float]] = []
    handles: list = []
    pending = list(ops)
    counter = [0]
    schedules: list[tuple[str, float, int]] = []

    def apply_op(op) -> None:
        kind = op[0]
        if kind == "cancel":
            if handles:
                handles[op[1] % len(handles)].cancel()
            return
        tag = counter[0]
        counter[0] += 1
        if kind == "at":
            when = kernel.now + op[1]
            schedules.append(("at", when, tag))
            handles.append(kernel.call_at(when, make_callback(tag)))
        else:
            schedules.append(("later", op[1], tag))
            handles.append(kernel.call_after(op[1], make_callback(tag)))

    def make_callback(tag: int):
        def callback() -> None:
            fired.append((tag, kernel.now))
            for _ in range(ops_per_fire):
                if pending:
                    apply_op(pending.pop(0))
        return callback

    for _ in range(4):
        if pending:
            apply_op(pending.pop(0))
    kernel.run(max_events=5_000)
    return fired, schedules, kernel.now


class TestDifferentialProperties:
    @settings(max_examples=200, deadline=None)
    @given(_program)
    def test_fire_order_and_now_trajectory_identical(self, ops):
        heap = run_program("heap", ops)
        wheel = run_program("wheel", ops)
        assert heap == wheel

    @settings(max_examples=100, deadline=None)
    @given(_program, st.integers(min_value=1, max_value=4))
    def test_identical_under_varied_callback_fanout(self, ops, fanout):
        heap = run_program("heap", ops, ops_per_fire=fanout)
        wheel = run_program("wheel", ops, ops_per_fire=fanout)
        assert heap == wheel

    @settings(max_examples=50, deadline=None)
    @given(st.lists(_delay, min_size=1, max_size=40))
    def test_same_timestamp_bursts_fifo(self, delays):
        """Many events at identical times must fire in insertion order
        on both schedulers (the (time, seq) total order)."""
        results = []
        for scheduler in SCHEDULERS:
            kernel = make_kernel(scheduler)
            order: list[int] = []
            for i, delay in enumerate(delays):
                # Round to bucket-sized values so collisions are common.
                when = float(int(delay / 16.0)) * 16.0
                kernel.call_at(when, lambda i=i: order.append(i))
            kernel.run()
            results.append(order)
        assert results[0] == results[1]

    @settings(max_examples=50, deadline=None)
    @given(_program)
    def test_event_hook_streams_identical(self, ops):
        """Observability parity: the schedule/fire event stream seen by
        an installed hook matches between schedulers."""
        streams = []
        for scheduler in SCHEDULERS:
            kernel = make_kernel(scheduler)
            seen: list[tuple[str, float]] = []
            kernel.event_hook = (
                lambda kind, time_ms, label: seen.append((kind, time_ms))
            )
            pending = list(ops)

            def consume() -> None:
                while pending:
                    op = pending.pop(0)
                    if op[0] == "cancel":
                        continue
                    kernel.call_after(op[1], lambda: None)
                    break

            for op in list(pending[:5]):
                pending.pop(0)
                if op[0] != "cancel":
                    kernel.call_after(op[1], consume)
            kernel.run(max_events=2_000)
            streams.append(seen)
        assert streams[0] == streams[1]


class TestDirectedEquivalence:
    def test_cancel_after_fire_is_noop(self):
        for scheduler in SCHEDULERS:
            kernel = make_kernel(scheduler)
            fired = []
            handle = kernel.call_at(5.0, lambda: fired.append("a"))
            kernel.call_at(10.0, lambda: fired.append("b"))
            kernel.run()
            assert fired == ["a", "b"]
            # The slab recycles the underlying event record; a stale
            # handle must not cancel whoever inherited the slot.
            handle.cancel()
            kernel.call_at(20.0, lambda: fired.append("c"))
            kernel.run()
            assert fired == ["a", "b", "c"], scheduler

    def test_cancel_between_buckets(self):
        """Cancel an event in a future wheel slot before the cursor
        reaches it; both schedulers skip it silently."""
        for scheduler in SCHEDULERS:
            kernel = make_kernel(scheduler)
            fired = []
            victim = kernel.call_at(160.0, lambda: fired.append("victim"))
            kernel.call_at(8.0, lambda: victim.cancel())
            kernel.call_at(320.0, lambda: fired.append("survivor"))
            kernel.run()
            assert fired == ["survivor"], scheduler
            assert kernel.now == 320.0

    def test_overflow_heap_adoption(self):
        """Events beyond the wheel horizon (1024 slots * 16 ms) start in
        the overflow heap and must still interleave correctly with
        near-future slot events scheduled later from callbacks."""
        for scheduler in SCHEDULERS:
            kernel = make_kernel(scheduler)
            fired = []
            kernel.call_at(40_000.0, lambda: fired.append("far"))
            kernel.call_at(20_000.0, lambda: fired.append("mid"))

            def near() -> None:
                fired.append("near")
                kernel.call_at(39_999.0, lambda: fired.append("late-insert"))

            kernel.call_at(10.0, near)
            kernel.run()
            assert fired == ["near", "mid", "late-insert", "far"], scheduler

    def test_schedule_exactly_at_now(self):
        for scheduler in SCHEDULERS:
            kernel = make_kernel(scheduler)
            fired = []

            def reenter() -> None:
                fired.append("outer")
                kernel.call_at(kernel.now, lambda: fired.append("inner"))

            kernel.call_at(100.0, reenter)
            kernel.call_at(100.5, lambda: fired.append("after"))
            kernel.run()
            assert fired == ["outer", "inner", "after"], scheduler


class TestPinnedDigests:
    def test_chaos_seed0_digests_pinned(self):
        """Whole-system byte-identity: every chaos scenario at seed 0
        must reproduce the digests recorded before the timer wheel,
        event slab, lazy hashing, and dispatch changes landed."""
        from repro.chaos import SCENARIOS, run_scenario

        expected = golden.load_golden()["chaos_seed0"]
        assert sorted(expected) == sorted(SCENARIOS), (
            "scenario registry drifted; re-pin with tests/golden.py --write"
        )
        mismatches = {}
        for name in sorted(SCENARIOS):
            report = run_scenario(name, seed=0)
            assert report.passed, report.render(include_trace=True)
            observed = {"digest": report.trace_digest, "passed": report.passed}
            if observed != expected[name]:
                mismatches[name] = observed
        assert not mismatches, (
            f"seed-0 trace digests drifted: {mismatches}"
        )
