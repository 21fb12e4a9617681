"""Kernel scheduling properties, checked against each program's own record.

The kernel's ready queue is one binary heap ordered by ``(time,
sequence)``.  There is no second implementation to compare it with, so
every run is checked against what the program itself asked for:

1. Hypothesis properties drive randomly generated schedule / cancel /
   reschedule programs (including same-timestamp bursts, scheduling from
   inside callbacks, and cancel-after-fire) and require, of every run:
   fired ``(time, schedule order)`` is non-decreasing; ``now`` at each
   fire is that event's time; an event cancelled before it fired never
   fires; every other event fires exactly once; and the event-hook
   stream is exactly the program's schedules and fires, in order.
2. Directed cases pin edge cases: cancel-after-fire, cancelling a
   future event, far-future events interleaving with nearer ones
   scheduled later, and scheduling exactly at ``now``.
3. ``test_chaos_seed0_digests_pinned`` replays every chaos scenario at
   seed 0 against the pinned digests (the ``chaos_seed0`` section of
   ``tests/data/golden.json``) -- the whole-system, byte-identical check.
"""

from dataclasses import dataclass, field

from hypothesis import given, settings
from hypothesis import strategies as st

import golden
from repro.sim import Kernel

# Boundary delays: zero, sub-millisecond, multiples of 16 ms and values
# just either side of them, and delays up to and beyond 16 384 ms.
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


@dataclass
class Trace:
    """What a program asked of the kernel, and what the kernel did."""

    #: absolute due time of each scheduled event, in schedule order
    due: list[float] = field(default_factory=list)
    #: (event index, kernel.now) at each fire
    fired: list[tuple[int, float]] = field(default_factory=list)
    #: events cancelled while still unfired
    cancelled: set[int] = field(default_factory=set)
    #: ("schedule", due) / ("fire", now), as the program saw them happen
    log: list[tuple[str, float]] = field(default_factory=list)
    #: (kind, time_ms) as the kernel's event hook saw them
    hook: list[tuple[str, float]] = field(default_factory=list)
    now: float = 0.0
    pending: int = 0


def record_hook(kernel: Kernel, trace: Trace) -> None:
    kernel.event_hook = (
        lambda kind, time_ms, label: trace.hook.append((kind, time_ms))
    )


def run_program(ops, ops_per_fire: int = 2) -> Trace:
    """Interpret an op program on a fresh kernel; return its trace.

    The first few ops seed the queue; every fired callback then consumes
    the next ``ops_per_fire`` ops, so scheduling and cancelling happen
    *during* the run, not just on a pre-loaded queue.
    """
    kernel = Kernel()
    trace = Trace()
    record_hook(kernel, trace)
    handles: list = []
    pending = list(ops)
    fired_tags: set[int] = set()

    def apply_op(op) -> None:
        kind = op[0]
        if kind == "cancel":
            if handles:
                victim = op[1] % len(handles)
                handles[victim].cancel()
                if victim not in fired_tags:
                    trace.cancelled.add(victim)
            return
        tag = len(trace.due)
        when = kernel.now + op[1]
        trace.due.append(when)
        trace.log.append(("schedule", when))
        if kind == "at":
            handles.append(kernel.call_at(when, make_callback(tag)))
        else:
            handles.append(kernel.call_after(op[1], make_callback(tag)))

    def make_callback(tag: int):
        def callback() -> None:
            fired_tags.add(tag)
            trace.fired.append((tag, kernel.now))
            trace.log.append(("fire", kernel.now))
            for _ in range(ops_per_fire):
                if pending:
                    apply_op(pending.pop(0))
        return callback

    for _ in range(4):
        if pending:
            apply_op(pending.pop(0))
    kernel.run(max_events=5_000)
    trace.now = kernel.now
    trace.pending = kernel.pending
    return trace


def assert_kernel_contract(trace: Trace) -> None:
    """The scheduling contract, judged against the program's own record."""
    # fired (time, schedule order) is non-decreasing
    keys = [(trace.due[tag], tag) for tag, _ in trace.fired]
    assert keys == sorted(keys)
    # now follows the fire times
    assert all(now == trace.due[tag] for tag, now in trace.fired)
    assert trace.now == (trace.fired[-1][1] if trace.fired else 0.0)
    # a cancelled-before-fire event never fires; every other one fires
    # exactly once (the program is finite, so the run drains)
    fired_tags = [tag for tag, _ in trace.fired]
    assert not trace.cancelled & set(fired_tags)
    expected = set(range(len(trace.due))) - trace.cancelled
    assert sorted(fired_tags) == sorted(expected)
    assert trace.pending == 0
    # the hook stream is the schedule/fire pairs
    assert trace.hook == trace.log


class TestDifferentialProperties:
    @settings(max_examples=200, deadline=None)
    @given(_program)
    def test_fire_order_and_now_trajectory_identical(self, ops):
        assert_kernel_contract(run_program(ops))

    @settings(max_examples=100, deadline=None)
    @given(_program, st.integers(min_value=1, max_value=4))
    def test_identical_under_varied_callback_fanout(self, ops, fanout):
        assert_kernel_contract(run_program(ops, ops_per_fire=fanout))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(_delay, min_size=1, max_size=40))
    def test_same_timestamp_bursts_fifo(self, delays):
        """Many events at identical times must fire in insertion order
        (the (time, seq) total order)."""
        kernel = Kernel()
        order: list[int] = []
        whens = []
        for i, delay in enumerate(delays):
            # Round to 16 ms multiples so collisions are common.
            when = float(int(delay / 16.0)) * 16.0
            whens.append(when)
            kernel.call_at(when, lambda i=i: order.append(i))
        kernel.run()
        assert order == sorted(range(len(delays)), key=lambda i: (whens[i], i))

    @settings(max_examples=50, deadline=None)
    @given(_program)
    def test_event_hook_streams_identical(self, ops):
        """Observability: the schedule/fire stream an installed hook
        sees is exactly the schedules and fires the program made."""
        kernel = Kernel()
        trace = Trace()
        record_hook(kernel, trace)
        pending = list(ops)

        def schedule(delay: float, callback) -> None:
            trace.log.append(("schedule", kernel.now + delay))
            kernel.call_after(delay, callback)

        def fire() -> None:
            trace.log.append(("fire", kernel.now))

        def consume() -> None:
            fire()
            while pending:
                op = pending.pop(0)
                if op[0] == "cancel":
                    continue
                schedule(op[1], fire)
                break

        for op in list(pending[:5]):
            pending.pop(0)
            if op[0] != "cancel":
                schedule(op[1], consume)
        kernel.run(max_events=2_000)
        assert trace.hook == trace.log
        fire_times = [t for kind, t in trace.log if kind == "fire"]
        assert fire_times == sorted(fire_times)
        assert kernel.pending == 0


class TestDirectedEquivalence:
    def test_cancel_after_fire_is_noop(self):
        kernel = Kernel()
        fired = []
        handle = kernel.call_at(5.0, lambda: fired.append("a"))
        kernel.call_at(10.0, lambda: fired.append("b"))
        kernel.run()
        assert fired == ["a", "b"]
        # The fired event's handle no longer refers to the kernel; a
        # late cancel must not touch whatever is scheduled next.
        handle.cancel()
        kernel.call_at(20.0, lambda: fired.append("c"))
        kernel.run()
        assert fired == ["a", "b", "c"]

    def test_cancel_between_buckets(self):
        """Cancel a future event before the run reaches it; it is
        skipped silently."""
        kernel = Kernel()
        fired = []
        victim = kernel.call_at(160.0, lambda: fired.append("victim"))
        kernel.call_at(8.0, lambda: victim.cancel())
        kernel.call_at(320.0, lambda: fired.append("survivor"))
        kernel.run()
        assert fired == ["survivor"]
        assert kernel.now == 320.0

    def test_overflow_heap_adoption(self):
        """Far-future events must interleave correctly with nearer
        events scheduled later from callbacks."""
        kernel = Kernel()
        fired = []
        kernel.call_at(40_000.0, lambda: fired.append("far"))
        kernel.call_at(20_000.0, lambda: fired.append("mid"))

        def near() -> None:
            fired.append("near")
            kernel.call_at(39_999.0, lambda: fired.append("late-insert"))

        kernel.call_at(10.0, near)
        kernel.run()
        assert fired == ["near", "mid", "late-insert", "far"]

    def test_schedule_exactly_at_now(self):
        kernel = Kernel()
        fired = []

        def reenter() -> None:
            fired.append("outer")
            kernel.call_at(kernel.now, lambda: fired.append("inner"))

        kernel.call_at(100.0, reenter)
        kernel.call_at(100.5, lambda: fired.append("after"))
        kernel.run()
        assert fired == ["outer", "inner", "after"]


class TestPinnedDigests:
    def test_chaos_seed0_digests_pinned(self):
        """Whole-system byte-identity: every chaos scenario at seed 0
        must reproduce its pinned digest."""
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
