"""Discrete-event simulation kernel.

The paper's prototype ran on a wide-area testbed; we substitute a
deterministic discrete-event simulator.  The kernel executes callbacks
scheduled at virtual times in time order, with ties broken by insertion
sequence so runs are fully deterministic.

Virtual time is measured in milliseconds (floats), matching the paper's
"assume each message takes 100 ms" framing in Section 4.4.5.

The ready queue is a hierarchical timer wheel: near-future events land
in fixed-width buckets by plain ``list.append`` (O(1), no comparisons),
the bucket under the cursor is kept as a small heap, and far-future
events wait in an overflow heap that refills the wheel as the cursor
reaches them -- the fast path for the message-delay traffic that
dominates simulations.  It fires in exactly the order of one binary
heap, ``(time, sequence)`` ascending; that heap is the reference the
differential suite in ``tests/test_scheduler_differential.py`` holds
the wheel to.

Event records are recycled through a bounded freelist (slab), so
steady-state traffic -- heartbeats, message deliveries -- allocates no
new event objects.  :class:`EventHandle` carries a generation stamp so
cancelling a handle whose event already fired (and whose record has
since been recycled for an unrelated event) is a safe no-op.

The kernel has exactly two observer seams (both default off; a fired
event is otherwise ``callback()`` and nothing else):

* :attr:`Kernel.trace_wrapper` -- a callable applied to every callback
  at scheduling time.  The telemetry subsystem installs one that binds
  the callback to the trace span current when it was scheduled, which is
  how causal traces cross scheduling boundaries.
* :attr:`Kernel.event_hook` -- called with ``(kind, time_ms, label)`` at
  every ``"schedule"`` and ``"fire"``; the flight recorder installs it
  when ``flight_kernel`` is on.  An event scheduled without a label is
  named after its callback only while the hook is set.

And two safety guards, :attr:`Kernel.step_cap` and
:attr:`Kernel.wall_time_budget`, against a mis-wired callback that
reschedules itself forever: exceed either inside one :meth:`Kernel.run`
and the kernel raises :class:`SimulationError` naming the offending
callback.
"""

from __future__ import annotations

import time
from heapq import heapify, heappop, heappush
from typing import Callable


class _ScheduledEvent:
    """One scheduled callback; a plain mutable record so the slab can
    recycle it.  ``generation`` increments at each recycle so stale
    :class:`EventHandle` references can detect reuse."""

    __slots__ = ("time", "seq", "callback", "cancelled", "label", "generation")

    def __init__(self) -> None:
        self.time = 0.0
        self.seq = 0
        self.callback: Callable[[], None] | None = None
        self.cancelled = False
        self.label: str | None = None
        self.generation = 0


def _callback_name(callback: Callable[[], None]) -> str:
    """A deterministic name for a callback -- never ``repr``, whose
    embedded address would break byte-identical flight-recorder replay."""
    return getattr(callback, "__qualname__", None) or type(callback).__name__


class EventHandle:
    """Handle to a scheduled event, allowing cancellation.

    The handle snapshots the event's time and generation at creation;
    once the event fires its record returns to the slab, and a late
    ``cancel()`` (the generation no longer matches) touches nothing.
    """

    __slots__ = ("_kernel", "_event", "_generation", "_time", "_cancelled")

    def __init__(self, kernel: "Kernel", event: _ScheduledEvent) -> None:
        self._kernel = kernel
        self._event = event
        self._generation = event.generation
        self._time = event.time
        self._cancelled = False

    def cancel(self) -> None:
        self._cancelled = True
        event = self._event
        if event is not None:
            if event.generation == self._generation:
                # still queued: the scheduler discards it lazily, and
                # until then Kernel.pending must not count it
                event.cancelled = True
                self._kernel._cancelled_queued += 1
            self._event = None

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def time(self) -> float:
        return self._time


class SimulationError(RuntimeError):
    """Raised for kernel misuse (e.g. scheduling in the past) or for a
    run that blows through its step cap / wall-time budget."""


class _TimerWheel:
    """Hierarchical timer wheel: bucketed near future, heaped overflow.

    Absolute bucket ``b = int(t / BUCKET_MS)``.  Invariants:

    * ``_cur`` is a heap of entries for buckets ``<= _cur_bucket`` (the
      bucket the cursor stands on, plus same-or-earlier-time events
      scheduled after a ``run(until=...)`` advanced ``now`` mid-wheel);
    * every slot entry has bucket in ``(_cur_bucket, _cur_bucket +
      SLOTS)`` -- a window of width ``SLOTS``, so slot index maps to a
      unique absolute bucket and wrap-around never mixes epochs;
    * overflow entries were beyond the window when scheduled; the cursor
      compares their head bucket against the next occupied slot before
      advancing, so a refilled window can never be overtaken.

    Inserting a near event is one ``int`` divide plus ``list.append``;
    ordering work happens once per bucket (a ``heapify`` of typically
    a handful of entries) instead of once per push/pop.
    """

    BUCKET_MS = 16.0
    SLOTS = 1024

    __slots__ = (
        "_discard",
        "_slots",
        "_cur",
        "_cur_bucket",
        "_wheel_count",
        "_overflow",
        "queued",
    )

    def __init__(self, discard: Callable[[_ScheduledEvent], None]) -> None:
        self._discard = discard
        self._slots: list[list[tuple[float, int, _ScheduledEvent]]] = [
            [] for _ in range(self.SLOTS)
        ]
        self._cur: list[tuple[float, int, _ScheduledEvent]] = []
        self._cur_bucket = 0
        self._wheel_count = 0
        self._overflow: list[tuple[float, int, _ScheduledEvent]] = []
        self.queued = 0

    def push(self, event: _ScheduledEvent) -> None:
        t = event.time
        bucket = int(t / 16.0)  # BUCKET_MS inlined on the hot path
        self.queued += 1
        cur_bucket = self._cur_bucket
        if bucket <= cur_bucket:
            heappush(self._cur, (t, event.seq, event))
        elif bucket - cur_bucket < 1024:  # SLOTS
            self._slots[bucket & 1023].append((t, event.seq, event))
            self._wheel_count += 1
        else:
            heappush(self._overflow, (t, event.seq, event))

    def _advance(self) -> bool:
        """Move the cursor to the next occupied bucket (wheel slot or
        overflow window), adopting its entries into ``_cur``.  Returns
        False when nothing is queued anywhere."""
        wheel_bucket = -1
        if self._wheel_count:
            base = self._cur_bucket
            slots = self._slots
            for i in range(1, self.SLOTS + 1):
                if slots[(base + i) & 1023]:
                    wheel_bucket = base + i
                    break
        if self._overflow:
            over_bucket = int(self._overflow[0][0] / self.BUCKET_MS)
            if wheel_bucket < 0 or over_bucket <= wheel_bucket:
                # Advance the window to the overflow head and pour every
                # overflow entry now inside it into the wheel (entries
                # for the head bucket itself join _cur directly, merging
                # with any slot entries already parked there).
                self._cur_bucket = over_bucket
                cur = self._slots[over_bucket & 1023]
                self._slots[over_bucket & 1023] = []
                self._wheel_count -= len(cur)
                overflow = self._overflow
                horizon = over_bucket + self.SLOTS
                while overflow:
                    entry = overflow[0]
                    bucket = int(entry[0] / self.BUCKET_MS)
                    if bucket >= horizon:
                        break
                    heappop(overflow)
                    if bucket <= over_bucket:
                        cur.append(entry)
                    else:
                        self._slots[bucket & 1023].append(entry)
                        self._wheel_count += 1
                heapify(cur)
                self._cur = cur
                return True
        if wheel_bucket >= 0:
            self._cur_bucket = wheel_bucket
            cur = self._slots[wheel_bucket & 1023]
            self._slots[wheel_bucket & 1023] = []
            self._wheel_count -= len(cur)
            heapify(cur)
            self._cur = cur
            return True
        return False

    def peek(self) -> _ScheduledEvent | None:
        while True:
            cur = self._cur
            if cur:
                event = cur[0][2]
                if event.cancelled:
                    heappop(cur)
                    self.queued -= 1
                    self._discard(event)
                    continue
                return event
            if not self._advance():
                return None

    def pop(self) -> _ScheduledEvent:
        """Remove the head; only valid right after a non-None peek()."""
        self.queued -= 1
        return heappop(self._cur)[2]


#: recycled event records kept per kernel; beyond this the slab lets
#: surplus records fall to the garbage collector
_FREELIST_CAP = 4096


class Kernel:
    """Deterministic discrete-event loop.

    Typical use::

        kernel = Kernel()
        kernel.call_at(10.0, lambda: print("at t=10ms"))
        kernel.run()
    """

    def __init__(self) -> None:
        self._free: list[_ScheduledEvent] = []
        self._queue = _TimerWheel(self._discard)
        #: cancelled records the scheduler has not met and discarded yet
        self._cancelled_queued = 0
        self._seq = 0
        self._now = 0.0
        self._events_executed = 0
        #: optional hook applied to every callback at scheduling time
        #: (telemetry trace propagation); signature: (callback) -> callback
        self.trace_wrapper: Callable[
            [Callable[[], None]], Callable[[], None]
        ] | None = None
        #: optional observer of scheduling activity (flight recorder);
        #: signature: (kind, time_ms, label) with kind "schedule"|"fire".
        #: Labels are captured before trace wrapping so they name the
        #: real callback, deterministically.
        self.event_hook: Callable[[str, float, str], None] | None = None
        #: max events per run() before SimulationError (None = unlimited)
        self.step_cap: int | None = None
        #: max real seconds per run() before SimulationError (None = unlimited)
        self.wall_time_budget: float | None = None

    @property
    def now(self) -> float:
        """Current virtual time in milliseconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        return self._events_executed

    @property
    def pending(self) -> int:
        """Number of queued (non-cancelled) events."""
        return self._queue.queued - self._cancelled_queued

    # -- slab ---------------------------------------------------------------

    def _acquire(
        self, time: float, callback: Callable[[], None], label: str | None
    ) -> _ScheduledEvent:
        free = self._free
        if free:
            event = free.pop()
        else:
            event = _ScheduledEvent()
        event.time = time
        seq = self._seq
        self._seq = seq + 1
        event.seq = seq
        event.callback = callback
        event.cancelled = False
        event.label = label
        return event

    def _release(self, event: _ScheduledEvent) -> None:
        event.generation += 1
        event.callback = None
        event.label = None
        free = self._free
        if len(free) < _FREELIST_CAP:
            free.append(event)

    def _discard(self, event: _ScheduledEvent) -> None:
        """The scheduler's lazy discard: a cancelled record left its queue."""
        self._cancelled_queued -= 1
        self._release(event)

    # -- scheduling ---------------------------------------------------------

    def call_at(
        self,
        time: float,
        callback: Callable[[], None],
        label: str | None = None,
    ) -> EventHandle:
        """Schedule ``callback`` at absolute virtual time ``time``.

        ``label`` names the event in guard diagnostics (defaults to the
        callback's qualified name).
        """
        if time < self._now:
            raise SimulationError(f"cannot schedule at {time} < now {self._now}")
        if label is None and self.event_hook is not None:
            # Name the event now, while the callback is still unwrapped;
            # the label also improves guard diagnostics for free.
            label = _callback_name(callback)
        if self.trace_wrapper is not None:
            callback = self.trace_wrapper(callback)
        event = self._acquire(time, callback, label)
        self._queue.push(event)
        if self.event_hook is not None:
            self.event_hook("schedule", time, label or "<callable>")
        return EventHandle(self, event)

    def call_after(
        self,
        delay: float,
        callback: Callable[[], None],
        label: str | None = None,
    ) -> EventHandle:
        """Schedule ``callback`` after ``delay`` ms of virtual time."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.call_at(self._now + delay, callback, label=label)

    def post_after(
        self,
        delay: float,
        callback: Callable[[], None],
        label: str | None = None,
    ) -> None:
        """:meth:`call_after` without the :class:`EventHandle`.

        The fire-and-forget path for callers that never cancel (message
        deliveries, one-shot timeouts): semantics and hook behaviour are
        identical, but steady-state traffic skips the handle allocation
        entirely -- with the slab recycling the event record, a posted
        event allocates nothing at all.  The scheduling body is inlined
        (this is the single hottest scheduling entry point), and the
        past-time guard reduces to the negative-delay check.
        """
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        time = self._now + delay
        if label is None and self.event_hook is not None:
            label = _callback_name(callback)
        if self.trace_wrapper is not None:
            callback = self.trace_wrapper(callback)
        # _acquire, inlined: one slab pop + field stores, no call frame
        free = self._free
        if free:
            event = free.pop()
        else:
            event = _ScheduledEvent()
        event.time = time
        seq = self._seq
        self._seq = seq + 1
        event.seq = seq
        event.callback = callback
        event.cancelled = False
        event.label = label
        self._queue.push(event)
        if self.event_hook is not None:
            self.event_hook("schedule", time, label or "<callable>")

    # -- execution ----------------------------------------------------------

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have executed.

        ``until`` is inclusive: an event scheduled exactly at ``until``
        runs.  After the run, ``now`` is the time of the last executed
        event (or ``until``, if given and later).

        If :attr:`step_cap` or :attr:`wall_time_budget` is set and this
        run exceeds it, :class:`SimulationError` is raised naming the
        most recently executed callback -- the usual suspect when an
        instrumentation hook reschedules itself unconditionally.
        """
        executed = 0
        deadline: float | None = None
        if self.wall_time_budget is not None:
            deadline = time.perf_counter() + self.wall_time_budget
        # Guard diagnostics: the record itself is recycled after firing,
        # so remember what would identify it, not the record.
        last_label: str | None = None
        last_callback: Callable[[], None] | None = None
        queue = self._queue
        while True:
            if max_events is not None and executed >= max_events:
                break
            if self.step_cap is not None and executed >= self.step_cap:
                raise SimulationError(
                    f"step cap of {self.step_cap} events exceeded in one "
                    f"run(); last callback: "
                    f"{self._describe_last(last_label, last_callback)}"
                )
            if deadline is not None and time.perf_counter() > deadline:
                raise SimulationError(
                    f"wall-time budget of {self.wall_time_budget}s exceeded "
                    f"in one run(); last callback: "
                    f"{self._describe_last(last_label, last_callback)}"
                )
            event = queue.peek()
            if event is None:
                break
            if until is not None and event.time > until:
                break
            queue.pop()
            self._now = event.time
            callback = event.callback
            label = event.label
            self._release(event)
            if self.event_hook is not None:
                self.event_hook("fire", self._now, label or "<callable>")
            callback()
            last_label = label
            last_callback = callback
            executed += 1
            self._events_executed += 1
        if until is not None and until > self._now:
            self._now = until

    @staticmethod
    def _describe_last(
        label: str | None, callback: Callable[[], None] | None
    ) -> str:
        if label is not None:
            return label
        if callback is None:
            return "<no event executed>"
        return _callback_name(callback)

    def step(self) -> bool:
        """Execute the single next event.  Returns False if none remain."""
        executed = self._events_executed
        self.run(max_events=1)
        return self._events_executed != executed


class Timer:
    """A repeating timer built on the kernel.

    Used for soft-state beacons, epidemic anti-entropy rounds, repair
    sweeps, and introspection analysis ticks.
    """

    def __init__(
        self,
        kernel: Kernel,
        interval: float,
        callback: Callable[[], None],
        jitter: Callable[[], float] | None = None,
        label: str | None = None,
    ) -> None:
        if interval <= 0:
            raise SimulationError(f"timer interval must be positive: {interval}")
        self._kernel = kernel
        self._interval = interval
        self._callback = callback
        self._jitter = jitter
        self._label = label
        self._handle: EventHandle | None = None
        self._running = False

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._schedule_next()

    def stop(self) -> None:
        self._running = False
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    @property
    def running(self) -> bool:
        return self._running

    def _schedule_next(self) -> None:
        delay = self._interval
        if self._jitter is not None:
            delay += self._jitter()
        self._handle = self._kernel.call_after(
            max(delay, 0.0), self._fire, label=self._label
        )

    def _fire(self) -> None:
        if not self._running:
            return
        self._callback()
        if self._running:
            self._schedule_next()
