"""Discrete-event simulation kernel.

The paper's prototype ran on a wide-area testbed; we substitute a
deterministic discrete-event simulator.  The kernel executes callbacks
scheduled at virtual times in time order, with ties broken by insertion
sequence so runs are fully deterministic.

Virtual time is measured in milliseconds (floats), matching the paper's
"assume each message takes 100 ms" framing in Section 4.4.5.

The ready queue is one binary heap of ``(time, seq, callback, label,
handle)`` tuples.  ``seq`` is unique, so heap comparisons never reach
past it and stay in C.  A cancelled entry stays in the heap until it
reaches the head, where it is discarded; :attr:`Kernel.pending` counts
such entries out.  Only finite times are accepted: a NaN would silently
break the heap order, so it is refused with :class:`SimulationError`.

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
callback.  An exception escaping a callback is re-raised the same way,
as a :class:`SimulationError` naming the event and its virtual time.
"""

from __future__ import annotations

import time
from heapq import heappop, heappush
from math import inf
from typing import Callable


def _callback_name(callback: Callable[[], None]) -> str:
    """A deterministic name for a callback -- never ``repr``, whose
    embedded address would break byte-identical flight-recorder replay.
    A wrapper that sets ``__wrapped__`` (a trace wrapper) is named after
    what it wraps."""
    while hasattr(callback, "__wrapped__"):
        callback = callback.__wrapped__
    return getattr(callback, "__qualname__", None) or type(callback).__name__


def _bad_delay(delay: float) -> SimulationError:
    if delay < 0:
        return SimulationError(f"negative delay: {delay}")
    return SimulationError(f"non-finite delay: {delay}")


class EventHandle:
    """Handle to a scheduled event, allowing cancellation.

    The handle holds its kernel only while the event is queued; firing
    or cancelling drops the reference, so a late ``cancel()`` touches
    nothing.
    """

    __slots__ = ("_kernel", "_cancelled")

    def __init__(self, kernel: "Kernel") -> None:
        self._kernel: Kernel | None = kernel
        self._cancelled = False

    def cancel(self) -> None:
        self._cancelled = True
        kernel = self._kernel
        if kernel is not None:
            # still queued: the run loop discards it lazily, and until
            # then Kernel.pending must not count it
            kernel._cancelled_queued += 1
            self._kernel = None

    @property
    def cancelled(self) -> bool:
        return self._cancelled


class SimulationError(RuntimeError):
    """Raised for kernel misuse (e.g. scheduling in the past or at a
    non-finite time), for a run that blows through its step cap /
    wall-time budget, and for an exception escaping a callback."""


class Kernel:
    """Deterministic discrete-event loop.

    Typical use::

        kernel = Kernel()
        kernel.call_at(10.0, lambda: print("at t=10ms"))
        kernel.run()
    """

    def __init__(self) -> None:
        #: the ready queue: (time, seq, callback, label, handle) tuples
        self._heap: list[
            tuple[float, int, Callable[[], None], str | None, EventHandle | None]
        ] = []
        #: cancelled entries the run loop has not met and discarded yet
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
        return len(self._heap) - self._cancelled_queued

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
        if not self._now <= time < inf:
            if time < self._now:
                raise SimulationError(f"cannot schedule at {time} < now {self._now}")
            raise SimulationError(f"cannot schedule at non-finite time {time}")
        handle = EventHandle(self)
        self._push(time, callback, label, handle)
        return handle

    def call_after(
        self,
        delay: float,
        callback: Callable[[], None],
        label: str | None = None,
    ) -> EventHandle:
        """Schedule ``callback`` after ``delay`` ms of virtual time."""
        if not 0.0 <= delay < inf:
            raise _bad_delay(delay)
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
        identical, but no handle is allocated.
        """
        if not 0.0 <= delay < inf:
            raise _bad_delay(delay)
        if self.event_hook is None and self.trace_wrapper is None:
            # no observer to name, wrap or tell: the entry goes straight in
            seq = self._seq
            self._seq = seq + 1
            heappush(self._heap, (self._now + delay, seq, callback, label, None))
        else:
            self._push(self._now + delay, callback, label, None)

    def _push(
        self,
        time: float,
        callback: Callable[[], None],
        label: str | None,
        handle: EventHandle | None,
    ) -> None:
        if label is None and self.event_hook is not None:
            # Name the event now, while the callback is still unwrapped;
            # the label also improves guard diagnostics for free.
            label = _callback_name(callback)
        if self.trace_wrapper is not None:
            callback = self.trace_wrapper(callback)
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (time, seq, callback, label, handle))
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
        instrumentation hook reschedules itself unconditionally.  An
        exception escaping a callback is re-raised as a
        :class:`SimulationError` naming that event and its time, chained
        to the original; a :class:`SimulationError` passes through.
        """
        if until is not None and not -inf < until < inf:
            raise SimulationError(f"cannot run until non-finite time {until}")
        executed = 0
        deadline: float | None = None
        if self.wall_time_budget is not None:
            deadline = time.perf_counter() + self.wall_time_budget
        last_label: str | None = None
        last_callback: Callable[[], None] | None = None
        heap = self._heap
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
            if not heap:
                break
            when, _, callback, label, handle = heap[0]
            if handle is not None and handle._cancelled:
                heappop(heap)
                self._cancelled_queued -= 1
                continue
            if until is not None and when > until:
                break
            heappop(heap)
            if handle is not None:
                handle._kernel = None  # fired: a late cancel() is a no-op
            self._now = when
            if self.event_hook is not None:
                self.event_hook("fire", when, label or "<callable>")
            try:
                callback()
            except SimulationError:
                raise
            except Exception as exc:
                raise SimulationError(
                    f"callback {self._describe_last(label, callback)} "
                    f"raised at t={when} ms: {type(exc).__name__}: {exc}"
                ) from exc
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
        #: delay before each fire; a new value applies from the next one
        self.interval = interval
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
        delay = self.interval
        if self._jitter is not None:
            delay += self._jitter()
        self._handle = self._kernel.call_after(
            max(delay, 0.0), self._fire, label=self._label
        )

    def _fire(self) -> None:
        if not self._running:
            return
        handle = self._handle
        self._callback()
        # a callback that restarted the timer (stop(); start()) has
        # already scheduled the next fire under a newer handle
        if self._running and self._handle is handle:
            self._schedule_next()
