"""The reference ready queue the kernel's timer wheel is tested against.

The kernel ships one scheduler, the timer wheel.  Its contract is the
``(time, seq)`` fire order of a single binary heap, so that heap lives
here, in the test tree, as the obviously-correct reference:
:func:`make_kernel` builds a kernel on either queue by replacing
``Kernel._queue`` before anything is scheduled.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable

from repro.sim.kernel import Kernel, _ScheduledEvent

#: the ready queues a differential test runs on
SCHEDULERS = ("wheel", "heap")


class HeapScheduler:
    """One binary heap of ``(time, seq, event)``.

    Entries are tuples so heap comparisons stay in C (``seq`` is unique,
    so the event record itself is never compared).
    """

    __slots__ = ("_heap", "_discard")

    def __init__(self, discard: Callable[[_ScheduledEvent], None]) -> None:
        self._heap: list[tuple[float, int, _ScheduledEvent]] = []
        self._discard = discard

    def push(self, event: _ScheduledEvent) -> None:
        heappush(self._heap, (event.time, event.seq, event))

    def peek(self) -> _ScheduledEvent | None:
        """Next live event, discarding cancelled records along the way."""
        heap = self._heap
        while heap:
            event = heap[0][2]
            if event.cancelled:
                heappop(heap)
                self._discard(event)
                continue
            return event
        return None

    def pop(self) -> _ScheduledEvent:
        """Remove the head; only valid right after a non-None peek()."""
        return heappop(self._heap)[2]

    @property
    def queued(self) -> int:
        return len(self._heap)


def make_kernel(scheduler: str) -> Kernel:
    """A fresh kernel on the named ready queue (one of :data:`SCHEDULERS`)."""
    kernel = Kernel()
    if scheduler == "heap":
        kernel._queue = HeapScheduler(kernel._discard)
    return kernel
