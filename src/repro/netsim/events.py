"""Event queue for the discrete-event network simulator.

Ordering invariant: events fire in (time, scheduling order); every scheduled
event takes the next tie-break number.  A *run* -- ``n`` identical events
scheduled back to back for one instant (the loss detections of one burst of
tail-drops) -- is one heap entry that takes the run's first number and
advances the counter by ``n``, so every other event keeps the number it would
have next to ``n`` separate entries.  A run counts ``n`` logical events
towards ``processed`` and ``max_events``; the valve can stop inside one, and
the members that did not fire stay queued under the numbers they held.

The invariant holds in two loops: :meth:`EventQueue.run_until`, which calls
each entry's handler, and :func:`repro.netsim.fused.run_until`, which fires a
fresh single-flow run in one frame and numbers its entries the same way.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

#: An event callback takes the current simulation time (microseconds).
EventCallback = Callable[[int], None]


class EventQueue:
    """Min-heap of timestamped events with stable FIFO ordering for ties."""

    def __init__(self) -> None:
        # (time, tie-break number, handler, argument, run length or 0)
        self._heap: List[Tuple[int, int, Callable[[Any], None], Any, int]] = []
        self._next_number = 0
        self.now = 0
        #: Logical events fired so far (a run of n counts n).
        self.processed = 0
        #: True when ``max_events`` stopped the last ``run_until`` short of its horizon.
        self.truncated = False

    def schedule(self, time_us: int, callback: EventCallback) -> None:
        """Schedule ``callback(time_us)`` to run at ``time_us`` (>= now)."""
        self.call_at(time_us, callback, int(time_us))

    def call_at(self, time_us: int, handler: Callable, arg: Any, run: int = 0) -> None:
        """Schedule ``handler(arg)`` at ``time_us``: no closure per event.

        ``run=n`` schedules a run of ``n`` back-to-back events as one entry:
        ``handler(k)`` must do what ``k`` consecutive single firings would,
        where ``k`` is ``n`` unless ``max_events`` stops inside the run.
        """
        if time_us < self.now:
            raise ValueError(
                f"cannot schedule an event in the past ({time_us} < {self.now})"
            )
        number = self._next_number
        self._next_number = number + (run or 1)
        heapq.heappush(self._heap, (int(time_us), number, handler, arg, run))

    def __len__(self) -> int:
        return len(self._heap)

    def empty(self) -> bool:
        return not self._heap

    def step(self, budget: Optional[int] = None) -> int:
        """Fire the earliest entry, at most ``budget`` logical events of it.

        Returns the number of logical events fired (0 when the queue is empty).
        """
        if not self._heap:
            return 0
        time_us, number, handler, arg, run = heapq.heappop(self._heap)
        self.now = time_us
        if not run:
            handler(arg)
            fired = 1
        else:
            fired = run if budget is None else min(run, budget)
            if fired < run:
                heapq.heappush(
                    self._heap, (time_us, number + fired, handler, arg, run - fired)
                )
            handler(fired)
        self.processed += fired
        return fired

    def run_until(self, end_time_us: int, max_events: Optional[int] = None) -> int:
        """Process events up to (and including) ``end_time_us``.

        Returns the number of logical events processed.  ``max_events`` is a
        safety valve against runaway schedules (e.g. a broken controller
        flooding the link with zero-length timers); ``truncated`` records
        that it closed.
        """
        processed = 0
        self.truncated = False
        while self._heap and self._heap[0][0] <= end_time_us:
            if max_events is not None and processed >= max_events:
                self.truncated = True
                break
            processed += self.step(None if max_events is None else max_events - processed)
        self.now = max(self.now, end_time_us)
        return processed
