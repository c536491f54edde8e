"""The time seam the micro-batcher reads.

Per-request deadlines and the latency stats are pure functions of "what
time is it"; routing that question through a tiny :class:`Clock`
interface lets the tests run the *real* batcher under a
:class:`FakeClock` -- virtual time advances instead of the test
sleeping, so a deadline-expiry suite finishes in milliseconds and never
flakes on a loaded machine.  The batcher never waits on a clock: its
worker sleeps until a request arrives and flushes as soon as it is free.

Two implementations:

* :class:`SystemClock` -- ``time.monotonic``; what the daemon runs on.
* :class:`FakeClock` -- a manually advanced virtual monotonic time.
"""

from __future__ import annotations

import threading
import time


class SystemClock:
    """Real time: the production clock."""

    def monotonic(self) -> float:
        return time.monotonic()


class FakeClock:
    """Deterministic virtual time for batcher tests.

    :meth:`monotonic` only moves when the test calls :meth:`advance`, so
    deadlines expire exactly when a test says and a flush that finds the
    worker idle records a latency of exactly zero.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._lock = threading.Lock()

    def monotonic(self) -> float:
        with self._lock:
            return self._now

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("time cannot go backwards")
        with self._lock:
            self._now += seconds
