"""The micro-batching request scheduler.

Concurrent scoring requests accumulate in a bounded queue and flush as
*one* vectorized evaluation -- the serving-tier analogue of what the
kernel layer does for per-op overhead: the flow's per-batch fixed costs
(bijector dispatch, scratch setup) are paid once per flush instead of
once per request.

Scheduling contract (continuous batching):

* the worker flushes whatever is queued as soon as it is free -- a
  request that finds it idle is scored at once, and requests that
  arrive during a flush leave together in the next one, as whole
  requests up to ``max_batch`` passwords, so batching grows with load
  and no request waits in front of an idle worker;
* requests are never split across flushes (a request larger than
  ``max_batch`` forms its own oversized batch, preserving one-reply-per-
  request);
* a request whose ``deadline_ms`` expires while still queued is rejected
  with :class:`DeadlineExceeded` -- scored-late answers are worse than
  fast failures for a strength meter UI;
* ``submit`` on a full queue fails immediately with :class:`QueueFull`
  (bounded memory, backpressure to the socket layer);
* :meth:`MicroBatcher.close` with ``drain=True`` flushes everything
  still queued before returning -- graceful shutdown loses no accepted
  request.

Determinism: the flush function receives the concatenated passwords of
the collected requests.  Because :meth:`StrengthEstimator.score_batch`
is bitwise identical to the scalar loop regardless of batch shape, the
answers a caller sees do not depend on which other requests happened to
share its flush -- asserted by the soak test in
``tests/serve/test_server.py``.

Deadlines and latency stats read time through the
:mod:`repro.serve.clock` seam, so they are testable under virtual time
(no real sleeps).
"""

from __future__ import annotations

import threading
from typing import Any, Callable, List, Optional, Sequence

from repro.serve.clock import SystemClock
from repro.serve.stats import ServeStats


class ServeError(RuntimeError):
    """Base class for request-level serving failures (one-line messages)."""


class DeadlineExceeded(ServeError):
    """The request's ``deadline_ms`` expired before it was scored."""


class QueueFull(ServeError):
    """The batcher's bounded queue is at capacity; retry later."""


class BatcherClosed(ServeError):
    """The batcher is shutting down and accepts no new requests."""


class Ticket:
    """A caller's handle on one submitted request (a minimal future)."""

    __slots__ = ("_event", "_result", "_error")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._result: Any = None
        self._error: Optional[BaseException] = None

    def set_result(self, result: Any) -> None:
        self._result = result
        self._event.set()

    def set_error(self, error: BaseException) -> None:
        self._error = error
        self._event.set()

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> Any:
        """Block for the result; re-raises the request's failure."""
        if not self._event.wait(timeout):
            raise TimeoutError("request still pending")
        if self._error is not None:
            raise self._error
        return self._result


class _Pending:
    __slots__ = ("passwords", "ticket", "enqueued_at", "deadline_at")

    def __init__(self, passwords, ticket, enqueued_at, deadline_at) -> None:
        self.passwords = passwords
        self.ticket = ticket
        self.enqueued_at = enqueued_at
        self.deadline_at = deadline_at


class MicroBatcher:
    """Accumulate requests, flush them through one vectorized call.

    Parameters
    ----------
    flush:
        ``flush(passwords) -> sequence`` scoring N passwords in one
        vectorized pass; result is scattered back per request by slice.
    max_batch:
        Most passwords one flush collects (whole requests only; a larger
        request is flushed on its own).
    max_queue:
        Bounded queue capacity in passwords; ``submit`` beyond it raises
        :class:`QueueFull`.
    clock / stats:
        Injected seams; default to real time and a private stats sink.
    """

    def __init__(
        self,
        flush: Callable[[List[str]], Sequence[Any]],
        *,
        max_batch: int = 64,
        max_queue: int = 4096,
        clock=None,
        stats: Optional[ServeStats] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_queue < max_batch:
            raise ValueError("max_queue must be >= max_batch")
        self._flush = flush
        self.max_batch = int(max_batch)
        self.max_queue = int(max_queue)
        self.clock = clock if clock is not None else SystemClock()
        self.stats = stats if stats is not None else ServeStats()
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._pending: List[_Pending] = []
        self._queued_passwords = 0
        self._closing = False
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # submission side
    # ------------------------------------------------------------------
    def submit(
        self, passwords: Sequence[str], deadline_ms: Optional[float] = None
    ) -> Ticket:
        """Queue one request; returns its :class:`Ticket` immediately."""
        passwords = list(passwords)
        if not passwords:
            raise ValueError("submit needs at least one password")
        ticket = Ticket()
        now = self.clock.monotonic()
        deadline_at = None if deadline_ms is None else now + deadline_ms / 1000.0
        with self._cond:
            if self._closing:
                raise BatcherClosed("the scoring daemon is shutting down")
            if self._queued_passwords + len(passwords) > self.max_queue:
                self.stats.record_rejection("overload")
                raise QueueFull(
                    f"scoring queue is full ({self.max_queue} passwords); retry"
                )
            self._pending.append(_Pending(passwords, ticket, now, deadline_at))
            self._queued_passwords += len(passwords)
            self._cond.notify_all()
        return ticket

    @property
    def queue_depth(self) -> int:
        """Passwords currently queued (the ``stats`` endpoint's view)."""
        with self._lock:
            return self._queued_passwords

    # ------------------------------------------------------------------
    # scheduling decisions (pure, lock held)
    # ------------------------------------------------------------------
    def _expire_locked(self, now: float) -> List[_Pending]:
        """Pop requests whose deadline has passed (to be rejected)."""
        expired = [
            p for p in self._pending
            if p.deadline_at is not None and now >= p.deadline_at
        ]
        if expired:
            self._pending = [p for p in self._pending if p not in expired]
            self._queued_passwords -= sum(len(p.passwords) for p in expired)
        return expired

    def _collect_locked(self) -> List[_Pending]:
        """Pop the batch to flush: whole requests up to ``max_batch``."""
        batch: List[_Pending] = []
        total = 0
        while self._pending:
            request = self._pending[0]
            if batch and total + len(request.passwords) > self.max_batch:
                break
            batch.append(self._pending.pop(0))
            total += len(request.passwords)
        self._queued_passwords -= total
        return batch

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _reject(self, expired: List[_Pending]) -> None:
        for request in expired:
            self.stats.record_rejection("deadline")
            request.ticket.set_error(
                DeadlineExceeded("deadline expired before the request was scored")
            )

    def _execute(self, batch: List[_Pending]) -> None:
        if not batch:
            return
        passwords: List[str] = []
        for request in batch:
            passwords.extend(request.passwords)
        try:
            results = self._flush(passwords)
        except BaseException as exc:  # a poisoned batch fails its members,
            for request in batch:     # never the daemon
                request.ticket.set_error(ServeError(f"scoring failed: {exc}"))
            return
        done = self.clock.monotonic()
        offset = 0
        latencies = []
        for request in batch:
            request.ticket.set_result(
                results[offset : offset + len(request.passwords)]
            )
            offset += len(request.passwords)
            latencies.append(done - request.enqueued_at)
        self.stats.record_batch(len(batch), len(passwords), latencies)

    def pump(self) -> int:
        """Reject expired requests and flush one batch; returns requests completed.

        One step of the worker thread's loop, which tests also drive
        directly under virtual time: one call flushes whatever is queued,
        up to ``max_batch`` passwords of whole requests (0 when the queue
        is empty).
        """
        now = self.clock.monotonic()
        with self._cond:
            expired = self._expire_locked(now)
            batch = self._collect_locked()
        self._reject(expired)
        self._execute(batch)
        return len(expired) + len(batch)

    # ------------------------------------------------------------------
    # the daemon's worker loop
    # ------------------------------------------------------------------
    def start(self) -> "MicroBatcher":
        """Start the background flush thread (idempotent)."""
        with self._lock:
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._run, name="repro-serve-batcher", daemon=True
                )
                self._thread.start()
        return self

    def _run(self) -> None:
        # the worker never idles while work is queued, so it needs no
        # timed wakeup: it sleeps until submit or close notifies it
        while True:
            with self._cond:
                while not self._pending and not self._closing:
                    self._cond.wait()
                if not self._pending:
                    return
            self.pump()

    def close(self, drain: bool = True, timeout: Optional[float] = 10.0) -> None:
        """Stop accepting requests; with ``drain`` flush what is queued.

        Without a worker thread (a batcher a test drives with
        :meth:`pump`) draining happens inline, so ``close`` is safe either
        way.  With ``drain=False`` queued requests fail with
        :class:`BatcherClosed`.
        """
        with self._cond:
            self._closing = True
            abandoned = [] if drain else self._pending[:]
            if not drain:
                self._pending = []
                self._queued_passwords = 0
            self._cond.notify_all()
            thread = self._thread
        for request in abandoned:
            request.ticket.set_error(BatcherClosed("daemon shut down"))
        if thread is not None:
            thread.join(timeout)
        elif drain:
            while self.pump():
                pass
