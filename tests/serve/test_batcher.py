"""Micro-batcher scheduling semantics under virtual time (no real sleeps).

The batcher flushes whatever is queued as soon as its worker is free.
Every timing assertion here runs against :class:`FakeClock`: the test
advances virtual time and pumps the batcher (or holds the threaded
worker inside a flush on a :class:`threading.Event`), so deadline
expiry and batching-while-busy are exact and immune to loaded-machine
flake.
"""

from __future__ import annotations

import threading

import pytest

from repro.serve import (
    BatcherClosed,
    DeadlineExceeded,
    FakeClock,
    MicroBatcher,
    QueueFull,
    ServeError,
)

JOIN_TIMEOUT_S = 10.0


class Harness:
    """A batcher over a recording flush function."""

    def __init__(self, **kwargs):
        self.clock = kwargs.pop("clock", FakeClock())
        self.flushes = []
        kwargs.setdefault("max_batch", 4)
        kwargs.setdefault("max_queue", 64)
        self.batcher = MicroBatcher(self._flush, clock=self.clock, **kwargs)

    def _flush(self, passwords):
        self.flushes.append(list(passwords))
        return [f"scored:{p}" for p in passwords]


class TestContinuousFlush:
    def test_lone_request_flushes_on_the_first_pump(self):
        h = Harness(max_batch=64)
        ticket = h.batcher.submit(["p0"])
        assert h.batcher.pump() == 1  # no clock advance: nothing to wait for
        assert ticket.result(0) == ["scored:p0"]
        assert h.flushes == [["p0"]]
        assert h.batcher.pump() == 0  # empty queue: nothing to do

    def test_one_pump_collects_at_most_max_batch(self):
        h = Harness(max_batch=4)
        tickets = [h.batcher.submit([f"p{i}"]) for i in range(5)]
        assert h.batcher.pump() == 4
        assert h.batcher.queue_depth == 1
        assert h.batcher.pump() == 1
        assert h.flushes == [["p0", "p1", "p2", "p3"], ["p4"]]
        assert [t.result(0) for t in tickets] == [
            [f"scored:p{i}"] for i in range(5)
        ]

    def test_requests_are_never_split_across_flushes(self):
        h = Harness(max_batch=4)
        before = h.batcher.submit(["a"])
        big = h.batcher.submit(["b", "c", "d", "e", "f"])  # > max_batch
        after = h.batcher.submit(["g"])
        while h.batcher.pump():
            pass
        # the oversized request gets a flush of its own, between its neighbors
        assert h.flushes == [["a"], ["b", "c", "d", "e", "f"], ["g"]]
        assert before.result(0) == ["scored:a"]
        assert big.result(0) == [f"scored:{p}" for p in "bcdef"]
        assert after.result(0) == ["scored:g"]


class TestDeadlines:
    def test_expired_request_is_rejected_not_scored(self):
        h = Harness(max_batch=64)
        doomed = h.batcher.submit(["late"], deadline_ms=5.0)
        h.clock.advance(0.005)
        assert h.batcher.pump() == 1
        with pytest.raises(DeadlineExceeded):
            doomed.result(0)
        assert h.flushes == []  # never reached the model
        assert h.batcher.stats.snapshot()["rejected"] == {"deadline": 1}

    def test_live_requests_survive_a_neighbors_expiry(self):
        h = Harness(max_batch=64)
        doomed = h.batcher.submit(["late"], deadline_ms=5.0)
        alive = h.batcher.submit(["fine"])
        h.clock.advance(0.005)
        assert h.batcher.pump() == 2  # one rejection, one flushed request
        with pytest.raises(DeadlineExceeded):
            doomed.result(0)
        assert alive.result(0) == ["scored:fine"]
        assert h.flushes == [["fine"]]


class TestBackpressure:
    def test_full_queue_rejects_immediately(self):
        h = Harness(max_batch=2, max_queue=3)
        h.batcher.submit(["a", "b", "c"])
        with pytest.raises(QueueFull):
            h.batcher.submit(["d"])
        assert h.batcher.stats.snapshot()["rejected"] == {"overload": 1}

    def test_empty_submit_is_a_caller_error(self):
        h = Harness()
        with pytest.raises(ValueError):
            h.batcher.submit([])


class TestShutdown:
    def test_drain_flushes_everything_queued(self):
        h = Harness(max_batch=64)
        tickets = [h.batcher.submit([f"p{i}"]) for i in range(3)]
        h.batcher.close(drain=True)
        assert [t.result(0) for t in tickets] == [[f"scored:p{i}"] for i in range(3)]

    def test_pump_mode_drain_flushes_beyond_one_batch(self):
        h = Harness(max_batch=2)
        tickets = [h.batcher.submit([f"p{i}"]) for i in range(5)]
        h.batcher.close(drain=True)
        assert [t.result(0) for t in tickets] == [[f"scored:p{i}"] for i in range(5)]
        assert h.flushes == [["p0", "p1"], ["p2", "p3"], ["p4"]]
        assert h.batcher.queue_depth == 0

    def test_drain_false_fails_pending_tickets(self):
        h = Harness(max_batch=64)
        ticket = h.batcher.submit(["p0"])
        h.batcher.close(drain=False)
        with pytest.raises(BatcherClosed):
            ticket.result(0)
        assert h.flushes == []

    def test_submit_after_close_is_rejected(self):
        h = Harness()
        h.batcher.close()
        with pytest.raises(BatcherClosed):
            h.batcher.submit(["p0"])


class TestFailureIsolation:
    def test_poisoned_flush_fails_its_members_not_the_batcher(self):
        clock = FakeClock()

        def explode(passwords):
            raise RuntimeError("model on fire")

        batcher = MicroBatcher(explode, max_batch=2, clock=clock)
        tickets = [batcher.submit(["a"]), batcher.submit(["b"])]
        batcher.pump()
        for ticket in tickets:
            with pytest.raises(ServeError, match="scoring failed"):
                ticket.result(0)
        # the batcher itself is still usable
        assert batcher.submit(["c"]) is not None


class BlockingHarness(Harness):
    """A harness whose first flush blocks until the test releases it."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.entered = threading.Event()
        self.release = threading.Event()

    def _flush(self, passwords):
        if not self.flushes:
            self.entered.set()
            assert self.release.wait(JOIN_TIMEOUT_S), "flush never released"
        return super()._flush(passwords)


class TestThreadedLoop:
    """The real worker loop, still under virtual time."""

    def test_threaded_flush_and_drain(self):
        h = Harness(max_batch=64)
        h.batcher.start()
        tickets = [h.batcher.submit([f"p{i}"]) for i in range(3)]
        results = [t.result(timeout=JOIN_TIMEOUT_S) for t in tickets]
        assert results == [[f"scored:p{i}"] for i in range(3)]
        h.batcher.close(drain=True)
        assert all(p in sum(h.flushes, []) for p in ("p0", "p1", "p2"))

    def test_lone_request_finds_the_worker_idle(self):
        h = Harness(max_batch=64)
        h.batcher.start()
        ticket = h.batcher.submit(["p0"])
        assert ticket.result(timeout=JOIN_TIMEOUT_S) == ["scored:p0"]
        h.batcher.close(drain=True)
        # virtual time never moved: the request waited for nothing
        assert h.batcher.stats.snapshot()["latency"]["p50_ms"] == 0.0
        assert h.flushes == [["p0"]]

    def test_requests_arriving_during_a_flush_batch_together(self):
        h = BlockingHarness(max_batch=4)
        h.batcher.start()
        first = h.batcher.submit(["first"])
        assert h.entered.wait(JOIN_TIMEOUT_S)
        tickets = [h.batcher.submit([f"p{i}"]) for i in range(5)]
        h.release.set()
        assert first.result(timeout=JOIN_TIMEOUT_S) == ["scored:first"]
        assert [t.result(timeout=JOIN_TIMEOUT_S) for t in tickets] == [
            [f"scored:p{i}"] for i in range(5)
        ]
        h.batcher.close(drain=True)
        assert h.flushes == [["first"], ["p0", "p1", "p2", "p3"], ["p4"]]

    def test_deadline_expires_while_queued_behind_a_flush(self):
        h = BlockingHarness(max_batch=4)
        h.batcher.start()
        first = h.batcher.submit(["first"])
        assert h.entered.wait(JOIN_TIMEOUT_S)
        doomed = h.batcher.submit(["late"], deadline_ms=5.0)
        alive = h.batcher.submit(["fine"])
        h.clock.advance(0.005)
        h.release.set()
        with pytest.raises(DeadlineExceeded):
            doomed.result(timeout=JOIN_TIMEOUT_S)
        assert alive.result(timeout=JOIN_TIMEOUT_S) == ["scored:fine"]
        assert first.result(timeout=JOIN_TIMEOUT_S) == ["scored:first"]
        h.batcher.close(drain=True)
        assert h.flushes == [["first"], ["fine"]]
        assert h.batcher.stats.snapshot()["rejected"] == {"deadline": 1}
