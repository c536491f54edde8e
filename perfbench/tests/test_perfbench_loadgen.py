"""Open- and closed-loop accounting on virtual time.

The clock only moves when the loop waits (``poll``) or a send costs time,
following the ``repro.serve.clock.FakeClock`` pattern: no real sleeps.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import loadgen  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.t = 100.0

    def now(self) -> float:
        return self.t


class FakeDaemon:
    """Answers each request ``service_s`` after it arrives, one at a time;
    each send costs the generator ``send_cost_s`` of virtual time."""

    def __init__(self, clock: FakeClock, service_s: float, send_cost_s: float = 0.0):
        self.clock = clock
        self.service_s = service_s
        self.send_cost_s = send_cost_s
        self.ready = []  # (answer time, index)
        self.free_at = 0.0
        self.sent = []

    @property
    def outstanding(self) -> int:
        return len(self.ready)

    def send(self, index, payload) -> None:
        self.clock.t += self.send_cost_s
        start = max(self.clock.t, self.free_at)
        self.free_at = start + self.service_s
        self.ready.append((self.free_at, index))
        self.sent.append(index)

    def poll(self, timeout):
        if not self.ready:
            self.clock.t += timeout or 0.0
            return []
        first = min(t for t, _ in self.ready)
        if timeout is not None and first > self.clock.t + timeout:
            self.clock.t += timeout
            return []
        self.clock.t = max(self.clock.t, first)
        done = [(i, b"ok") for t, i in self.ready if t <= self.clock.t]
        self.ready = [(t, i) for t, i in self.ready if t > self.clock.t]
        return done


def test_a_keeping_up_generator_sends_on_time():
    clock = FakeClock()
    daemon = FakeDaemon(clock, service_s=0.001)
    rung = loadgen.run_open_loop([b"x"] * 50, rate=100.0, transport=daemon, clock=clock)
    assert rung.unanswered == 0
    assert max(rung.lateness_ms()) == pytest.approx(0.0, abs=1e-9)
    assert rung.latencies_ms() == pytest.approx([1.0] * 50)
    assert not rung.backlog_growing()


def test_a_slow_generator_is_late_and_latency_counts_from_due():
    # each send costs 15 ms against a 10 ms schedule: request k goes out
    # 15 + 5k ms late, and that wait is part of its latency
    clock = FakeClock()
    daemon = FakeDaemon(clock, service_s=0.001, send_cost_s=0.015)
    rung = loadgen.run_open_loop([b"x"] * 20, rate=100.0, transport=daemon, clock=clock)
    late = rung.lateness_ms()
    assert late == pytest.approx([15.0 + 5.0 * k for k in range(20)])
    assert daemon.sent == list(range(20))  # nothing skipped to catch up
    # a generator busy sending reads no answers, so it can only overstate
    # latency: each request waited at least its lateness plus its service
    assert all(lat >= l + 1.0 - 1e-6 for lat, l in zip(rung.latencies_ms(), late))


def test_an_overloaded_daemon_shows_a_growing_backlog():
    clock = FakeClock()
    daemon = FakeDaemon(clock, service_s=0.02)  # 50/s capacity, offered 100/s
    rung = loadgen.run_open_loop([b"x"] * 100, rate=100.0, transport=daemon, clock=clock,
                                 drain_s=5.0)
    assert rung.unanswered == 0
    assert max(rung.lateness_ms()) == pytest.approx(0.0, abs=1e-9)  # generator fine
    assert rung.backlog_growing()
    latencies = rung.latencies_ms()
    assert latencies[-1] > latencies[0] + 900.0


def test_unanswered_requests_are_reported_after_the_drain():
    clock = FakeClock()
    daemon = FakeDaemon(clock, service_s=1.0)
    rung = loadgen.run_open_loop([b"x"] * 10, rate=100.0, transport=daemon, clock=clock,
                                 drain_s=2.0)
    # the last request is due at +95 ms; answers land 1 s apart from
    # +1.005 s, so two of them beat the 2 s drain deadline
    assert rung.unanswered == 8
    assert len(rung.latencies_ms()) == 2


def test_closed_loop_keeps_the_window_full_and_measures_capacity():
    clock = FakeClock()
    daemon = FakeDaemon(clock, service_s=0.004)  # 250/s
    rung = loadgen.run_closed_loop([b"x"] * 200, window=8, transport=daemon, clock=clock)
    assert rung.unanswered == 0
    assert rung.rate == pytest.approx(250.0, rel=0.02)


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert loadgen.percentile(values, 50) == 50
    assert loadgen.percentile(values, 99) == 99
    assert loadgen.percentile(values, 100) == 100
    assert loadgen.percentile([3.0], 99) == 3.0
    assert loadgen.percentile([1.0, float("inf")], 99) == float("inf")
