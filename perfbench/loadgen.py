"""Open-loop load generation for the serving workload.

Request ``i`` of a rung is due at ``start + i / rate`` whether or not
earlier requests were answered (independent users, not waiting callers).
One thread sends every request at or after its due time and reads the
responses; latency is timed from when a request was *due*, so a stall
charges its wait to every request queued behind it, and how late the
generator itself sent each request is recorded beside it.

The loop talks to a transport (``send``/``poll``/``outstanding``) and a
clock (``now``), so its accounting is testable on virtual time with a
fake transport, the same pattern as ``repro.serve.clock.FakeClock``.
"""

from __future__ import annotations

import selectors
import socket
import statistics
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Sequence, Tuple


@dataclass
class RungResult:
    """Per-request timings of one open-loop rung (seconds, clock units)."""

    rate: float
    due: List[float]
    sent: List[Optional[float]]
    answered: List[Optional[float]]
    lines: List[Optional[bytes]] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.due)

    @property
    def unanswered(self) -> int:
        return sum(1 for t in self.answered if t is None)

    def latencies_ms(self) -> List[float]:
        """Due-to-answer latency of every answered request."""
        return [
            (answer - due) * 1000.0
            for due, answer in zip(self.due, self.answered)
            if answer is not None
        ]

    def lateness_ms(self) -> List[float]:
        """How late the generator sent each request it sent."""
        return [
            (sent - due) * 1000.0
            for due, sent in zip(self.due, self.sent)
            if sent is not None
        ]

    def backlog_growing(self) -> bool:
        """True when the last fifth waited clearly longer than the first.

        A daemon keeping up answers the tail of a rung as fast as its
        head; one falling behind queues more and more, so latency climbs
        through the rung.
        """
        latencies = [
            (answer - due) if answer is not None else float("inf")
            for due, answer in zip(self.due, self.answered)
        ]
        fifth = max(1, len(latencies) // 5)
        head = statistics.median(latencies[:fifth])
        tail = statistics.median(latencies[-fifth:])
        return tail > 2.0 * head + 0.001


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of ``values``."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def run_open_loop(
    payloads: Sequence[bytes],
    rate: float,
    transport,
    clock,
    drain_s: float = 2.0,
    lead_s: float = 0.005,
) -> RungResult:
    """Send ``payloads`` at ``rate`` per second; collect every answer.

    Returns when everything is answered, or ``drain_s`` after the last
    request was due (what is still missing then counts as unanswered).
    """
    count = len(payloads)
    start = clock.now() + lead_s
    due = [start + i / rate for i in range(count)]
    sent: List[Optional[float]] = [None] * count
    answered: List[Optional[float]] = [None] * count
    lines: List[Optional[bytes]] = [None] * count
    deadline = (due[-1] if due else start) + drain_s
    cursor = 0
    while True:
        now = clock.now()
        while cursor < count and due[cursor] <= now:
            transport.send(cursor, payloads[cursor])
            now = clock.now()
            sent[cursor] = now
            cursor += 1
        if cursor >= count and (transport.outstanding == 0 or now >= deadline):
            break
        wait = (due[cursor] if cursor < count else deadline) - now
        replies = transport.poll(max(0.0, wait))
        if replies:
            now = clock.now()
            for index, line in replies:
                answered[index] = now
                lines[index] = line
    return RungResult(rate, due, sent, answered, lines)


def run_closed_loop(
    payloads: Sequence[bytes], window: int, transport, clock, stall_s: float = 10.0
) -> RungResult:
    """Keep ``window`` requests outstanding until all are answered.

    The daemon never waits for work, so answers per second is its
    capacity.  ``due`` is each request's send time; the result's ``rate``
    is what was achieved.  Gives up (leaving the rest unanswered) when no
    answer arrives for ``stall_s``.
    """
    count = len(payloads)
    due: List[float] = [0.0] * count
    answered: List[Optional[float]] = [None] * count
    lines: List[Optional[bytes]] = [None] * count
    cursor = 0
    start = last = clock.now()
    while cursor < count or transport.outstanding:
        while cursor < count and transport.outstanding < window:
            due[cursor] = clock.now()
            transport.send(cursor, payloads[cursor])
            cursor += 1
        replies = transport.poll(stall_s)
        now = clock.now()
        if not replies:
            if now - last >= stall_s:
                break
            continue  # a partial line arrived
        last = now
        for index, line in replies:
            answered[index] = now
            lines[index] = line
    elapsed = clock.now() - start
    return RungResult(count / elapsed if elapsed > 0 else 0.0, due, list(due), answered, lines)


class SocketTransport:
    """Pipelined NDJSON over one or more connections to the daemon.

    Request ``i`` goes out on connection ``i % len(connections)``; the
    daemon answers each connection's requests in order, so every complete
    response line belongs to the oldest outstanding request of its
    connection.
    """

    def __init__(self, socket_path: str, connections: int = 1) -> None:
        self._selector = selectors.DefaultSelector()
        self._socks: List[socket.socket] = []
        self._pending: List[Deque[int]] = []
        self._buffers: List[bytes] = []
        for slot in range(connections):
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.connect(socket_path)
            self._socks.append(sock)
            self._pending.append(deque())
            self._buffers.append(b"")
            self._selector.register(sock, selectors.EVENT_READ, slot)
        self.outstanding = 0

    def send(self, index: int, payload: bytes) -> None:
        slot = index % len(self._socks)
        self._socks[slot].sendall(payload)
        self._pending[slot].append(index)
        self.outstanding += 1

    def poll(self, timeout: float) -> List[Tuple[int, bytes]]:
        replies = []
        for key, _ in self._selector.select(timeout):
            slot = key.data
            data = self._socks[slot].recv(1 << 18)
            if not data:
                raise ConnectionError("daemon closed the connection")
            buffer = self._buffers[slot] + data
            *complete, self._buffers[slot] = buffer.split(b"\n")
            for line in complete:
                replies.append((self._pending[slot].popleft(), line))
        self.outstanding -= len(replies)
        return replies

    def close(self) -> None:
        self._selector.close()
        for sock in self._socks:
            sock.close()
