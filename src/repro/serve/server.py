"""The daemon's transport: NDJSON over a local stream socket.

:class:`ScoringServer` listens on a Unix-domain socket (or a localhost
TCP port where ``AF_UNIX`` is unavailable) and runs two threads per
connection:

* a **reader** that parses request lines and hands them to the
  :class:`~repro.serve.service.ServeApp` -- scoring requests return a
  batcher ticket immediately, so a pipelining client's requests from one
  connection micro-batch with everyone else's;
* a **writer** that emits responses strictly in request order as their
  tickets resolve, preserving the protocol's one-line-in/one-line-out
  contract under pipelining.

Graceful shutdown (a ``shutdown`` request, :meth:`ScoringServer.stop`,
or SIGTERM via the CLI): the listener closes, open connections get their
read sides shut so readers see EOF, writers finish draining every
accepted response, and the batchers flush what is queued -- no accepted
request is dropped.

``run_once`` is the socket-free twin: it drives the same ``ServeApp``
line loop over file objects (stdin/stdout in ``serve --once``), so every
protocol/batcher/service code path is testable without a real socket.
"""

from __future__ import annotations

import errno
import queue
import socket
import stat
import threading
from pathlib import Path
from typing import Any, List, Optional, TextIO

from repro.serve import protocol
from repro.serve.service import ServeApp
from repro.utils.logging import get_logger

logger = get_logger("serve.server")

#: Sentinel the reader enqueues so the writer drains and exits.
_WRITER_DONE = object()


class ScoringServer:
    """Serve a :class:`ServeApp` over a local stream socket."""

    def __init__(
        self,
        app: ServeApp,
        socket_path: Optional[str] = None,
        port: Optional[int] = None,
        host: str = "127.0.0.1",
    ) -> None:
        if (socket_path is None) == (port is None):
            raise ValueError("pass exactly one of socket_path or port")
        self.app = app
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._connections: List[socket.socket] = []
        self._conn_threads: List[threading.Thread] = []
        self._lock = threading.Lock()
        self._stopping = threading.Event()

    # ------------------------------------------------------------------
    def start(self) -> "ScoringServer":
        """Bind, listen, and start accepting (returns immediately).

        An existing ``socket_path`` is replaced only when it is a socket
        that refuses connections, as a killed daemon's does.  A path that
        is not a socket, a socket a live daemon answers on, and any bind
        error raise ``OSError`` with nothing bound or removed.
        """
        if self.socket_path is not None:
            _remove_stale_socket(Path(self.socket_path))
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            address = str(self.socket_path)
        else:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            address = (self.host, self.port)
        try:
            listener.bind(address)
            listener.listen(64)
        except OSError:
            listener.close()
            raise
        if self.port is not None:
            self.port = listener.getsockname()[1]  # resolve port 0
        self._listener = listener
        self.app.start()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-serve-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    @property
    def address(self) -> str:
        """Human-readable bound address (for the startup banner)."""
        if self.socket_path is not None:
            return str(self.socket_path)
        return f"{self.host}:{self.port}"

    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                connection, _ = self._listener.accept()
            except OSError:
                break  # listener closed by stop()
            with self._lock:
                if self._stopping.is_set():
                    connection.close()
                    break
                self._connections.append(connection)
                thread = threading.Thread(
                    target=self._serve_connection,
                    args=(connection,),
                    name="repro-serve-conn",
                    daemon=True,
                )
                self._conn_threads.append(thread)
            thread.start()

    def _serve_connection(self, connection: socket.socket) -> None:
        """Reader side of one connection; spawns its in-order writer."""
        responses: "queue.Queue[Any]" = queue.Queue()
        writer = threading.Thread(
            target=self._write_loop,
            args=(connection, responses),
            name="repro-serve-writer",
            daemon=True,
        )
        writer.start()
        try:
            reader = connection.makefile("r", encoding="utf-8", errors="replace")
            for line in reader:
                responses.put(self._dispatch(line))
                if self.app.shutdown_requested:
                    break
        except (OSError, ValueError):
            pass  # connection reset; writer still drains what was accepted
        finally:
            responses.put(_WRITER_DONE)
            writer.join()
            connection.close()
            with self._lock:
                if connection in self._connections:
                    self._connections.remove(connection)
        if self.app.shutdown_requested:
            self.stop()

    def _dispatch(self, line: str):
        """Parse/serve one line; returns what the writer should emit.

        Scoring requests come back as ``(request, ticket)`` so the reader
        can keep reading (that is what lets one connection's pipelined
        requests batch together); everything else is an immediate
        response string.
        """
        result = self.app.submit_line(line)
        if isinstance(result, tuple):
            return PendingResponse(self.app, *result)
        return result

    def _write_loop(self, connection: socket.socket, responses: "queue.Queue[Any]") -> None:
        while True:
            item = responses.get()
            if item is _WRITER_DONE:
                return
            line = item.resolve() if isinstance(item, PendingResponse) else item
            try:
                connection.sendall((line + "\n").encode("utf-8"))
            except OSError:
                # client went away: keep consuming so the reader never
                # blocks on a full queue, but stop writing
                pass

    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Graceful shutdown: drain in-flight work, close every socket."""
        if self._stopping.is_set():
            return
        self._stopping.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RD)  # readers see EOF
            except OSError:
                pass
        with self._lock:
            threads = list(self._conn_threads)
        for thread in threads:
            if thread is not threading.current_thread():
                thread.join(timeout=10.0)
        self.app.close(drain=True)
        if self.socket_path is not None:
            try:
                Path(self.socket_path).unlink()
            except OSError:
                pass

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until a shutdown request stops the server."""
        stopped = self.app.wait_for_shutdown(timeout)
        if stopped:
            self.stop()
        return stopped


def _remove_stale_socket(path: Path) -> None:
    """Unlink a dead daemon's socket at ``path``; refuse anything else."""
    try:
        mode = path.lstat().st_mode
    except FileNotFoundError:
        return
    # errno-style, so the caller's line names the path once
    if not stat.S_ISSOCK(mode):
        raise OSError(errno.EEXIST, "the path exists and is not a socket")
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    probe.settimeout(1.0)
    try:
        probe.connect(str(path))
    except ConnectionRefusedError:
        path.unlink()  # nothing listens: a killed daemon's socket
        return
    finally:
        probe.close()
    raise OSError(errno.EADDRINUSE, "a daemon is already serving on it")


class PendingResponse:
    """A scoring response whose ticket is still in the micro-batcher."""

    __slots__ = ("request", "ticket", "app")

    def __init__(self, app: ServeApp, request, ticket) -> None:
        self.app = app
        self.request = request
        self.ticket = ticket

    def resolve(self) -> str:
        try:
            return protocol.encode_response(
                self.app.finish_scoring(self.request, self.ticket)
            )
        except Exception as exc:  # pragma: no cover - defensive
            return protocol.encode_response(
                protocol.error_response(f"internal error: {exc}", self.request.id)
            )


def run_once(app: ServeApp, lines, out: TextIO) -> int:
    """The ``serve --once`` loop: NDJSON in, NDJSON out, no socket.

    Starts ``app`` and serves each line through the same app/batcher
    path as the daemon (each scoring request is flushed by the batcher
    thread and answered before the next line is read), writes one
    response line per request, and returns 0 -- the in-process smoke
    mode that keeps every serving code path drivable from a pipe or a
    test.
    """
    app.start()
    for line in lines:
        if not line.strip():
            continue
        out.write(app.handle_line(line) + "\n")
        out.flush()
        if app.shutdown_requested:
            break
    app.close(drain=True)
    return 0
