"""Fork-server process pool: long-lived workers with sticky shard affinity.

This is the runtime's one multi-process executor, for both schedules,
and the default for fleets of two or more workers.
:class:`ProcessPoolExecutor` forks a fleet of long-lived worker
processes **once per attack run** (a fork server -- children inherit the
trained model, corpus and test set by address-space copy, nothing heavy
is ever pickled), one worker per shard, and keeps a **sticky
shard-to-process affinity** (``shard i -> worker i``) so a shard's
strategy instance, RNG bookkeeping and accounting state live in exactly
one process for the whole run and never migrate.  Separate processes give GIL-bound
strategies (markov, PCFG, conditional PassFlow) real multi-core
throughput.

Every worker has its own command pipe and its own reply pipe, and each
end of them is open in exactly one process: the parent holds the
command writer and the reply reader, the worker the command reader and
the reply writer.  EOF or EPIPE on a pipe therefore always means the
peer is gone, and no lock is shared.  Two protocols run over the pipes:

* **Static** (:meth:`ProcessPoolExecutor.run`): the parent sends each
  worker its shard's :class:`~repro.runtime.planner.ShardPlan`; workers
  run :func:`~repro.runtime.executor.execute_shard` and reply with
  compact :class:`~repro.runtime.executor.ShardOutcome`\\ s -- the same
  outcomes :class:`~repro.runtime.executor.LocalExecutor` builds
  in-process, so merged reports are bit-identical.
* **Elastic** (:meth:`ProcessPoolExecutor.elastic_host`): the parent
  streams *chunk descriptors* (lists of chunk sizes) down the pipes;
  workers run the chunks through the same
  :class:`~repro.runtime.elastic._ShardRun` state machine the in-process
  host uses and stream back per-chunk deltas (packed uint64
  :class:`~repro.core.guesser.KeyedCheckpointDelta` arrays for encoded
  strategies) plus consumed counters, so the elastic driver's
  checkpoint-boundary re-planning works unchanged.  Only descriptors go
  down and deltas come up -- the guess streams themselves never cross a
  process boundary.

One reply loop (:meth:`_PoolHost._drain` over :meth:`_ForkServer.receive`)
serves both: it waits on every reply pipe and process sentinel at once,
and reports a worker's death as soon as its pipe reaches EOF after its
last whole reply -- no timeout, no grace period.

Determinism: chunk contents are fixed by named RNG streams and the
quota-only chunk policy, and shard state is process-sticky, so for a fixed
``(seed, workers, schedule)`` the merged report is bit-identical to
:class:`~repro.runtime.executor.LocalExecutor`'s.  See
``docs/parallel.md`` for the executor-selection matrix.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.runtime.elastic import ChunkAssignment, _ShardRun
from repro.runtime.executor import ShardOutcome, ShardTask, execute_shard
from repro.runtime.planner import ShardPlan, ShardProgress
from repro.utils.logging import get_logger

logger = get_logger("runtime.pool")


def picklable_exception(exc: BaseException) -> Optional[BaseException]:
    """The exception itself when it survives pickling, else ``None``.

    Worker processes ship their failures to the parent through their
    reply pipe; an exception that can cross it intact is re-raised with
    its original type (e.g. a clean ``SpecError``), anything else
    degrades to the traceback string the caller sends alongside.
    """
    try:
        import pickle

        pickle.dumps(exc)
        return exc
    except Exception:
        return None


def reap_processes(processes: Sequence) -> None:
    """Terminate and join every child, no matter how the parent is exiting.

    The teardown tail of :meth:`_ForkServer.stop`: called from a
    ``finally`` so a parent raising mid-collection (KeyboardInterrupt, a
    re-raised shard error) never leaves forked children running.  Safe on
    the clean path too -- a worker that already saw EOF on its command
    pipe is exiting anyway; ``terminate`` just hastens it.  Joins get a
    bounded timeout with a ``kill`` fallback so teardown cannot hang on
    a wedged child.
    """
    for process in processes:
        if process.is_alive():
            process.terminate()
    for process in processes:
        process.join(timeout=5.0)
        if process.is_alive():  # terminate ignored (e.g. masked SIGTERM)
            process.kill()
            process.join(timeout=5.0)


def _pool_worker(index: int, task: ShardTask, fleet: int, commands, replies, parent_ends) -> None:
    """One fork-server worker: serve shard ``index``'s commands until EOF.

    First closes ``parent_ends``, the parent's pipe ends it inherited
    through the fork, so ``commands`` (reader) and ``replies`` (writer)
    are its only ends: the parent's exit reads as EOF here and writes
    fail with EPIPE, and this worker's exit reads as EOF in the parent.
    Owns shard ``index``'s :class:`~repro.runtime.elastic._ShardRun`,
    built on its first chunk; a build failure is that shard's crash,
    shipped like a failing chunk.  Delta payloads are streamed
    incrementally -- each reply carries only the checkpoints added since
    the last one -- and the codec crosses the pipe at most once.
    """
    for end in parent_ends:
        end.close()
    run: Optional[_ShardRun] = None
    streamed = 0  # deltas already shipped
    codec_sent = False

    def fresh_deltas() -> list:
        nonlocal streamed
        if run is None or run.accounting is None:
            return []
        start, streamed = streamed, len(run.accounting.deltas)
        return run.accounting.deltas[start:]

    def codec_once():
        nonlocal codec_sent
        accounting = run.accounting if run is not None else None
        if codec_sent or accounting is None or accounting.mode != "encoded":
            return None
        codec_sent = True
        return accounting.codec

    try:
        while True:
            try:
                command = commands.recv()
            except EOFError:  # the parent closed the pipe, or is gone
                return
            kind = command[0]
            if kind == "chunks":
                reply = ("round-done",)
                for size in command[1]:
                    try:
                        if run is None:
                            run = _ShardRun(index, task, workers=fleet)
                        run.run_chunk(size)
                    except Exception as exc:  # noqa: BLE001 - shipped to parent
                        consumed = run.consumed if run is not None else 0
                        reply = (
                            "crash",
                            consumed,
                            picklable_exception(exc),
                            traceback.format_exc(),
                        )
                        break
                    replies.send(
                        ("chunk", run.consumed, run.live, fresh_deltas(), codec_once())
                    )
                replies.send(reply)
            elif kind == "close":
                if run is not None:
                    run.close_window()
                replies.send(("closed", fresh_deltas(), codec_once()))
            elif kind == "collect":
                outcome = None
                if run is not None:
                    outcome = run.outcome()
                    outcome.deltas = []  # streamed already; keep the reply compact
                replies.send(("collected", outcome))
            elif kind == "shard":
                try:
                    reply = ("outcome", execute_shard(task, command[1]))
                except BaseException as exc:  # surface failures in the parent
                    reply = ("crash", 0, picklable_exception(exc), traceback.format_exc())
                replies.send(reply)
    except (KeyboardInterrupt, BrokenPipeError):  # parent teardown in flight
        return


class _ForkServer:
    """One run's fleet of long-lived forked workers plus their pipes.

    Forked once at construction, one worker per shard (workers inherit
    ``task`` -- model, corpus, test set -- through the fork, never
    pickling); worker ``i`` serves shard ``i`` for the whole run.  Torn
    down exactly once by :meth:`stop`, which is safe to call from
    ``finally`` no matter how the run ended.
    """

    def __init__(self, context, task: ShardTask, shards: int) -> None:
        self.commands = []  # the parent's command writer, per worker
        self.replies = []  # the parent's reply reader, per worker
        self.procs = []
        for index in range(shards):
            command_reader, command_writer = context.Pipe(duplex=False)
            reply_reader, reply_writer = context.Pipe(duplex=False)
            self.commands.append(command_writer)
            self.replies.append(reply_reader)
            process = context.Process(
                target=_pool_worker,
                args=(
                    index,
                    task,
                    shards,
                    command_reader,
                    reply_writer,
                    self.commands + self.replies,
                ),
                daemon=True,
            )
            process.start()
            command_reader.close()  # the worker's ends live in the worker only
            reply_writer.close()
            self.procs.append(process)
        self.alive: Set[int] = set(range(shards))
        self._stopped = False

    def send(self, worker_id: int, message) -> None:
        """Queue one command on a live worker's pipe.

        A worker that died is reported by :meth:`receive`, once its reply
        pipe reaches EOF; a write to it fails silently here.
        """
        if worker_id not in self.alive:
            return
        try:
            self.commands[worker_id].send(message)
        except OSError:
            pass

    def receive(self) -> Tuple[int, Optional[tuple]]:
        """The next reply from any live worker, as ``(worker_id, reply)``.

        Waits, with no timeout, on every live worker's reply pipe and
        process sentinel together.  A worker is dead once its pipe
        reaches EOF after its last whole reply (a truncated final frame
        counts as EOF), or once its process has exited and its pipe holds
        nothing more; that is reported as ``(worker_id, None)``, and the
        worker leaves :attr:`alive`.
        """
        # imported here: a serial command imports this module, not the pool
        from multiprocessing.connection import wait

        ready = set(
            wait(
                [self.replies[w] for w in self.alive]
                + [self.procs[w].sentinel for w in self.alive]
            )
        )
        worker_id = min(
            w
            for w in self.alive
            if self.replies[w] in ready or self.procs[w].sentinel in ready
        )
        pipe = self.replies[worker_id]
        if pipe.poll():
            try:
                return worker_id, pipe.recv()
            except (EOFError, OSError):
                pass
        self.alive.discard(worker_id)
        return worker_id, None

    def stop(self) -> None:
        """Tear the fleet down (idempotent; callable from ``finally``).

        Closing the parent's ends is the stop signal: an idle worker
        reads EOF and returns, a replying one gets EPIPE.
        """
        if self._stopped:
            return
        self._stopped = True
        for pipe in self.commands + self.replies:
            pipe.close()
        deadline = time.monotonic() + 2.0
        for process in self.procs:
            process.join(timeout=max(0.0, deadline - time.monotonic()))
        reap_processes(self.procs)


class _PoolHost:
    """Shard state living in forked pool workers, for either schedule.

    For the elastic schedule it implements the same shard-host protocol
    as :class:`~repro.runtime.elastic._InProcessChunkHost` (``progress``
    / ``run_round`` / ``close_window`` / ``errors`` / ``outcomes`` /
    ``finish``) against a :class:`_ForkServer`: rounds go down the pipes
    as chunk descriptors, consumed counters and delta payloads stream
    back per chunk, and the parent keeps a mirror of every shard's
    progress so the driver's re-planning math never blocks on a worker.
    A worker that dies mid-run retires its shard (the unconsumed budget
    re-plans onto survivors); a strategy exception retires its shard
    exactly like the in-process host.  :meth:`run_static` runs whole
    static shards through the same reply loop.
    """

    def __init__(self, context, task: ShardTask, shards: int) -> None:
        self.shards = shards
        self.server = _ForkServer(context, task, shards)
        self.consumed = [0] * shards
        self.live = [True] * shards
        self._errors: Dict[int, Exception] = {}
        self.deltas: List[list] = [[] for _ in range(shards)]
        self.codecs: List[Any] = [None] * shards
        self.slices: List[List[Tuple[int, int]]] = [[] for _ in range(shards)]
        self._window_start = [0] * shards
        self._finals: Dict[int, Optional[ShardOutcome]] = {}

    # -- protocol ------------------------------------------------------
    def progress(self) -> List[ShardProgress]:
        """Every shard's (consumed, live) mirror, in shard order."""
        return [
            ShardProgress(index, self.consumed[index], self.live[index])
            for index in range(self.shards)
        ]

    def errors(self) -> Dict[int, Exception]:
        """Crashed shards, by index (empty for a clean fleet)."""
        return dict(self._errors)

    def run_round(self, assignments: Sequence[ChunkAssignment]) -> None:
        """Dispatch one round of chunk descriptors and drain its replies."""
        for index, sizes in assignments:
            self.server.send(index, ("chunks", list(sizes)))
        self._drain({index for index, _ in assignments} & self.server.alive, "round-done")

    def close_window(self) -> None:
        """Cut every shard's window in its worker, then record the slices."""
        self._broadcast(("close",), "closed")
        for index in range(self.shards):
            count = len(self.deltas[index])
            self.slices[index].append((self._window_start[index], count))
            self._window_start[index] = count

    def outcomes(self) -> List[ShardOutcome]:
        """Collect worker-side terminal state and assemble merged outcomes.

        A worker's final outcome supplies its samples, method and codec;
        the parent's mirror supplies the streamed deltas and window
        slices, and the whole outcome of a worker that died.
        """
        self._broadcast(("collect",), "collected")
        results = []
        for index in range(self.shards):
            outcome = self._finals.get(index) or ShardOutcome(
                index=index, total=self.consumed[index]
            )
            outcome.deltas = self.deltas[index]
            outcome.window_slices = self.slices[index]
            if outcome.codec is None:
                outcome.codec = self.codecs[index]
            if index in self._errors:
                outcome.crashed = repr(self._errors[index])
            results.append(outcome)
        return results

    def finish(self) -> None:
        """Tear the fork server down (idempotent; called from ``finally``)."""
        self.server.stop()

    def run_static(self, plans: Sequence[ShardPlan]) -> List[ShardOutcome]:
        """Run each static shard whole on its worker and collect the outcomes.

        The first failure ends the collection: a shipped exception is
        re-raised with its original type when it pickled, and a worker
        that died raises a ``RuntimeError`` naming its shard.
        """
        for plan in plans:
            self.server.send(plan.index, ("shard", plan))
        self._drain({plan.index for plan in plans}, "outcome")
        if self._errors:
            index = min(self._errors)
            if index not in self.server.alive:
                raise RuntimeError(f"shard(s) [{index}] died without reporting a result")
            raise self._errors[index]
        return [self._finals[plan.index] for plan in plans]

    # -- internals -----------------------------------------------------
    def _broadcast(self, command, done_kind: str) -> None:
        """Send ``command`` to every live worker and wait for each reply."""
        expected = set(self.server.alive)
        for index in sorted(expected):
            self.server.send(index, command)
        self._drain(expected, done_kind)

    def _retire(self, index: int, error: Exception) -> None:
        self.live[index] = False
        self._errors.setdefault(index, error)
        logger.warning("pool shard %d crashed (%r)", index, error)

    def _take(self, index: int, fresh: list, codec) -> None:
        self.deltas[index].extend(fresh)
        if codec is not None:
            self.codecs[index] = codec

    def _drain(self, pending: Set[int], done_kind: str) -> None:
        """Process replies until every pending worker has answered.

        The one reply loop of both schedules: it handles every reply
        kind whichever barrier is being waited on (``done_kind``), so it
        serves static collection, rounds, window closes and terminal
        collection.  A crash or a death answers for its worker: its shard
        is retired, shrinking the barrier instead of hanging it.  Static
        collection (``"outcome"``) stops at the first failure, which
        fails the whole run.
        """
        while pending and not (done_kind == "outcome" and self._errors):
            index, reply = self.server.receive()
            if reply is None:
                self._retire(
                    index, RuntimeError(f"pool worker {index} died without reporting")
                )
                pending.discard(index)
                continue
            kind = reply[0]
            if kind == "chunk":
                _, consumed, live, fresh, codec = reply
                self.consumed[index] = consumed
                self._take(index, fresh, codec)
                if not live:
                    self.live[index] = False  # ran dry, deterministically
            elif kind == "crash":
                _, consumed, exc, trace = reply
                self.consumed[index] = consumed
                self._retire(
                    index,
                    exc
                    if exc is not None
                    else RuntimeError(f"shard {index} failed:\n{trace}"),
                )
                pending.discard(index)
            elif kind == "closed":
                self._take(index, reply[1], reply[2])
            elif kind in ("collected", "outcome"):
                self._finals[index] = reply[1]
            if kind == done_kind:
                pending.discard(index)


class ProcessPoolExecutor:
    """A fork-server pool with sticky shard affinity, for both schedules.

    Workers are forked once per run, one per shard, and serve commands
    until the run finishes; shard ``i`` always lives on worker ``i``, so
    strategy state (fitted models, RNG generators, accounting codecs)
    never migrates between processes.  Requires the ``fork`` start
    method -- construction raises a one-line ``RuntimeError`` where it is
    missing so callers can surface an actionable message.
    """

    def __init__(self) -> None:
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError("ProcessPoolExecutor requires the fork start method")
        self._context = multiprocessing.get_context("fork")

    def run(self, task: ShardTask, plans: Sequence[ShardPlan]) -> List[ShardOutcome]:
        """Static schedule: dispatch each shard to its own worker.

        Bit-identical outcomes to
        :class:`~repro.runtime.executor.LocalExecutor` (the same
        :func:`~repro.runtime.executor.execute_shard` runs in the
        worker).  Raises the original worker exception when picklable,
        or a ``RuntimeError`` naming a shard whose worker died without
        reporting.  All children are reaped in a ``finally`` regardless
        of how collection ends.
        """
        host = _PoolHost(self._context, task, len(plans))
        try:
            return host.run_static(plans)
        finally:
            host.finish()

    def elastic_host(self, task: ShardTask, workers: int) -> _PoolHost:
        """The elastic shard host backing ``--schedule elastic`` runs."""
        return _PoolHost(self._context, task, workers)
