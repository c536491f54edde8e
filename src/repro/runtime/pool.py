"""Fork-server process pool: long-lived workers with sticky shard affinity.

This is the runtime's one multi-process executor, for both schedules,
and the default for fleets of two or more workers.
:class:`ProcessPoolExecutor` forks a fleet of long-lived worker
processes **once per attack run** (a fork server -- children inherit the
trained model, corpus and test set by address-space copy, nothing heavy
is ever pickled) and keeps a **sticky shard-to-process affinity**
(``shard i -> worker i % P``) so a shard's strategy instance, RNG
bookkeeping and accounting state live in exactly one process for the
whole run and never migrate.  Separate processes give GIL-bound
strategies (markov, PCFG, conditional PassFlow) real multi-core
throughput.

Two protocols run over the same pair of OS channels (one command pipe
per worker, one shared result pipe):

* **Static** (:meth:`ProcessPoolExecutor.run`): the parent sends each
  worker its shards' :class:`~repro.runtime.planner.ShardPlan`\\ s; workers
  run :func:`~repro.runtime.executor.execute_shard` and stream back
  compact :class:`~repro.runtime.executor.ShardOutcome`\\ s -- the same
  outcomes :class:`~repro.runtime.executor.LocalExecutor` builds
  in-process, so merged reports are bit-identical.
* **Elastic** (:meth:`ProcessPoolExecutor.elastic_host`): the parent
  streams *chunk descriptors* (``(shard, [chunk sizes])``) down the
  pipes; workers run the chunks through the same
  :class:`~repro.runtime.elastic._ShardRun` state machine the in-process
  host uses and stream back per-chunk deltas (packed uint64
  :class:`~repro.core.guesser.KeyedCheckpointDelta` arrays for encoded
  strategies) plus consumed counters, so the elastic driver's
  checkpoint-boundary re-planning works unchanged.  Only descriptors go
  down and deltas come up -- the guess streams themselves never cross a
  process boundary.

Determinism: chunk contents are fixed by named RNG streams and the
chunk policy, and shard state is process-sticky, so for a fixed
``(seed, workers, schedule)`` the merged report is bit-identical to
:class:`~repro.runtime.executor.LocalExecutor`'s.  See
``docs/parallel.md`` for the executor-selection matrix.

Process lifecycle lives here too: :func:`picklable_exception` ships
worker failures, :class:`CorpseWatch` spots workers that died without
reporting, and :func:`reap_processes` tears a fleet down from any exit
path.
"""

from __future__ import annotations

import multiprocessing
import traceback
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.runtime.elastic import ChunkAssignment, _ShardRun
from repro.runtime.executor import ShardOutcome, ShardTask, execute_shard
from repro.runtime.planner import ShardPlan, ShardProgress
from repro.utils.logging import get_logger

logger = get_logger("runtime.pool")


def picklable_exception(exc: BaseException) -> Optional[BaseException]:
    """The exception itself when it survives pickling, else ``None``.

    Worker processes ship their failures to the parent through the result
    pipe; an exception that can cross it intact is re-raised with its
    original type (e.g. a clean ``SpecError``), anything else degrades to
    the traceback string the caller sends alongside.
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
    the clean path too -- a worker that already reported its result is
    either exiting or blocked writing a reply nobody reads any more;
    ``terminate`` just hastens it.  Joins get a bounded timeout with a
    ``kill`` fallback so teardown cannot hang on a wedged child.
    """
    for process in processes:
        if process.is_alive():
            process.terminate()
    for process in processes:
        process.join(timeout=5.0)
        if process.is_alive():  # terminate ignored (e.g. masked SIGTERM)
            process.kill()
            process.join(timeout=5.0)


class CorpseWatch:
    """Detects workers that died without reporting a result.

    Both pool protocols drain the result pipe with a timeout; on every
    timeout they feed this watch the indices of workers that are no
    longer alive but still owe results.  A worker that just exited may
    have its final messages still unread in the pipe, so the watch only
    gives up after ``grace`` consecutive idle rounds with corpses
    present; any successful receive resets it.
    """

    def __init__(self, grace: int = 3) -> None:
        self.grace = grace
        self._idle_rounds = 0

    def note_receive(self) -> None:
        """A message arrived; the channel is live again."""
        self._idle_rounds = 0

    def note_timeout(self, dead: Sequence[int]) -> Optional[List[int]]:
        """An idle round elapsed; returns the corpse list once out of grace."""
        self._idle_rounds = self._idle_rounds + 1 if dead else 0
        if self._idle_rounds >= self.grace:
            return list(dead)
        return None


class _ResultChannel:
    """The workers' shared reply pipe, guarded by one write lock.

    :meth:`put` writes the whole message in the calling thread before it
    returns, so a worker's own code only runs between whole writes: a
    strategy that ends its process (``os._exit``) cannot leave the lock
    held.  A ``multiprocessing.Queue`` writes from a feeder thread
    instead, and a worker exiting while that thread held the lock would
    wedge every survivor's replies behind it.
    """

    def __init__(self, context) -> None:
        self._reader, self._writer = context.Pipe(duplex=False)
        self._lock = context.Lock()

    def put(self, message) -> None:
        with self._lock:
            self._writer.send(message)

    def get(self, timeout: float):
        """The next message, or ``None`` when none arrives in ``timeout`` s."""
        if not self._reader.poll(timeout):
            return None
        return self._reader.recv()

    def close(self) -> None:
        self._reader.close()
        self._writer.close()


def _pool_worker(worker_id: int, task: ShardTask, fleet: int, commands, results) -> None:
    """One fork-server worker: serve shard/chunk commands until told to stop.

    Owns the :class:`~repro.runtime.elastic._ShardRun` state of every
    shard with affinity to this worker (built lazily on the shard's
    first chunk).  Commands arrive strictly in order on this worker's
    pipe, so chunks of one shard always run in sequence; replies go to
    the shared result pipe.  Delta payloads are streamed incrementally
    -- each reply carries only the checkpoints added since the last one
    -- and each shard's codec crosses the pipe at most once.
    """
    runs: Dict[int, _ShardRun] = {}
    streamed: Dict[int, int] = {}  # deltas already shipped, per shard
    codec_sent: Set[int] = set()

    def fresh_deltas(run: _ShardRun) -> list:
        if run.accounting is None:
            return []
        start = streamed.get(run.index, 0)
        streamed[run.index] = len(run.accounting.deltas)
        return run.accounting.deltas[start:]

    def codec_once(run: _ShardRun):
        accounting = run.accounting
        if (
            run.index in codec_sent
            or accounting is None
            or accounting.mode != "encoded"
        ):
            return None
        codec_sent.add(run.index)
        return accounting.codec

    try:
        while True:
            try:
                command = commands.recv()
            except EOFError:  # parent is gone; nothing left to report to
                return
            kind = command[0]
            if kind == "chunks":
                _, index, sizes = command
                run = runs.get(index)
                if run is None:
                    run = runs[index] = _ShardRun(index, task, workers=fleet)
                crashed = False
                for size in sizes:
                    try:
                        run.run_chunk(size)
                    except Exception as exc:  # noqa: BLE001 - shipped to parent
                        run.live = False
                        run.error = exc
                        results.put(
                            (
                                "crash",
                                worker_id,
                                index,
                                run.consumed,
                                picklable_exception(exc),
                                traceback.format_exc(),
                            )
                        )
                        crashed = True
                        break
                    results.put(
                        (
                            "chunk",
                            worker_id,
                            index,
                            run.consumed,
                            run.live,
                            fresh_deltas(run),
                            codec_once(run),
                        )
                    )
                if not crashed:
                    results.put(("round-done", worker_id, index))
            elif kind == "close":
                for index, run in sorted(runs.items()):
                    run.close_window()
                    results.put(
                        ("window", worker_id, index, fresh_deltas(run), codec_once(run))
                    )
                results.put(("closed", worker_id))
            elif kind == "collect":
                for index, run in sorted(runs.items()):
                    outcome = run.outcome()
                    outcome.deltas = []  # streamed already; keep the reply compact
                    results.put(("final", worker_id, index, outcome))
                results.put(("collected", worker_id))
            elif kind == "shard":
                _, plan = command
                try:
                    outcome = execute_shard(task, plan)
                except BaseException as exc:  # surface failures in the parent
                    results.put(
                        (
                            "error",
                            worker_id,
                            plan.index,
                            picklable_exception(exc),
                            traceback.format_exc(),
                        )
                    )
                else:
                    results.put(("outcome", worker_id, plan.index, outcome))
            elif kind == "stop":
                return
    except (KeyboardInterrupt, BrokenPipeError):  # parent teardown in flight
        return


class _ForkServer:
    """One run's fleet of long-lived forked workers plus its channels.

    Forked once at construction (workers inherit ``task`` -- model,
    corpus, test set -- through the fork, never pickling), torn down
    exactly once by :meth:`stop`, which is safe to call from ``finally``
    no matter how the run ended.
    """

    def __init__(self, context, task: ShardTask, shards: int, size: int) -> None:
        self.size = max(1, min(size, shards))
        self.results = _ResultChannel(context)
        self.pipes = []
        self.procs = []
        for worker_id in range(self.size):
            receiver, sender = context.Pipe(duplex=False)
            process = context.Process(
                target=_pool_worker,
                args=(worker_id, task, shards, receiver, self.results),
                daemon=True,
            )
            process.start()
            receiver.close()  # the parent keeps only the sending end
            self.pipes.append(sender)
            self.procs.append(process)
        self.alive: Set[int] = set(range(self.size))
        self._stopped = False

    def owner(self, shard: int) -> int:
        """The worker a shard is sticky to (never changes mid-run)."""
        return shard % self.size

    def send(self, worker_id: int, message) -> None:
        """Queue one command on a worker's pipe (drops writes to corpses)."""
        if worker_id not in self.alive:
            return
        try:
            self.pipes[worker_id].send(message)
        except (BrokenPipeError, OSError):
            self.alive.discard(worker_id)

    def receive(self, timeout: float = 1.0):
        """One result-pipe read; ``None`` after an idle timeout."""
        return self.results.get(timeout)

    def dead_workers(self, worker_ids) -> List[int]:
        """The subset of ``worker_ids`` whose processes are gone."""
        return [wid for wid in worker_ids if not self.procs[wid].is_alive()]

    def stop(self) -> None:
        """Tear the fleet down (idempotent; callable from ``finally``)."""
        if self._stopped:
            return
        self._stopped = True
        for worker_id in sorted(self.alive):
            self.send(worker_id, ("stop",))
        for process in self.procs:
            process.join(timeout=2.0)
        reap_processes(self.procs)
        for pipe in self.pipes:
            try:
                pipe.close()
            except OSError:
                pass
        self.results.close()


class _PoolElasticHost:
    """Elastic shard host whose shard state lives in forked pool workers.

    Implements the same protocol as
    :class:`~repro.runtime.elastic._InProcessChunkHost` (``progress`` /
    ``run_round`` / ``close_window`` / ``errors`` / ``outcomes`` /
    ``finish``) against a :class:`_ForkServer`: rounds go down the pipes
    as chunk descriptors, consumed counters and delta payloads stream
    back per chunk, and the parent keeps a mirror of every shard's
    progress so the driver's re-planning math never blocks on a worker.
    A worker that dies mid-run retires all its shards (their unconsumed
    budget re-plans onto survivors); a strategy exception retires only
    its shard, exactly like the in-process host.
    """

    def __init__(self, context, task: ShardTask, shards: int, size: int) -> None:
        self.shards = shards
        self.server = _ForkServer(context, task, shards, size)
        self.consumed = [0] * shards
        self.live = [True] * shards
        self._errors: Dict[int, Exception] = {}
        self.deltas: List[list] = [[] for _ in range(shards)]
        self.codecs: List[Any] = [None] * shards
        self.slices: List[List[Tuple[int, int]]] = [[] for _ in range(shards)]
        self._window_start = [0] * shards
        self._finals: Dict[int, ShardOutcome] = {}

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
        pending: Set[int] = set()
        for index, sizes in assignments:
            worker_id = self.server.owner(index)
            if worker_id not in self.server.alive:
                continue  # shard already retired with its dead worker
            self.server.send(worker_id, ("chunks", index, list(sizes)))
            pending.add(index)
        self._drain(pending_shards=pending)

    def close_window(self) -> None:
        """Cut every shard's window in its worker, then record the slices."""
        expected = set(self.server.alive)
        for worker_id in sorted(expected):
            self.server.send(worker_id, ("close",))
        self._drain(pending_workers=expected, done_kind="closed")
        for index in range(self.shards):
            count = len(self.deltas[index])
            self.slices[index].append((self._window_start[index], count))
            self._window_start[index] = count

    def outcomes(self) -> List[ShardOutcome]:
        """Collect worker-side terminal state and assemble merged outcomes."""
        expected = set(self.server.alive)
        for worker_id in sorted(expected):
            self.server.send(worker_id, ("collect",))
        self._drain(pending_workers=expected, done_kind="collected")
        results = []
        for index in range(self.shards):
            final = self._finals.get(index)
            results.append(
                ShardOutcome(
                    index=index,
                    total=final.total if final is not None else self.consumed[index],
                    batches=final.batches if final is not None else 0,
                    deltas=self.deltas[index],
                    window_slices=self.slices[index],
                    matched_samples=(
                        final.matched_samples if final is not None else []
                    ),
                    non_matched_samples=(
                        final.non_matched_samples if final is not None else []
                    ),
                    method=final.method if final is not None else None,
                    codec=(
                        final.codec
                        if final is not None and final.codec is not None
                        else self.codecs[index]
                    ),
                    crashed=(
                        repr(self._errors[index]) if index in self._errors else None
                    ),
                )
            )
        return results

    def finish(self) -> None:
        """Tear the fork server down (idempotent; called from ``finally``)."""
        self.server.stop()

    # -- internals -----------------------------------------------------
    def _retire(self, index: int, error: Exception) -> None:
        if index in self._errors:
            return
        self.live[index] = False
        self._errors[index] = error
        logger.warning(
            "elastic shard %d crashed (%r); re-queueing its remaining budget",
            index,
            error,
        )

    def _mark_worker_dead(self, worker_id: int) -> None:
        """A corpse: retire every live shard sticky to it."""
        self.server.alive.discard(worker_id)
        for index in range(self.shards):
            if self.server.owner(index) == worker_id and self.live[index]:
                self._retire(
                    index,
                    RuntimeError(
                        f"pool worker {worker_id} died without reporting "
                        f"(shard {index})"
                    ),
                )

    def _drain(
        self,
        pending_shards: Optional[Set[int]] = None,
        pending_workers: Optional[Set[int]] = None,
        done_kind: str = "",
    ) -> None:
        """Process replies until every pending shard/worker has answered.

        Handles the streamed message kinds (``chunk``, ``crash``,
        ``window``, ``final``) regardless of which barrier is being
        waited on, so the one loop serves rounds, window closes and
        terminal collection.  Dead workers are detected by the corpse
        watch and their shards retired, shrinking the barrier instead of
        hanging it.
        """
        shards = pending_shards if pending_shards is not None else set()
        workers = pending_workers if pending_workers is not None else set()
        watch = CorpseWatch()
        while shards or workers:
            message = self.server.receive()
            if message is None:
                waiting = workers | {self.server.owner(index) for index in shards}
                corpses = watch.note_timeout(self.server.dead_workers(waiting))
                if corpses is not None:
                    for worker_id in corpses:
                        self._mark_worker_dead(worker_id)
                        shards -= {
                            index
                            for index in shards
                            if self.server.owner(index) == worker_id
                        }
                        workers.discard(worker_id)
                continue
            watch.note_receive()
            kind = message[0]
            if kind == "chunk":
                _, _, index, consumed, live, fresh, codec = message
                self.consumed[index] = consumed
                self.deltas[index].extend(fresh)
                if codec is not None:
                    self.codecs[index] = codec
                if not live:
                    self.live[index] = False  # ran dry, deterministically
            elif kind == "crash":
                _, _, index, consumed, exc, trace = message
                self.consumed[index] = consumed
                self._retire(
                    index,
                    exc
                    if exc is not None
                    else RuntimeError(f"shard {index} failed:\n{trace}"),
                )
                shards.discard(index)
            elif kind == "round-done":
                shards.discard(message[2])
            elif kind == "window":
                _, _, index, fresh, codec = message
                self.deltas[index].extend(fresh)
                if codec is not None:
                    self.codecs[index] = codec
            elif kind == "final":
                self._finals[message[2]] = message[3]
            elif kind == done_kind:
                workers.discard(message[1])


class ProcessPoolExecutor:
    """A fork-server pool with sticky shard affinity, for both schedules.

    ``processes`` caps the pool size (default: one worker per shard).
    Workers are forked once per run and serve commands until the run
    finishes; shard ``i`` always lives on worker ``i % P``, so strategy
    state (fitted models, RNG generators, accounting codecs) never
    migrates between processes.  Requires the ``fork`` start method --
    construction raises a one-line ``RuntimeError`` where it is missing
    so callers can surface an actionable message.
    """

    def __init__(self, processes: Optional[int] = None) -> None:
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError("ProcessPoolExecutor requires the fork start method")
        if processes is not None and processes < 1:
            raise ValueError("processes must be >= 1")
        self.processes = processes
        self._context = multiprocessing.get_context("fork")

    def run(self, task: ShardTask, plans: Sequence[ShardPlan]) -> List[ShardOutcome]:
        """Static schedule: dispatch whole shards to their sticky workers.

        Bit-identical outcomes to
        :class:`~repro.runtime.executor.LocalExecutor` (the same
        :func:`~repro.runtime.executor.execute_shard` runs in the
        worker).  Raises the original worker exception when picklable,
        or a ``RuntimeError`` naming shards whose worker died without
        reporting.  All children are reaped in a ``finally`` regardless
        of how collection ends.
        """
        server = _ForkServer(
            self._context, task, len(plans), self.processes or len(plans)
        )
        outcomes: List[Optional[ShardOutcome]] = [None] * len(plans)
        failure: Optional[str] = None
        shard_exception: Optional[BaseException] = None
        try:
            for plan in plans:
                server.send(server.owner(plan.index), ("shard", plan))
            collected = 0
            watch = CorpseWatch()
            while collected < len(plans) and failure is None:
                message = server.receive()
                if message is None:
                    corpses = watch.note_timeout(
                        [
                            plan.index
                            for plan in plans
                            if outcomes[plan.index] is None
                            and not server.procs[server.owner(plan.index)].is_alive()
                        ]
                    )
                    if corpses is not None:
                        failure = (
                            f"shard(s) {corpses} died without reporting a result"
                        )
                    continue
                watch.note_receive()
                kind = message[0]
                if kind == "outcome":
                    _, _, index, outcome = message
                    outcomes[index] = outcome
                    collected += 1
                elif kind == "error":
                    _, _, index, exc, trace = message
                    shard_exception = exc
                    failure = f"shard {index} failed:\n{trace}"
        finally:
            server.stop()
        if failure is not None:
            if shard_exception is not None:
                # re-raise with the original type so callers can handle it
                logger.warning("%s", failure)
                raise shard_exception
            raise RuntimeError(failure)
        return [outcome for outcome in outcomes if outcome is not None]

    def elastic_host(self, task: ShardTask, workers: int) -> _PoolElasticHost:
        """The elastic shard host backing ``--schedule elastic`` runs."""
        return _PoolElasticHost(
            self._context, task, workers, self.processes or workers
        )
