"""Shard execution backends: the in-process reference and a thread pool.

A shard worker needs three things: a way to build a fresh strategy (every
shard gets its own instance so feedback state like Dynamic Sampling's
matched-latent memory stays shard-local), its :class:`ShardPlan`, and the
shared attack parameters (test set, seed, sample cap).  Workers stream
their strategy through a delta-tracked
:class:`~repro.core.guesser.GuessAccounting` and return a picklable
:class:`ShardOutcome` -- per-checkpoint delta payloads plus terminal
counters -- which the
:class:`~repro.runtime.parallel.ParallelAttackEngine` merges.

:class:`LocalExecutor` runs shards sequentially in-process and is the
deterministic reference.  Multi-process execution lives in
:mod:`repro.runtime.pool`: :class:`~repro.runtime.pool.ProcessPoolExecutor`
runs the same :func:`execute_shard` in forked workers (strategies are
rebuilt there from their registry spec string via the inherited
:class:`StrategySource`; only outcomes cross the process boundary), so
both produce bit-identical outcomes for a fixed ``(seed, workers)``.

Elastic schedules use a second, chunk-level protocol: ``run_chains`` takes
one ordered *chain* of chunk thunks per shard and runs them with the
chunks of a chain strictly in order but chains free to interleave.
:class:`LocalExecutor` implements it sequentially (the deterministic
reference again); :class:`WorkStealingExecutor` runs the chains over a
persistent thread pool where any idle worker pulls the next chunk of any
chain -- work stealing at chunk granularity, so a straggling shard never
idles the rest of the fleet between checkpoints.  Chunk contents are
fixed by the elastic plan (each chunk draws from its own named RNG
stream), so stealing only reorders execution, never results.

Delta transport: shard accounting runs in interned-id key space whenever
the strategy streams (N, D) index-matrix batches (every smoother-free
PassFlow strategy does), so checkpoint deltas cross the result queue as
:class:`~repro.core.guesser.KeyedCheckpointDelta` payloads -- packed
uint64 arrays, 8 bytes per unique guess -- and 10^7+-guess sharded
attacks stay queue-cheap.  Strategies without an index-matrix stream
(the baselines, smoothing modes) fall back to string-mode
:class:`~repro.core.guesser.CheckpointDelta` payloads; the merger accepts
either, per shard.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Set, Union

from repro.core.guesser import Delta, GuessAccounting, KeyedCheckpointDelta
from repro.runtime.planner import ShardPlan
from repro.strategies.engine import AttackEngine, AttackState
from repro.strategies.registry import build
from repro.utils.progress import ProgressReporter


@dataclass
class StrategySource:
    """A recipe for building fresh strategy instances from a spec string.

    Mirrors :func:`repro.strategies.registry.build`'s signature; shard
    workers call :meth:`build` so every shard owns an isolated strategy
    (in forked workers the heavy resources -- trained model, corpus --
    arrive through process inheritance, never pickling).
    """

    spec: str
    model: Any = None
    corpus: Optional[Sequence[str]] = None
    alphabet: Any = None
    batch_size: Optional[int] = None

    def build(self):
        """Construct a fresh strategy instance from the recorded recipe."""
        return build(
            self.spec,
            model=self.model,
            corpus=self.corpus,
            alphabet=self.alphabet,
            batch_size=self.batch_size,
        )

    def pin(self, strategy) -> "StrategySource":
        """Pin a built strategy's fitted model so later builds reuse it.

        Count-based baselines fit themselves from the corpus at build
        time; pinning the parent's fitted instance before shard fan-out
        stops every forked worker refitting the same read-only model
        (fork shares it copy-on-write).  Returns ``self``.
        """
        fitted = getattr(strategy, "model", None)
        if fitted is not None:
            self.model = fitted
        return self


#: Anything a shard can build a strategy from: a spec-backed source or a
#: zero-argument factory callable.
StrategyFactory = Union[StrategySource, Callable[[], Any]]


@dataclass
class ShardTask:
    """The attack parameters shared by every shard of one run.

    ``progress`` is updated per batch inside the shard loop: in-process
    shards share the caller's reporter, forked shards update their own
    copy (each child logs its per-shard rate through the inherited sink).
    """

    source: StrategyFactory
    test_set: Set[str]
    seed: int
    sample_cap: int = 16
    label_prefix: str = ""
    progress: Optional[ProgressReporter] = None


@dataclass
class ShardOutcome:
    """A finished shard's accounting, ready to merge.

    ``deltas[k]`` holds what the shard added between its local checkpoints
    ``k-1`` and ``k`` (aligned with ``local_budgets``): a
    :class:`~repro.core.guesser.KeyedCheckpointDelta` of packed uint64
    arrays when the shard accounted in interned-id key space, a string
    :class:`~repro.core.guesser.CheckpointDelta` otherwise (an accounting
    locks its mode at the first observation, so one outcome never mixes
    the two).  ``codec`` is the shard's
    :class:`~repro.data.encoding.PasswordEncoder` when deltas are keyed
    (``None`` for string shards); the merger uses it to decode keyed
    deltas if a sibling shard fell back to strings.  ``completed`` is how
    many local checkpoints were actually reached (all of them unless the
    strategy's guess stream was finite and ran dry).  ``partial_delta``
    carries the dry tail -- guesses accounted after the last reached
    checkpoint -- so the merger's close-out row can report what was
    actually accounted; it never counts as a completed checkpoint.
    """

    index: int
    local_budgets: List[int]
    deltas: List[Delta] = field(default_factory=list)
    total: int = 0
    batches: int = 0
    matched_samples: List[str] = field(default_factory=list)
    non_matched_samples: List[str] = field(default_factory=list)
    method: Optional[str] = None  # the shard strategy's display name
    codec: Optional[Any] = None  # set when deltas are keyed
    partial_delta: Optional[Delta] = None  # dry tail past the last checkpoint

    @property
    def completed(self) -> int:
        """How many local checkpoints the shard actually reached."""
        return len(self.deltas)

    @property
    def keyed(self) -> bool:
        """Whether this shard's deltas are packed key arrays.

        Vacuously true for an empty delta list -- an empty shard merges
        cleanly into either key-space or string-space accumulation.
        """
        payloads = list(self.deltas)
        if self.partial_delta is not None:
            payloads.append(self.partial_delta)
        return all(isinstance(d, KeyedCheckpointDelta) for d in payloads)

    def reached(self, mark: int) -> bool:
        """Did the shard finish every local checkpoint up to ``mark``?"""
        needed = sum(1 for budget in self.local_budgets if budget <= mark)
        return self.completed >= needed


class _ShardProgress:
    """Per-batch updates pass through; the run-level reporter closes once
    in :meth:`~repro.runtime.parallel.ParallelAttackEngine.run`, so a
    shard finishing must not emit a misleading global 'final' line."""

    def __init__(self, inner: ProgressReporter) -> None:
        self._inner = inner

    def update(self, increment: int = 1, extra: str = "") -> None:
        self._inner.update(increment, extra=extra)

    def close(self, extra: str = "") -> None:
        pass


def build_shard_strategy(source, index: int):
    """One shard's strategy instance from whatever ``source`` shape.

    Sources exposing ``for_shard(index)`` get the shard index -- the only
    build path that stays deterministic when shards are built in
    different processes (fork-server workers each inherit the source and
    build only their own shards, so build *order* is per-worker, not
    global).  Everything else keeps the legacy contract: a
    :class:`StrategySource` spec recipe or any zero-argument factory.
    """
    for_shard = getattr(source, "for_shard", None)
    if for_shard is not None:
        return for_shard(index)
    return source.build() if isinstance(source, StrategySource) else source()


def execute_shard(task: ShardTask, plan: ShardPlan) -> ShardOutcome:
    """Run one shard to completion (in-process or in a pool worker)."""
    local_budgets = plan.local_budgets
    outcome = ShardOutcome(index=plan.index, local_budgets=local_budgets)
    if not local_budgets:
        return outcome  # more workers than guesses at every budget
    strategy = build_shard_strategy(task.source, plan.index)
    outcome.method = getattr(strategy, "name", None)
    bind_shard = getattr(strategy, "bind_shard", None)
    if bind_shard is not None:
        # position-deterministic strategies (bank replay) pick their
        # strided substream from the fleet coordinates; everyone else
        # inherits the no-op default
        bind_shard(plan.index, plan.workers)
    accounting = GuessAccounting(
        task.test_set, local_budgets, sample_cap=task.sample_cap, track_deltas=True
    )
    state = AttackState(accounting)
    engine = AttackEngine(set(), local_budgets, sample_cap=task.sample_cap)
    rng = plan.rng(task.seed, task.label_prefix)
    progress = _ShardProgress(task.progress) if task.progress is not None else None
    for _ in engine.stream(strategy, rng, state, progress=progress):
        pass
    if not accounting.done and accounting.cut_checkpoint() is not None:
        # dry tail: ships separately so it never counts as a reached
        # checkpoint (reached()/cursor bookkeeping stays mark-aligned)
        accounting.rows.pop()
        outcome.partial_delta = accounting.deltas.pop()
    outcome.deltas = accounting.deltas
    outcome.total = accounting.total
    outcome.batches = state.batches
    outcome.matched_samples = accounting.matched_samples
    outcome.non_matched_samples = accounting.non_matched_samples
    if accounting.mode == "encoded":
        outcome.codec = accounting.codec
    return outcome


#: One shard's ordered chunk work for a scheduling round: zero-argument
#: thunks that must run sequentially (they advance the shard's strategy
#: and accounting state); different chains may interleave freely.
ChunkChain = Sequence[Callable[[], None]]


class LocalExecutor:
    """Runs shards sequentially in-process: the deterministic reference."""

    def run(self, task: ShardTask, plans: Sequence[ShardPlan]) -> List[ShardOutcome]:
        """Run every shard in plan order, in this process, and collect outcomes."""
        return [execute_shard(task, plan) for plan in plans]

    def run_chains(self, chains: Sequence[ChunkChain]) -> List[Optional[Exception]]:
        """Run elastic chunk chains sequentially (chain order, chunk order).

        The reference implementation of the elastic chunk protocol: chunk
        contents don't depend on interleaving, so running chains one after
        another produces the same outcomes :class:`WorkStealingExecutor`
        reaches concurrently.  A chunk that raises retires the rest of its
        chain; the exception is returned at the chain's slot (``None`` for
        clean chains) so the elastic driver can re-queue the shard's
        budget.
        """
        errors: List[Optional[Exception]] = [None] * len(chains)
        for index, chain in enumerate(chains):
            for thunk in chain:
                try:
                    thunk()
                except Exception as exc:  # noqa: BLE001 - reported to the driver
                    errors[index] = exc
                    break
        return errors


class ProcessExecutor:
    """Old name of a static fleet on forked workers; runs on the pool.

    ``ProcessExecutor().run(task, plans)`` is
    ``ProcessPoolExecutor(processes=len(plans)).run(task, plans)``: one
    worker process per shard, the fleet ``--executor auto`` builds for
    static schedules.  There is no second process implementation behind
    this name, and it is not an ``--executor`` choice; it stays resolvable
    because ``perfbench/tracing.py`` names ``ProcessExecutor.run`` as a
    trace target.
    """

    def run(self, task: ShardTask, plans: Sequence[ShardPlan]) -> List[ShardOutcome]:
        """Run every shard on a one-process-per-shard fork-server pool."""
        from repro.runtime.pool import ProcessPoolExecutor  # pool imports this module

        return ProcessPoolExecutor(processes=len(plans)).run(task, plans)


class WorkStealingExecutor:
    """Elastic chunk chains over a persistent work-stealing thread pool.

    Workers pull the next chunk of *any* shard from a shared ready queue;
    a chain re-enters the queue only after its current chunk finishes, so
    chunks of one shard never run concurrently (shard strategy state is
    single-threaded) while chunks of different shards interleave freely.
    The pool persists across scheduling rounds -- workers pull chunks
    between checkpoints instead of being re-forked per shard -- and
    threads share the parent's address space, so strategies, models and
    test sets need no pickling at all.

    Determinism: every chunk's guesses come from its own named RNG stream
    and a shard-ordered chunk chain, so which worker runs a chunk (and
    when) cannot change any shard's guess stream; outcomes are
    bit-identical to :meth:`LocalExecutor.run_chains`.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = int(workers)
        self._pool: Optional[ThreadPoolExecutor] = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        """The worker pool, created lazily (and re-created after shutdown)."""
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-steal"
            )
        return self._pool

    def run_chains(self, chains: Sequence[ChunkChain]) -> List[Optional[Exception]]:
        """Run one round of chunk chains to completion with work stealing.

        Blocks until every chain has either drained or raised.  Returns
        per-chain exceptions (``None`` for clean chains), mirroring
        :meth:`LocalExecutor.run_chains`; a raising chunk retires the rest
        of its chain so the elastic driver can re-plan the shard's
        remaining budget.
        """
        errors: List[Optional[Exception]] = [None] * len(chains)
        ready = deque(
            (index, iter(chain)) for index, chain in enumerate(chains) if len(chain)
        )
        unfinished = len(ready)
        condition = threading.Condition()
        abort = False

        def pull() -> None:
            nonlocal unfinished, abort
            try:
                while True:
                    with condition:
                        while not ready and unfinished > 0 and not abort:
                            condition.wait()
                        if not ready or abort:
                            return
                        index, chain_iter = ready.popleft()
                        thunk = next(chain_iter, None)
                        if thunk is None:
                            unfinished -= 1
                            condition.notify_all()
                            continue
                    try:
                        thunk()
                    except Exception as exc:  # noqa: BLE001 - reported to the driver
                        with condition:
                            errors[index] = exc
                            unfinished -= 1
                            condition.notify_all()
                        continue
                    with condition:
                        ready.append((index, chain_iter))
                        condition.notify()
            except BaseException:
                # a worker-loop bug (or KeyboardInterrupt inside a chunk)
                # must wake the siblings blocked in wait(), or the round --
                # and the pool shutdown behind it -- deadlocks forever
                with condition:
                    abort = True
                    condition.notify_all()
                raise

        pool = self._ensure_pool()
        futures = [pool.submit(pull) for _ in range(min(self.workers, len(chains)))]
        try:
            for future in futures:
                future.result()  # re-raise worker-loop bugs (not chunk errors)
        except BaseException:
            with condition:
                abort = True
                condition.notify_all()
            for future in futures:
                future.cancel()
            raise
        return errors

    def shutdown(self) -> None:
        """Release the worker threads (idempotent; a later run re-creates them)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
