"""Shard execution: one shard run for both schedules, and the shard outcome.

A shard needs three things: a way to build a fresh strategy (every shard
gets its own instance so feedback state like Dynamic Sampling's
matched-latent memory stays shard-local), its guess quota (a static
:class:`ShardPlan` or a stream of elastic chunks), and the shared attack
parameters (test set, seed, RNG label prefix).  :class:`_ShardRun` holds
all of it: it builds and binds its strategy on first use, streams it
through a delta-tracked :class:`~repro.core.guesser.GuessAccounting`, and
freezes into a picklable :class:`ShardOutcome` -- checkpoint deltas
grouped by budget window, plus terminal counters -- which the
:class:`~repro.runtime.parallel.ParallelAttackEngine` merges.  The rest of
the runtime treats a shard as opaque: it never asks how it accounted.

:class:`LocalExecutor` runs shards in-process, one after another, and is
the deterministic reference for both schedules: :meth:`LocalExecutor.run`
executes static shards through :func:`execute_shard`,
:meth:`LocalExecutor.elastic_host` gives the elastic driver
(:mod:`repro.runtime.elastic`) an in-process shard host that runs one
:class:`_ShardRun` per shard, chunk by chunk.  Multi-process execution
lives in :mod:`repro.runtime.pool`:
:class:`~repro.runtime.pool.ProcessPoolExecutor` runs the same
:func:`execute_shard` and the same :class:`_ShardRun` in forked workers
(strategies are rebuilt there from their registry spec string via the
inherited :class:`StrategySource`; only outcomes and deltas cross the
process boundary), so both produce bit-identical outcomes for a fixed
``(seed, workers, schedule)``.

Delta transport: a shard accounts in interned-id key space when its
strategy streams (N, D) index-matrix batches (every ``passflow:static``
and ``passflow:dynamic`` strategy, Gaussian Smoothing included, and
bank replay do), so its checkpoint deltas cross the reply pipes as
:class:`~repro.core.guesser.KeyedCheckpointDelta` payloads -- packed
uint64 arrays, 8 bytes per unique guess -- and 10^7+-guess sharded
attacks stay pipe-cheap.  Strategies that stream strings (the
baselines, ``passflow:conditional`` and the string wrappers) ship
:class:`~repro.core.guesser.CheckpointDelta` string lists.  A strategy
yields one batch kind for its whole stream and a fleet builds every
shard from one source, so a fleet is all keys or all strings; the merge
raises on a mix.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Set, Tuple, Union

from repro.core.guesser import Delta, GuessAccounting
from repro.runtime.planner import ShardPlan
from repro.strategies.engine import AttackEngine, AttackState
from repro.strategies.registry import build
from repro.utils.progress import ProgressReporter
from repro.utils.rng import spawn_rng


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

    def build(self):
        """Construct a fresh strategy instance from the recorded recipe."""
        return build(
            self.spec, model=self.model, corpus=self.corpus, alphabet=self.alphabet
        )

    def pin(self, strategy) -> "StrategySource":
        """Pin a built strategy's fitted model so later builds reuse it.

        Count-based baselines fit themselves from the corpus at build
        time; pinning the parent's fitted instance (a wrapper's innermost
        one) stops a rebuild -- every forked shard worker's, or the
        serial attack's -- refitting the same read-only model (fork
        shares it copy-on-write).  Returns ``self``.
        """
        while getattr(strategy, "model", None) is None and hasattr(strategy, "inner"):
            strategy = strategy.inner
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
    label_prefix: str = ""
    progress: Optional[ProgressReporter] = None


@dataclass
class ShardOutcome:
    """A finished shard's accounting, ready to merge.

    ``deltas`` holds the shard's checkpoint deltas in order (packed-key
    or string deltas, one kind per shard: an accounting locks its mode at
    the first observation).  ``window_slices[j]`` is the half-open index
    range of the deltas that belong to budget window ``j`` -- the guesses
    between global budgets ``j-1`` and ``j``.  A static shard records a
    slice only for each window it reached; an elastic shard records one
    for each window the driver closed, and the driver counts how many of
    those the fleet completed.  The merger gives every completed window a
    row and folds every later delta (a static shard's dry tail, an
    elastic window the fleet fell short in) into its close-out row.
    ``crashed`` carries the repr of the exception that retired an elastic
    shard (its budget was re-planned onto live shards).
    """

    index: int
    total: int = 0
    deltas: List[Delta] = field(default_factory=list)
    window_slices: List[Tuple[int, int]] = field(default_factory=list)
    matched_samples: List[str] = field(default_factory=list)
    non_matched_samples: List[str] = field(default_factory=list)
    method: Optional[str] = None  # the shard strategy's display name
    crashed: Optional[str] = None

    def window_deltas(self, window: int) -> List[Delta]:
        """The deltas emitted inside budget window ``window`` (possibly empty)."""
        start, stop = self.window_slices[window]
        return self.deltas[start:stop]


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


#: stream() reads only the state it is given; this engine just carries the
#: loop for every shard (its test set and budgets are placeholders)
_ENGINE = AttackEngine(set(), [1])


class _ShardRun:
    """One shard's strategy and delta-tracked accounting, for either schedule.

    The strategy is built and bound to the shard's fleet coordinates on
    first use, so a strategy that fails to build fails its shard's first
    chunk (or its static run), where a crash is handled, never the host's
    construction.  Feedback state survives chunk boundaries exactly as it
    survives batch boundaries.  :meth:`run_plan` runs a static shard
    whole; :meth:`run_chunk` is the unit the elastic hosts run, one chunk
    at a time and in order, in whichever process owns the shard; either
    freezes into a :class:`ShardOutcome` through :meth:`outcome`.
    """

    def __init__(self, index: int, task: ShardTask, workers: int = 1) -> None:
        self.index = index
        self.task = task
        self.workers = workers
        self.strategy = None
        self.state: Optional[AttackState] = None
        self.live = True
        self.error: Optional[Exception] = None
        self.chunk_counter = 0
        self.window_slices: List[Tuple[int, int]] = []
        self._window_start = 0

    @property
    def consumed(self) -> int:
        """Guesses the shard has accounted so far (crash-safe: reads accounting)."""
        return self.state.total_guesses if self.state is not None else 0

    @property
    def deltas(self) -> List[Delta]:
        """Every checkpoint delta the shard emitted so far, in order."""
        return self.state.accounting.deltas if self.state is not None else []

    def _stream(self, budgets: List[int], rng) -> None:
        """Stream the strategy from ``rng`` until the accounting reaches
        ``budgets``, appended to the shard's checkpoint schedule (or the
        strategy runs dry)."""
        if self.strategy is None:
            self.strategy = build_shard_strategy(self.task.source, self.index)
            bind_shard = getattr(self.strategy, "bind_shard", None)
            if bind_shard is not None:
                # position-deterministic strategies (bank replay) pick their
                # strided substream from the fleet coordinates; everyone
                # else inherits the no-op default
                bind_shard(self.index, self.workers)
        if self.state is None:
            self.state = AttackState(
                GuessAccounting(self.task.test_set, budgets, track_deltas=True)
            )
        else:
            # only live shards get chunks, so targets stay strictly ascending
            self.state.accounting.budgets.extend(budgets)
        progress = (
            _ShardProgress(self.task.progress) if self.task.progress is not None else None
        )
        for _ in _ENGINE.stream(self.strategy, rng, self.state, progress=progress):
            pass

    def run_plan(self, plan: ShardPlan) -> None:
        """Run a static shard to completion over its plan's local budgets.

        The shard accounts one delta per checkpoint.  Window ``j`` covers
        the checkpoint whose mark lies in ``(marks[j-1], marks[j]]`` (none
        when the two marks are equal) and is sliced only once the shard
        reached it.  A finite strategy that runs dry ships its tail past
        the last reached checkpoint as one more delta, after every window
        slice.
        """
        local_budgets = plan.local_budgets
        if not local_budgets:  # more workers than guesses at every budget
            self.window_slices = [(0, 0)] * len(plan.marks)
            return
        self._stream(local_budgets, plan.rng(self.task.seed, self.task.label_prefix))
        reached = len(self.deltas)
        self.state.accounting.cut_checkpoint()  # the dry tail (no-op when done)
        start = 0
        for mark in plan.marks:
            stop = bisect_right(local_budgets, mark)
            if stop > reached:
                break
            self.window_slices.append((start, stop))
            start = stop

    def run_chunk(self, quota: int) -> None:
        """Stream exactly ``quota`` more guesses (or run dry trying).

        The chunk's guesses come from ``spawn_rng(seed,
        "shard-i-chunk-k")`` through a fresh generator; the accounting
        gains one checkpoint at the chunk target, so every chunk's
        contribution lands in its own delta.  Producing fewer than
        ``quota`` guesses marks the shard dry, releasing its remaining
        budget to the next re-plan.
        """
        target = self.consumed + quota
        rng = spawn_rng(
            self.task.seed,
            f"{self.task.label_prefix}shard-{self.index}-chunk-{self.chunk_counter}",
        )
        self.chunk_counter += 1
        self._stream([target], rng)
        if self.consumed < target:
            self.live = False

    def close_window(self) -> None:
        """Seal the current elastic budget window: flush the dry tail,
        record the slice."""
        if self.state is not None:
            self.state.accounting.cut_checkpoint()  # no-op when chunk-aligned
        count = len(self.deltas)
        self.window_slices.append((self._window_start, count))
        self._window_start = count

    def outcome(self) -> ShardOutcome:
        """Freeze the run into a mergeable :class:`ShardOutcome`."""
        outcome = ShardOutcome(
            index=self.index,
            total=self.consumed,
            deltas=self.deltas,
            window_slices=list(self.window_slices),
            method=getattr(self.strategy, "name", None),
            crashed=repr(self.error) if self.error is not None else None,
        )
        if self.state is not None:
            outcome.matched_samples = self.state.accounting.matched_samples
            outcome.non_matched_samples = self.state.accounting.non_matched_samples
        return outcome


def execute_shard(task: ShardTask, plan: ShardPlan) -> ShardOutcome:
    """Run one static shard to completion (in-process or in a pool worker).

    One :class:`_ShardRun` over ``plan`` (:meth:`_ShardRun.run_plan`),
    frozen into its outcome.
    """
    run = _ShardRun(plan.index, task, workers=plan.workers)
    run.run_plan(plan)
    return run.outcome()


class LocalExecutor:
    """Runs shards in-process, one after another: the deterministic reference."""

    def run(self, task: ShardTask, plans: Sequence[ShardPlan]) -> List[ShardOutcome]:
        """Run every shard in plan order, in this process, and collect outcomes."""
        return [execute_shard(task, plan) for plan in plans]

    def elastic_host(self, task: ShardTask, workers: int):
        """The in-process elastic shard host: each round runs in shard order."""
        from repro.runtime.elastic import _InProcessChunkHost  # elastic imports this module

        return _InProcessChunkHost(task, workers)


class ProcessExecutor:
    """Old name of a static fleet on forked workers; runs on the pool.

    ``ProcessExecutor().run(task, plans)`` is
    ``ProcessPoolExecutor().run(task, plans)``: one worker process per
    shard, the fleet ``--executor auto`` builds for two or more workers.
    There is no second process implementation behind this name, and it
    is not an ``--executor`` choice; it stays resolvable because
    ``perfbench/tracing.py`` names ``ProcessExecutor.run`` as a trace
    target.
    """

    def run(self, task: ShardTask, plans: Sequence[ShardPlan]) -> List[ShardOutcome]:
        """Run every shard on a one-process-per-shard fork-server pool."""
        from repro.runtime.pool import ProcessPoolExecutor  # pool imports this module

        return ProcessPoolExecutor().run(task, plans)
