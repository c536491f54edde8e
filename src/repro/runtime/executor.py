"""Shard execution: the in-process reference executor and the shard outcome.

A shard worker needs three things: a way to build a fresh strategy (every
shard gets its own instance so feedback state like Dynamic Sampling's
matched-latent memory stays shard-local), its :class:`ShardPlan`, and the
shared attack parameters (test set, seed, sample cap).  Workers stream
their strategy through a delta-tracked
:class:`~repro.core.guesser.GuessAccounting` and return a picklable
:class:`ShardOutcome` -- checkpoint delta payloads grouped by budget
window, plus terminal counters -- which the
:class:`~repro.runtime.parallel.ParallelAttackEngine` merges.

:class:`LocalExecutor` runs shards in-process, one after another, and is
the deterministic reference for both schedules: :meth:`LocalExecutor.run`
executes static shards, :meth:`LocalExecutor.elastic_host` gives the
elastic driver (:mod:`repro.runtime.elastic`) an in-process shard host.
Multi-process execution lives in :mod:`repro.runtime.pool`:
:class:`~repro.runtime.pool.ProcessPoolExecutor` runs the same
:func:`execute_shard` and the same elastic shard state in forked workers
(strategies are rebuilt there from their registry spec string via the
inherited :class:`StrategySource`; only outcomes and deltas cross the
process boundary), so both produce bit-identical outcomes for a fixed
``(seed, workers, schedule)``.

Delta transport: shard accounting runs in interned-id key space whenever
the strategy streams (N, D) index-matrix batches (every smoother-free
PassFlow strategy does), so checkpoint deltas cross the result pipe as
:class:`~repro.core.guesser.KeyedCheckpointDelta` payloads -- packed
uint64 arrays, 8 bytes per unique guess -- and 10^7+-guess sharded
attacks stay pipe-cheap.  Strategies without an index-matrix stream
(the baselines, smoothing modes) fall back to string-mode
:class:`~repro.core.guesser.CheckpointDelta` payloads; the merger accepts
either, per shard.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Set, Tuple, Union

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

    ``deltas`` holds the shard's checkpoint deltas in order: packed uint64
    :class:`~repro.core.guesser.KeyedCheckpointDelta` arrays when the
    shard accounted in interned-id key space, string
    :class:`~repro.core.guesser.CheckpointDelta` lists otherwise (an
    accounting locks its mode at the first observation, so one outcome
    never mixes the two).  ``window_slices[j]`` is the half-open index
    range of the deltas that belong to budget window ``j`` -- the guesses
    between global budgets ``j-1`` and ``j``.  A static shard records a
    slice only for each window it reached; an elastic shard records one
    for each window the driver closed, and the driver counts how many of
    those the fleet completed.  The merger gives every completed window a
    row and folds every later delta (a static shard's dry tail, an
    elastic window the fleet fell short in) into its close-out row.
    ``codec`` is the shard's
    :class:`~repro.data.encoding.PasswordEncoder` when deltas are keyed
    (``None`` for string shards); the merger uses it to decode keyed
    deltas if a sibling shard fell back to strings.  ``crashed`` carries
    the repr of the strategy exception that retired an elastic shard
    (its budget was re-planned onto live shards).
    """

    index: int
    total: int = 0
    batches: int = 0
    deltas: List[Delta] = field(default_factory=list)
    window_slices: List[Tuple[int, int]] = field(default_factory=list)
    matched_samples: List[str] = field(default_factory=list)
    non_matched_samples: List[str] = field(default_factory=list)
    method: Optional[str] = None  # the shard strategy's display name
    codec: Optional[Any] = None  # set when deltas are keyed
    crashed: Optional[str] = None

    @property
    def keyed(self) -> bool:
        """Whether this shard's deltas are packed key arrays.

        Vacuously true for an empty delta list -- an empty shard merges
        cleanly into either key-space or string-space accumulation.
        """
        return all(isinstance(d, KeyedCheckpointDelta) for d in self.deltas)

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


def execute_shard(task: ShardTask, plan: ShardPlan) -> ShardOutcome:
    """Run one shard to completion (in-process or in a pool worker).

    The shard accounts over its plan's local budgets, one delta per
    checkpoint.  Window ``j`` covers the checkpoint whose mark lies in
    ``(marks[j-1], marks[j]]`` (none when the two marks are equal) and is
    sliced only once the shard reached it.  A finite strategy that runs
    dry ships its tail past the last reached checkpoint as one more
    delta, after every window slice.
    """
    outcome = ShardOutcome(index=plan.index)
    local_budgets = plan.local_budgets
    if not local_budgets:  # more workers than guesses at every budget
        outcome.window_slices = [(0, 0)] * len(plan.marks)
        return outcome
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
    reached = len(accounting.deltas)
    if not accounting.done:
        accounting.cut_checkpoint()  # the dry tail (no-op when nothing is left)
    start = 0
    for mark in plan.marks:
        stop = bisect_right(local_budgets, mark)
        if stop > reached:
            break
        outcome.window_slices.append((start, stop))
        start = stop
    outcome.deltas = accounting.deltas
    outcome.total = accounting.total
    outcome.batches = state.batches
    outcome.matched_samples = accounting.matched_samples
    outcome.non_matched_samples = accounting.non_matched_samples
    if accounting.mode == "encoded":
        outcome.codec = accounting.codec
    return outcome


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
    ``ProcessPoolExecutor(processes=len(plans)).run(task, plans)``: one
    worker process per shard, the fleet ``--executor auto`` builds for
    two or more workers.  There is no second process implementation behind
    this name, and it is not an ``--executor`` choice; it stays resolvable
    because ``perfbench/tracing.py`` names ``ProcessExecutor.run`` as a
    trace target.
    """

    def run(self, task: ShardTask, plans: Sequence[ShardPlan]) -> List[ShardOutcome]:
        """Run every shard on a one-process-per-shard fork-server pool."""
        from repro.runtime.pool import ProcessPoolExecutor  # pool imports this module

        return ProcessPoolExecutor(processes=len(plans)).run(task, plans)
