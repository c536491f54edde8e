"""Elastic shard scheduling: chunked shard runs with checkpoint re-planning.

The static runtime fixes every shard's quota up front, so a shard whose
strategy runs dry (finite guess streams, conditional templates) or
straggles under load idles the rest of the fleet.  The elastic schedule
keeps the same merge-at-checkpoint accounting discipline but makes two
changes, following the re-partitioning half of Liu's dynamic-load-balancing
playbook:

* **Chunked execution.**  Each budget window (the span between two global
  checkpoints) is processed as a round of per-shard *chunks*.  Chunk ``k``
  of shard ``i`` streams from its own named RNG stream
  (``spawn_rng(seed, "shard-i-chunk-k")``) through a fresh
  ``iter_guesses`` generator, while the shard's *strategy instance*
  persists across chunks -- so a shard's guess stream is a pure function
  of ``(seed, workers, schedule, chunk policy)``, whichever process runs
  its chunks and however different shards' chunks overlap in time.
* **Checkpoint-aligned re-planning.**  At deterministic round boundaries
  the driver measures what every shard actually produced; shards that ran
  dry (or crashed) release their unconsumed budget back to the queue and
  :meth:`~repro.runtime.planner.ShardPlanner.replan` re-splits it over the
  live shards, marks still summing exactly to each budget.  Dryness is a
  property of the strategy (guess counts), never of wall-clock timing, so
  re-planning decisions are bit-reproducible.

The driver talks to one *shard host* per run, obtained from the
executor's ``elastic_host(task, workers)``:
:class:`~repro.runtime.executor.LocalExecutor` hosts the shards in this
process and runs each round in shard order (the reference), and
:class:`~repro.runtime.pool.ProcessPoolExecutor` hosts them in forked
workers with sticky shard affinity.

Determinism contract: for fixed ``(seed, workers, schedule="elastic")``
the merged report is bit-identical across runs and across both
executors.  Elastic streams differ from static streams for RNG-driven
strategies (different named streams); for position-deterministic
strategies -- enumerators whose next guess depends only on instance
state -- the two schedules produce identical reports.

When every shard runs dry before the final budget, the run closes out
with a row reporting the guesses *actually accounted* (the shards' dry
tails included) instead of pretending the full budget was attempted.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from repro.core.guesser import GuessAccounting
from repro.runtime.executor import ShardOutcome, _ShardProgress, build_shard_strategy
from repro.runtime.planner import ShardPlanner, ShardProgress, balanced_totals
from repro.strategies.engine import AttackEngine, AttackState
from repro.utils.logging import get_logger
from repro.utils.rng import spawn_rng

logger = get_logger("runtime.elastic")

#: Auto chunk policy: a shard's round quota splits into at most this many
#: chunks, so small windows stay cheap and large windows ship their deltas
#: back in several pieces.
DEFAULT_CHUNKS_PER_ROUND = 8


def chunk_quotas(quota: int, chunk_size: Optional[int] = None) -> List[int]:
    """Deterministic chunk sizes covering a shard's round quota exactly.

    With an explicit ``chunk_size`` the quota splits into full chunks plus
    one remainder chunk; the default policy sizes chunks as
    ``ceil(quota / DEFAULT_CHUNKS_PER_ROUND)``.  Chunk boundaries are part
    of the elastic determinism key -- they decide where each per-chunk RNG
    stream starts -- so they depend only on the quota and the policy,
    never on timing.
    """
    if quota < 1:
        return []
    if chunk_size is not None and chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    size = chunk_size if chunk_size is not None else max(
        1, math.ceil(quota / DEFAULT_CHUNKS_PER_ROUND)
    )
    full, rest = divmod(quota, size)
    return [size] * full + ([rest] if rest else [])


class _ShardRun:
    """One shard's persistent state across elastic chunks.

    Owns the shard's strategy instance (feedback state survives chunk
    boundaries, exactly as it survives batch boundaries in a static
    shard) and its delta-tracked accounting.  ``run_chunk`` is the unit
    the shard hosts run, one chunk at a time and in order, in whichever
    process owns the shard.
    """

    def __init__(self, index, task, workers: int = 1) -> None:
        self.index = index
        self.task = task
        self.strategy = build_shard_strategy(task.source, index)
        self.method = getattr(self.strategy, "name", None)
        bind_shard = getattr(self.strategy, "bind_shard", None)
        if bind_shard is not None:
            # same fleet-coordinate hook as the static execute_shard:
            # position-deterministic strategies (bank replay) select their
            # strided substream before any chunk draws guesses
            bind_shard(index, workers)
        self.live = True
        self.error: Optional[Exception] = None
        self.chunk_counter = 0
        self.accounting: Optional[GuessAccounting] = None
        self.state: Optional[AttackState] = None
        self.window_slices: List[Tuple[int, int]] = []
        self._window_start = 0
        # stream() only reads the state's accounting; the engine instance
        # just carries the loop (budgets here are a placeholder)
        self._engine = AttackEngine(set(), [1], sample_cap=task.sample_cap)

    @property
    def consumed(self) -> int:
        """Guesses the shard has accounted so far (crash-safe: reads accounting)."""
        return self.accounting.total if self.accounting is not None else 0

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
        if self.accounting is None:
            self.accounting = GuessAccounting(
                self.task.test_set,
                [target],
                sample_cap=self.task.sample_cap,
                track_deltas=True,
            )
            self.state = AttackState(self.accounting)
        else:
            # extend the shard's checkpoint schedule chunk by chunk; only
            # live shards get chunks, so targets stay strictly ascending
            self.accounting.budgets.append(target)
        rng = spawn_rng(
            self.task.seed,
            f"{self.task.label_prefix}shard-{self.index}-chunk-{self.chunk_counter}",
        )
        self.chunk_counter += 1
        progress = (
            _ShardProgress(self.task.progress) if self.task.progress is not None else None
        )
        for _ in self._engine.stream(self.strategy, rng, self.state, progress=progress):
            pass
        if self.consumed < target:
            self.live = False

    def close_window(self) -> None:
        """Seal the current budget window: flush dry tails, record the slice."""
        if self.accounting is not None:
            self.accounting.cut_checkpoint()  # no-op when chunk-aligned
        count = len(self.accounting.deltas) if self.accounting is not None else 0
        self.window_slices.append((self._window_start, count))
        self._window_start = count

    def outcome(self) -> ShardOutcome:
        """Freeze the run into a mergeable :class:`ShardOutcome`."""
        accounting = self.accounting
        out = ShardOutcome(
            index=self.index,
            total=self.consumed,
            batches=self.state.batches if self.state is not None else 0,
            window_slices=list(self.window_slices),
            method=self.method,
            crashed=repr(self.error) if self.error is not None else None,
        )
        if accounting is not None:
            out.deltas = accounting.deltas
            out.matched_samples = accounting.matched_samples
            out.non_matched_samples = accounting.non_matched_samples
            if accounting.mode == "encoded":
                out.codec = accounting.codec
        return out


#: One shard's chunk work for a round: ``(shard_index, [chunk sizes])``.
#: Chunk boundaries are cut by the driver (:func:`chunk_quotas`) so the
#: elastic determinism key stays centralized; hosts only execute them.
ChunkAssignment = Tuple[int, List[int]]


class _InProcessChunkHost:
    """Shard state owned by the driver's process: the reference shard host.

    The elastic *shard-host* protocol is ``progress`` / ``run_round`` /
    ``close_window`` / ``errors`` / ``outcomes`` / ``finish``.  Here one
    :class:`_ShardRun` per shard lives in this process and each round's
    :class:`ChunkAssignment` list runs in shard order, each shard's
    chunks in sequence.
    :class:`~repro.runtime.pool.ProcessPoolExecutor` implements the same
    protocol with shard state living in forked workers instead.
    """

    def __init__(self, task, workers: int) -> None:
        self.runs = [_ShardRun(index, task, workers=workers) for index in range(workers)]

    def progress(self) -> List[ShardProgress]:
        """Every shard's (consumed, live) snapshot, in shard order."""
        return [
            ShardProgress(run.index, run.consumed, run.live) for run in self.runs
        ]

    def errors(self) -> dict:
        """Crashed shards, by index (empty for a clean fleet)."""
        return {run.index: run.error for run in self.runs if run.error is not None}

    def run_round(self, assignments: List[ChunkAssignment]) -> None:
        """Run one round of chunks; a raising chunk retires its shard."""
        for index, sizes in assignments:
            run = self.runs[index]
            try:
                for size in sizes:
                    run.run_chunk(size)
            except Exception as exc:  # noqa: BLE001 - the driver re-plans the budget
                run.live = False
                run.error = exc
                logger.warning(
                    "elastic shard %d crashed (%r); re-queueing its "
                    "remaining budget",
                    index,
                    exc,
                )

    def close_window(self) -> None:
        """Seal the current budget window on every shard."""
        for run in self.runs:
            run.close_window()

    def outcomes(self) -> List[ShardOutcome]:
        """Freeze every shard into a mergeable outcome, in shard order."""
        return [run.outcome() for run in self.runs]

    def finish(self) -> None:
        """Release host resources (nothing to do in-process)."""


def run_elastic(
    task,
    planner: ShardPlanner,
    executor,
    chunk_size: Optional[int] = None,
) -> Tuple[List[ShardOutcome], int]:
    """Drive one attack elastically; returns (outcomes, completed windows).

    ``task`` is the shared :class:`~repro.runtime.executor.ShardTask`;
    ``executor`` provides the shard host through ``elastic_host(task,
    workers)`` (:class:`~repro.runtime.executor.LocalExecutor`: shards in
    this process; :class:`~repro.runtime.pool.ProcessPoolExecutor`:
    shards in forked workers).  Every budget window runs as one or more
    deterministic rounds: live shards receive their re-planned quota as a
    list of chunks, the host runs them, and any shortfall left by dry or
    crashed shards is re-split over the survivors.  The returned count
    says how many global budgets were fully consumed; the caller emits a
    close-out row from the remaining deltas when it is short.

    Raises the first shard error when *every* shard crashed (there is
    nothing left to absorb the budget, and silence would hide the bug).
    """
    host = executor.elastic_host(task, planner.workers)
    try:
        completed = 0
        for j, budget in enumerate(planner.budgets):
            progress = host.progress()
            if not any(p.live for p in progress):
                break
            plans = planner.replan(progress, planner.budgets[j:])
            quotas = {
                p.index: plans[p.index].marks[0] - p.consumed
                for p in progress
                if p.live
            }
            while True:
                alive = {p.index for p in host.progress() if p.live}
                assignments = [
                    (index, chunk_quotas(quota, chunk_size))
                    for index, quota in sorted(quotas.items())
                    if quota > 0 and index in alive
                ]
                if not assignments:
                    break
                host.run_round(assignments)
                progress = host.progress()
                if sum(p.consumed for p in progress) >= budget:
                    break
                live = [p for p in progress if p.live]
                if not live:
                    break
                # released budget flows to the least-loaded survivors first,
                # mirroring the replan rule (deterministic: depends only on
                # guess counts, never on timing)
                dead_total = sum(p.consumed for p in progress if not p.live)
                targets = balanced_totals(
                    [p.consumed for p in live], budget - dead_total
                )
                quotas = {
                    p.index: target - p.consumed
                    for p, target in zip(live, targets)
                }
            host.close_window()
            if sum(p.consumed for p in host.progress()) < budget:
                break
            completed = j + 1
        errors = host.errors()
        if planner.workers and len(errors) == planner.workers:
            raise errors[min(errors)]
        return host.outcomes(), completed
    finally:
        host.finish()
