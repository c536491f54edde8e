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
  of ``(seed, workers, schedule)``, whichever process runs its chunks and
  however different shards' chunks overlap in time.  Chunks are
  ``ceil(quota / DEFAULT_CHUNKS_PER_ROUND)`` guesses long
  (:func:`chunk_quotas`), a function of the round quota alone.
* **Checkpoint-aligned re-planning.**  Before every round the driver
  measures what every shard actually produced; shards that ran dry (or
  crashed) release their unconsumed budget back to the queue and one rule,
  :func:`~repro.runtime.planner.balanced_totals`, re-splits the window's
  budget over the live shards, totals still summing exactly to it.  The
  first round of a window is no special case: from the previous budget's
  marks the rule gives the static plan's.  Dryness is a property of the
  strategy (guess counts), never of wall-clock timing, so re-planning
  decisions are bit-reproducible.

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
from typing import List, Tuple

from repro.runtime.executor import ShardOutcome, _ShardRun
from repro.runtime.planner import ShardPlanner, ShardProgress, balanced_totals
from repro.utils.logging import get_logger

logger = get_logger("runtime.elastic")

#: The chunk policy: a shard's round quota splits into at most this many
#: chunks, so small windows stay cheap and large windows ship their deltas
#: back in several pieces.
DEFAULT_CHUNKS_PER_ROUND = 8


def chunk_quotas(quota: int) -> List[int]:
    """Deterministic chunk sizes covering a shard's round quota exactly.

    Chunks are ``ceil(quota / DEFAULT_CHUNKS_PER_ROUND)`` long, plus one
    remainder chunk.  Chunk boundaries are part of the elastic
    determinism key -- they decide where each per-chunk RNG stream
    starts -- so they depend only on the quota, never on timing.
    """
    if quota < 1:
        return []
    size = math.ceil(quota / DEFAULT_CHUNKS_PER_ROUND)
    full, rest = divmod(quota, size)
    return [size] * full + ([rest] if rest else [])


#: One shard's chunk work for a round: ``(shard_index, [chunk sizes])``.
#: Chunk boundaries are cut by the driver (:func:`chunk_quotas`) so the
#: elastic determinism key stays centralized; hosts only execute them.
ChunkAssignment = Tuple[int, List[int]]


class _InProcessChunkHost:
    """Shard state owned by the driver's process: the reference shard host.

    The elastic *shard-host* protocol is ``progress`` / ``run_round`` /
    ``close_window`` / ``errors`` / ``outcomes`` / ``finish``.  Here one
    :class:`~repro.runtime.executor._ShardRun` per shard lives in this
    process and each round's :class:`ChunkAssignment` list runs in shard
    order, each shard's chunks in sequence; a shard whose strategy fails
    to build crashes on its first chunk, like any other raising chunk.
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
    task, planner: ShardPlanner, executor
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
            while sum(p.consumed for p in progress) < budget and any(
                p.live for p in progress
            ):
                # the one quota rule: dead shards stay frozen at what they
                # consumed and the least-loaded live shards absorb the rest
                # (deterministic: guess counts only, never timing)
                live = [p for p in progress if p.live]
                dead_total = sum(p.consumed for p in progress if not p.live)
                targets = balanced_totals(
                    [p.consumed for p in live], budget - dead_total
                )
                host.run_round(
                    [
                        (p.index, chunk_quotas(target - p.consumed))
                        for p, target in zip(live, targets)
                        if target > p.consumed
                    ]
                )
                progress = host.progress()
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
