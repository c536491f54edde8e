"""ParallelAttackEngine: sharded attacks with merge-at-checkpoint rows.

The engine splits the budget schedule over W shards
(:class:`~repro.runtime.planner.ShardPlanner`), runs each shard's own
strategy instance on its own RNG stream through an executor, and folds the
per-checkpoint delta payloads back into the same
:class:`~repro.core.guesser.BudgetRow` checkpoints the serial
:class:`~repro.strategies.engine.AttackEngine` emits: at global budget
``b_j`` every shard has generated exactly its planned mark, so the union of
their uniques/matches *is* the global accounting state at ``b_j`` guesses.
The fold reads its space off the deltas themselves: packed-key
:class:`~repro.core.guesser.KeyedCheckpointDelta` arrays union as sorted
uint64 arrays, string :class:`~repro.core.guesser.CheckpointDelta` lists
as Python sets, and a fleet that mixes the two fails with one
``ValueError`` line.  A :class:`~repro.runtime.executor.StrategySource`
without a model is built once in the parent and its fitted count
baseline pinned, so no shard refits it.

Two schedules are supported behind one ``schedule`` knob:

* ``"static"`` (the default): one shard per worker with fixed marks, the
  merge-at-checkpoint discipline shipped since the first parallel
  runtime.
* ``"elastic"``: shards run as chunked rounds with checkpoint-aligned
  re-planning (:mod:`repro.runtime.elastic`); dry or crashed shards
  release their unconsumed budget back to the live fleet, so the attack
  still reaches every budget mark.

Both schedules hand back one :class:`~repro.runtime.executor.ShardOutcome`
per shard, with its deltas sliced by budget window, and one fold merges
them.  Two executors run either schedule: the in-process
:class:`~repro.runtime.executor.LocalExecutor` and the fork-server
:class:`~repro.runtime.pool.ProcessPoolExecutor`, which ``auto`` picks
for two or more workers wherever ``fork`` exists.

Determinism: for a fixed ``(seed, workers, schedule)`` the report is
bit-identical across runs and across executors (shard and chunk RNG
streams are named, merge order is shard order).  Reports for different
worker counts or schedules are equally valid Table II/III estimates but
not bit-identical to each other -- shard-local feedback (Dynamic
Sampling's matched-latent memory) and the interleaving of guess streams
differ.

When a run ends with every shard dry before the final budget mark, the
report closes out with a row at the guesses *actually accounted*
(including each shard's dry tail) instead of silently truncating -- or
worse, labeling partial work with the full budget.

:func:`run_attack` is the front door: it decides, in one place, whether
an attack runs on the serial engine or as a sharded fleet.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence, Set

import numpy as np

from repro.core.guesser import (
    BudgetRow,
    Delta,
    GuessingReport,
    KeyedCheckpointDelta,
    _sorted_contains,
    extend_samples,
    insert_sorted,
)
from repro.runtime.elastic import run_elastic
from repro.runtime.executor import (
    LocalExecutor,
    ShardOutcome,
    ShardTask,
    StrategyFactory,
    StrategySource,
    build_shard_strategy,
)
from repro.runtime.planner import ShardPlanner
from repro.runtime.pool import ProcessPoolExecutor
from repro.strategies.engine import AttackEngine
from repro.utils.logging import get_logger
from repro.utils.progress import ProgressReporter
from repro.utils.rng import spawn_rng

logger = get_logger("runtime.parallel")

SCHEDULES = ("static", "elastic")

EXECUTOR_NAMES = ("auto", "local", "processpool")


def default_executor(workers: int):
    """The executor a fleet gets when the caller doesn't pick one.

    Two or more workers run on a fork-server pool with one worker process
    per shard, under either schedule, when the platform allows it (else
    in-process with a warning, identical results); a single worker runs
    in-process.
    """
    if workers <= 1:
        return LocalExecutor()
    try:
        return ProcessPoolExecutor()
    except RuntimeError:
        logger.warning("fork unavailable; running %d shards in-process", workers)
        return LocalExecutor()


def resolve_executor(name: Optional[str], workers: int):
    """Build the executor a ``--executor`` request names, or fail clearly.

    ``None``/``"auto"`` defers to :func:`default_executor` (which may
    fall back with a warning); an *explicit* name must either work or
    raise a one-line actionable :class:`ValueError` -- no fallback, no
    traceback-only ``RuntimeError`` -- so CLI and harness callers can
    print it verbatim.  Every executor runs both schedules.
    """
    if name is None or name == "auto":
        return default_executor(workers)
    if name == "local":
        return LocalExecutor()
    if name == "processpool":
        try:
            return ProcessPoolExecutor()
        except RuntimeError:
            raise ValueError(
                "--executor processpool requires the fork start method, "
                "which this platform does not provide; use --executor local"
            ) from None
    raise ValueError(
        f"unknown executor {name!r}; choose from {', '.join(EXECUTOR_NAMES)}"
    )


def _fold_keys(folded: np.ndarray, fresh: List[np.ndarray]) -> np.ndarray:
    """The sorted distinct ``folded`` keys plus every key of ``fresh``.

    Shards' deltas overlap, so the fresh keys are sorted and deduplicated
    by hand: :func:`numpy.union1d` imports ``numpy.ma`` (about 12 ms) on
    first use, which no keyed fleet needs to pay.
    """
    keys = np.sort(np.concatenate(fresh))
    distinct = np.ones(keys.size, dtype=bool)
    distinct[1:] = keys[1:] != keys[:-1]
    keys = keys[distinct]
    return insert_sorted(folded, keys[~_sorted_contains(folded, keys)])


class _DeltaFold:
    """Cumulative union of shard checkpoint deltas, in key or string space.

    One instance accumulates the global unique/matched state as deltas
    fold in; the first delta fixes the space and a delta of the other
    kind raises.  Key space buffers fresh arrays and merges them into
    sorted key arrays once per :meth:`flush` (once per checkpoint, not
    per shard delta); string space updates Python sets directly.
    """

    def __init__(self) -> None:
        self.keyed: Optional[bool] = None  # fixed by the first delta
        self._unique: set = set()
        self._matched: set = set()
        self._unique_keys = np.empty(0, dtype=np.uint64)
        self._matched_keys = np.empty(0, dtype=np.uint64)
        self._fresh_unique: List[np.ndarray] = []
        self._fresh_matched: List[np.ndarray] = []

    def add(self, delta: Delta) -> None:
        """Fold one delta in (buffered in key space until :meth:`flush`)."""
        keyed = isinstance(delta, KeyedCheckpointDelta)
        if self.keyed is None:
            self.keyed = keyed
        elif keyed != self.keyed:
            raise ValueError(
                "cannot merge packed-key and string checkpoint deltas: "
                "every shard of a fleet must account in one space"
            )
        if keyed:
            self._fresh_unique.append(delta.new_unique_keys)
            self._fresh_matched.append(delta.new_matched_keys)
            return
        self._unique.update(delta.new_unique)
        self._matched.update(delta.new_matched)

    def flush(self) -> None:
        """Merge buffered key arrays into the cumulative state (key space only)."""
        if self._fresh_unique:
            self._unique_keys = _fold_keys(self._unique_keys, self._fresh_unique)
            self._fresh_unique = []
        if self._fresh_matched:
            self._matched_keys = _fold_keys(self._matched_keys, self._fresh_matched)
            self._fresh_matched = []

    @property
    def unique_count(self) -> int:
        """Distinct guesses folded so far (call :meth:`flush` first)."""
        return int(self._unique_keys.size) if self.keyed else len(self._unique)

    @property
    def matched_count(self) -> int:
        """Distinct test-set hits folded so far (call :meth:`flush` first)."""
        return int(self._matched_keys.size) if self.keyed else len(self._matched)


class ParallelAttackEngine:
    """Runs one attack as W merged shards over a shared test set."""

    def __init__(
        self,
        test_set: Set[str],
        budgets: Sequence[int],
        workers: int = 1,
        executor=None,
        schedule: str = "static",
    ) -> None:
        if schedule not in SCHEDULES:
            raise ValueError(
                f"schedule must be one of {SCHEDULES}, got {schedule!r}"
            )
        self.test_set = set(test_set)
        self.planner = ShardPlanner(budgets, workers)  # validates budgets/workers
        self.budgets = self.planner.budgets
        self.workers = self.planner.workers
        self.schedule = schedule
        self.executor = (
            resolve_executor(executor, self.planner.workers)
            if executor is None or isinstance(executor, str)
            else executor
        )
        if schedule == "elastic" and not hasattr(self.executor, "elastic_host"):
            raise ValueError(
                f"{type(self.executor).__name__} cannot run elastic schedules; "
                "use LocalExecutor or ProcessPoolExecutor"
            )
        if schedule == "static" and not hasattr(self.executor, "run"):
            raise ValueError(
                f"{type(self.executor).__name__} cannot run static schedules; "
                "use LocalExecutor or ProcessPoolExecutor"
            )

    def run(
        self,
        source: StrategyFactory,
        seed: int,
        method: Optional[str] = None,
        label: str = "",
        progress: Optional[ProgressReporter] = None,
    ) -> GuessingReport:
        """Run every shard and merge their accounting into one report.

        ``source`` builds one fresh strategy per shard (a
        :class:`~repro.runtime.executor.StrategySource` spec recipe, or any
        zero-argument factory for in-process executors).  A
        ``StrategySource`` without a model is built once here and the
        shards run from a copy pinned to its fitted model, so a count
        baseline is fitted once per run, not once per shard; the caller's
        source is left as it was.  Under the static schedule shard ``i``
        draws from ``spawn_rng(seed, f"{label}shard-{i}")``; under the
        elastic schedule each of its chunks draws from ``spawn_rng(seed,
        f"{label}shard-{i}-chunk-{k}")``.
        """
        if isinstance(source, StrategySource) and source.model is None:
            source = replace(source).pin(source.build())
        task = ShardTask(
            source=source,
            test_set=self.test_set,
            seed=seed,
            label_prefix=label,
            progress=progress,  # per-batch updates inside each shard loop
        )
        if self.schedule == "elastic":
            outcomes, completed = run_elastic(task, self.planner, self.executor)
        else:
            plans = self.planner.plan()
            outcomes = self.executor.run(task, plans)
            if len(outcomes) != len(plans):
                raise RuntimeError(
                    f"executor returned {len(outcomes)} outcomes for {len(plans)} shards"
                )
            outcomes = sorted(outcomes, key=lambda outcome: outcome.index)
            completed = min(len(outcome.window_slices) for outcome in outcomes)
        report = self._merge(
            outcomes, completed, self._resolve_method(method, outcomes, source)
        )
        if progress is not None:
            # forked shards updated their own copies; reconcile the parent's
            # count before the merged summary line
            progress.count = max(
                progress.count, sum(outcome.total for outcome in outcomes)
            )
            matched = report.rows[-1].matched if report.rows else 0
            progress.close(extra=f"{len(outcomes)} shards merged, {matched} matched")
        return report

    def _resolve_method(self, method, outcomes, source: StrategyFactory) -> str:
        """Explicit method, else the shard strategies' name, else the spec."""
        if method is not None:
            return method
        shard_methods = [o.method for o in outcomes if o.method]
        return shard_methods[0] if shard_methods else self._method_of(source)

    @staticmethod
    def _method_of(source: StrategyFactory) -> str:
        spec = getattr(source, "spec", None)
        return spec if spec is not None else "parallel-attack"

    # ------------------------------------------------------------------
    def _merge(
        self,
        outcomes: List[ShardOutcome],
        completed: int,
        method: str,
    ) -> GuessingReport:
        """Fold shard checkpoint deltas, window by window, into budget rows.

        Window ``j`` of every shard holds exactly the deltas between global
        budgets ``j-1`` and ``j``, so the union of all shards' windows
        ``<= j`` is the global state at ``budgets[j]``.  The first
        ``completed`` windows -- those the whole fleet reached -- get a
        row each.  When the fleet ran dry (or crashed) short of the
        schedule, every delta past the last completed window folds into a
        close-out row at the guesses actually accounted.

        Runs in the space the shards accounted in: for
        :class:`~repro.core.guesser.KeyedCheckpointDelta` payloads global
        unique/matched accumulation is a sorted uint64 array per set and
        each checkpoint folds in with one :func:`numpy.union1d` -- no
        strings ever materialize.  Raises ``ValueError`` when the fleet
        mixes keyed and string deltas.
        """
        fold = _DeltaFold()
        rows: List[BudgetRow] = []
        test_size = len(self.test_set)
        for j in range(completed):
            for outcome in outcomes:
                for delta in outcome.window_deltas(j):
                    fold.add(delta)
            # one union per budget, not per shard delta: re-sorting the
            # cumulative array W times per checkpoint is where a
            # 10^7-key merge would burn its CPU budget
            fold.flush()
            rows.append(self._row(self.budgets[j], fold, test_size))
        if completed < len(self.budgets):
            for outcome in outcomes:
                tail = outcome.window_slices[completed - 1][1] if completed else 0
                for delta in outcome.deltas[tail:]:
                    fold.add(delta)
            fold.flush()
            self._close_out(rows, outcomes, fold, test_size)
        return self._report(
            method,
            rows,
            outcomes,
            test_size,
            shard_errors=[
                f"shard {outcome.index}: {outcome.crashed}"
                for outcome in outcomes
                if outcome.crashed
            ],
        )

    @staticmethod
    def _row(guesses: int, fold: _DeltaFold, test_size: int) -> BudgetRow:
        """One merged checkpoint row from the folder's cumulative counts."""
        matched = fold.matched_count
        return BudgetRow(
            guesses=guesses,
            unique=fold.unique_count,
            matched=matched,
            match_percent=100.0 * matched / test_size if test_size else 0.0,
        )

    def _close_out(
        self, rows: List[BudgetRow], outcomes, fold: _DeltaFold, test_size: int
    ) -> None:
        """Append the guesses-actually-accounted row after a dry run.

        ``fold`` must already hold every delta the shards shipped.  The
        row is labeled with the summed shard totals -- what was truly
        attempted -- and is skipped when that adds nothing beyond the last
        full checkpoint (e.g. every shard dried exactly on a mark).
        """
        accounted = sum(outcome.total for outcome in outcomes)
        if accounted > (rows[-1].guesses if rows else 0):
            rows.append(self._row(accounted, fold, test_size))

    def _report(
        self,
        method: str,
        rows: List[BudgetRow],
        outcomes,
        test_size: int,
        shard_errors: List[str],
    ) -> GuessingReport:
        """Assemble the merged report (rows plus shard-order samples).

        ``kernel_backend`` is stamped by the dataclass default from the
        parent's active backend, ``numpy`` outside the parity tests.
        """
        return GuessingReport(
            method=method,
            test_size=test_size,
            rows=rows,
            non_matched_samples=self._merge_samples(
                [outcome.non_matched_samples for outcome in outcomes]
            ),
            matched_samples=self._merge_samples(
                [outcome.matched_samples for outcome in outcomes]
            ),
            shard_errors=shard_errors,
        )

    @staticmethod
    def _merge_samples(per_shard: List[List[str]]) -> List[str]:
        """Shard-order concatenation up to the cap, duplicates dropped."""
        merged: List[str] = []
        for samples in per_shard:
            extend_samples(merged, samples)
        return merged


def run_attack(
    source: StrategyFactory,
    test_set: Set[str],
    budgets: Sequence[int],
    *,
    seed: int,
    label: str = "",
    workers: int = 1,
    schedule: str = "static",
    executor=None,
    method: Optional[str] = None,
    progress: Optional[ProgressReporter] = None,
) -> GuessingReport:
    """Run one attack, serial or sharded: the CLI, harness and bank entry.

    One worker on the static schedule with no executor named (``None`` or
    ``"auto"``) runs the serial :class:`~repro.strategies.engine.AttackEngine`,
    bit-identical to the seed-era single-process attack, on
    ``default_rng(seed)`` without a ``label`` (the CLI's stream) or on
    ``spawn_rng(seed, label)`` with one (the eval harness's
    ``attack-<name>`` streams, the rule ``build_bank``'s ``rng_label``
    follows).  Anything else shards through :class:`ParallelAttackEngine`
    with shard streams named under ``f"{label}/"``; an explicitly named
    executor routes even one shard there, so its reports compare
    like-for-like with other executors.
    """
    if workers <= 1 and schedule == "static" and executor in (None, "auto"):
        rng = spawn_rng(seed, label) if label else np.random.default_rng(seed)
        return AttackEngine(test_set, budgets).run(
            build_shard_strategy(source, 0), rng, method=method, progress=progress
        )
    engine = ParallelAttackEngine(
        test_set, budgets, workers=workers, schedule=schedule, executor=executor
    )
    return engine.run(
        source,
        seed=seed,
        method=method,
        label=f"{label}/" if label else "",
        progress=progress,
    )
