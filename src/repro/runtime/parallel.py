"""ParallelAttackEngine: sharded attacks with merge-at-checkpoint rows.

The engine splits the budget schedule over W shards
(:class:`~repro.runtime.planner.ShardPlanner`), runs each shard's own
strategy instance on its own RNG stream through an executor, and folds the
per-checkpoint delta payloads (packed-key
:class:`~repro.core.guesser.KeyedCheckpointDelta` arrays when shards
accounted in interned-id key space, string
:class:`~repro.core.guesser.CheckpointDelta` lists otherwise) back into
the same :class:`~repro.core.guesser.BudgetRow` checkpoints the serial
:class:`~repro.strategies.engine.AttackEngine` emits: at global budget
``b_j`` every shard has generated exactly its planned mark, so the union of
their uniques/matches *is* the global accounting state at ``b_j`` guesses.

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
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set

import numpy as np

from repro.core.guesser import (
    BudgetRow,
    Delta,
    GuessingReport,
    KeyedCheckpointDelta,
    extend_samples,
)
from repro.runtime.elastic import run_elastic
from repro.runtime.executor import (
    LocalExecutor,
    ShardOutcome,
    ShardTask,
    StrategyFactory,
)
from repro.runtime.planner import ShardPlanner
from repro.runtime.pool import ProcessPoolExecutor
from repro.utils.logging import get_logger
from repro.utils.progress import ProgressReporter

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
        return ProcessPoolExecutor(processes=workers)
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
            return ProcessPoolExecutor(processes=workers)
        except RuntimeError:
            raise ValueError(
                "--executor processpool requires the fork start method, "
                "which this platform does not provide; use --executor local"
            ) from None
    raise ValueError(
        f"unknown executor {name!r}; choose from {', '.join(EXECUTOR_NAMES)}"
    )


class _DeltaFold:
    """Cumulative union of shard checkpoint deltas, in key or string space.

    One instance accumulates the global unique/matched state as deltas
    fold in.  Key space buffers fresh arrays and unions once per
    :meth:`flush` (one :func:`numpy.union1d` per checkpoint, not per
    shard delta); string space updates Python sets directly, decoding
    keyed payloads through their shard codec when a sibling shard fell
    back to strings.
    """

    def __init__(self, keyed: bool) -> None:
        self.keyed = keyed
        self._unique: set = set()
        self._matched: set = set()
        self._unique_keys = np.empty(0, dtype=np.uint64)
        self._matched_keys = np.empty(0, dtype=np.uint64)
        self._fresh_unique: List[np.ndarray] = []
        self._fresh_matched: List[np.ndarray] = []

    def add(self, delta: Delta, codec) -> None:
        """Fold one delta in (buffered in key space until :meth:`flush`)."""
        if self.keyed:
            self._fresh_unique.append(delta.new_unique_keys)
            self._fresh_matched.append(delta.new_matched_keys)
            return
        if isinstance(delta, KeyedCheckpointDelta):
            delta = delta.decode(codec)
        self._unique.update(delta.new_unique)
        self._matched.update(delta.new_matched)

    def flush(self) -> None:
        """Union buffered key arrays into the cumulative state (key space only)."""
        if self._fresh_unique:
            self._unique_keys = np.union1d(
                self._unique_keys, np.concatenate(self._fresh_unique)
            )
            self._fresh_unique = []
        if self._fresh_matched:
            self._matched_keys = np.union1d(
                self._matched_keys, np.concatenate(self._fresh_matched)
            )
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
        sample_cap: int = 16,
        schedule: str = "static",
        chunk_size: Optional[int] = None,
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
        self.chunk_size = chunk_size
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
        self.sample_cap = sample_cap

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
        zero-argument factory for in-process executors).  Under the static
        schedule shard ``i`` draws from ``spawn_rng(seed,
        f"{label}shard-{i}")``; under the elastic schedule each of its
        chunks draws from ``spawn_rng(seed, f"{label}shard-{i}-chunk-{k}")``.
        """
        task = ShardTask(
            source=source,
            test_set=self.test_set,
            seed=seed,
            sample_cap=self.sample_cap,
            label_prefix=label,
            progress=progress,  # per-batch updates inside each shard loop
        )
        if self.schedule == "elastic":
            outcomes, completed = run_elastic(
                task, self.planner, self.executor, chunk_size=self.chunk_size
            )
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
    @staticmethod
    def _keyed_merge_possible(outcomes: Sequence) -> bool:
        """Whether every shard's deltas can be unioned in one key space.

        Requires every outcome to carry keyed deltas *and* every codec to
        agree on the full packing scheme -- vocabulary size and max length
        fix the key layout, and the alphabet's character order fixes which
        password each key denotes, so all three must match before keys
        from different shards may be unioned.  Shards of one run always
        satisfy this, but a string-mode shard -- a baseline strategy, or a
        run that fell back to strings on its first batch -- or
        heterogeneous per-shard codecs force the (exact) string-space
        path.
        """
        if not all(outcome.keyed for outcome in outcomes):
            return False
        schemes = {
            (
                outcome.codec.vocab_size,
                outcome.codec.max_length,
                getattr(getattr(outcome.codec, "alphabet", None), "chars", None),
            )
            for outcome in outcomes
            if outcome.codec is not None
        }
        return len(schemes) <= 1

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

        Runs entirely in interned-id key space when every shard shipped
        :class:`~repro.core.guesser.KeyedCheckpointDelta` payloads: global
        unique/matched accumulation is then a sorted uint64 array per set
        and each checkpoint folds in with one :func:`numpy.union1d` -- no
        strings ever materialize.  If any shard fell back to string
        deltas, keyed payloads are decoded through their shard's codec and
        the merge runs in string space; either way the row counts are
        identical (keys and strings are in bijection).
        """
        fold = _DeltaFold(self._keyed_merge_possible(outcomes))
        rows: List[BudgetRow] = []
        test_size = len(self.test_set)
        for j in range(completed):
            for outcome in outcomes:
                for delta in outcome.window_deltas(j):
                    fold.add(delta, outcome.codec)
            # one union per budget, not per shard delta: re-sorting the
            # cumulative array W times per checkpoint is where a
            # 10^7-key merge would burn its CPU budget
            fold.flush()
            rows.append(self._row(self.budgets[j], fold, test_size))
        if completed < len(self.budgets):
            for outcome in outcomes:
                tail = outcome.window_slices[completed - 1][1] if completed else 0
                for delta in outcome.deltas[tail:]:
                    fold.add(delta, outcome.codec)
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
        parent's active backend; shard workers resolve the same choice
        because the CLI exports ``REPRO_KERNELS`` before spawning them.
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

    def _merge_samples(self, per_shard: List[List[str]]) -> List[str]:
        """Shard-order concatenation up to the cap, duplicates dropped."""
        merged: List[str] = []
        for samples in per_shard:
            extend_samples(merged, samples, self.sample_cap)
        return merged
