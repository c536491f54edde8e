"""Parallel attack runtime: sharded execution on delta-tracked accounting.

Three layers sit between a strategy spec and a Table II/III report:

* :class:`ShardPlanner` splits the guess-budget schedule evenly across W
  workers, giving each shard a named RNG stream
  (``spawn_rng(seed, "shard-i")``) and per-budget marks that sum exactly
  to the global budgets;
* :class:`LocalExecutor` (in-process, the deterministic reference) and
  :class:`ProcessPoolExecutor` (:mod:`repro.runtime.pool`) run either
  schedule.  The pool forks long-lived workers with sticky
  shard-to-process affinity (strategies are rebuilt in the worker from
  their registry spec via :class:`StrategySource`), giving real
  multi-core throughput, GIL-bound strategies included; ``auto`` picks
  it for two or more workers.  Elastic schedules run every shard as
  chunked rounds and re-plan dry shards' budgets onto the live fleet at
  checkpoint boundaries (:mod:`repro.runtime.elastic`);
* :class:`ParallelAttackEngine` merges the shards' checkpoint deltas into
  the same :class:`~repro.core.guesser.BudgetRow` checkpoints the serial
  engine emits.  Shards that account in interned-id key space (every
  ``passflow:static`` and ``passflow:dynamic`` strategy, smoothed or
  not) ship their deltas as
  :class:`~repro.core.guesser.KeyedCheckpointDelta` packed uint64 arrays
  and the merge runs as sorted-array set operations; string-mode shards
  (baselines, ``passflow:conditional``, string wrappers) ship
  :class:`~repro.core.guesser.CheckpointDelta` string lists.  A fleet is
  all one or all the other (a mix fails the merge with one line), and a
  shard is opaque to the rest of the runtime: one
  :class:`~repro.runtime.executor._ShardRun` builds its strategy on
  first use and runs it under either schedule.

Typical use::

    from repro.runtime import ParallelAttackEngine, StrategySource

    engine = ParallelAttackEngine(test_set, budgets=[10**4, 10**5], workers=4)
    source = StrategySource("passflow:dynamic+gs?alpha=1&sigma=0.12", model=model)
    report = engine.run(source, seed=7)

:func:`run_attack` is the one entry point the CLI, the eval harness and
bank replay share: the serial engine for one worker on the static
schedule with no executor named, :class:`ParallelAttackEngine` otherwise.

Determinism contract: fixed ``(seed, workers, schedule)`` -> bit-identical
reports, regardless of executor.  ``workers=1`` with the default static
schedule runs the serial :class:`~repro.strategies.engine.AttackEngine`
(:func:`run_attack` routes it there) and reproduces seed-era reports
bit-identically; ``schedule="elastic"`` chunks every shard's stream over
named per-chunk RNG streams, so its reports are a different (equally
valid, equally deterministic) sample of the same attack.

Names load their submodule on first use (:mod:`repro.utils.lazy`).
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".elastic": ["chunk_quotas", "run_elastic"],
        ".executor": [
            "LocalExecutor",
            "ShardOutcome",
            "ShardTask",
            "StrategySource",
            "execute_shard",
        ],
        ".parallel": [
            "EXECUTOR_NAMES",
            "ParallelAttackEngine",
            "default_executor",
            "resolve_executor",
            "run_attack",
        ],
        ".planner": [
            "ShardPlan",
            "ShardPlanner",
            "ShardProgress",
            "balanced_totals",
            "split_budget",
        ],
        ".pool": ["ProcessPoolExecutor"],
    },
)
