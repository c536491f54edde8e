"""Parallel attack runtime: sharded execution on the mergeable accounting core.

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
  smoother-free PassFlow strategy) ship their deltas as
  :class:`~repro.core.guesser.KeyedCheckpointDelta` packed uint64 arrays
  and the merge runs as sorted-array set operations; string-mode shards
  (baselines, smoothing) ship :class:`~repro.core.guesser.CheckpointDelta`
  string lists, and mixed runs merge exactly in string space.

Typical use::

    from repro.runtime import ParallelAttackEngine, StrategySource

    engine = ParallelAttackEngine(test_set, budgets=[10**4, 10**5], workers=4)
    source = StrategySource("passflow:dynamic+gs?alpha=1&sigma=0.12", model=model)
    report = engine.run(source, seed=7)

Determinism contract: fixed ``(seed, workers, schedule)`` -> bit-identical
reports, regardless of executor.  ``workers=1`` with the default static
schedule through the serial :class:`~repro.strategies.engine.AttackEngine`
path (as the CLI and eval harness route it) reproduces seed-era reports
bit-identically; ``schedule="elastic"`` chunks every shard's stream over
named per-chunk RNG streams, so its reports are a different (equally
valid, equally deterministic) sample of the same attack.
"""

from repro.runtime.elastic import chunk_quotas, run_elastic
from repro.runtime.executor import (
    LocalExecutor,
    ShardOutcome,
    ShardTask,
    StrategySource,
    execute_shard,
)
from repro.runtime.parallel import (
    EXECUTOR_NAMES,
    ParallelAttackEngine,
    default_executor,
    resolve_executor,
)
from repro.runtime.planner import (
    ShardPlan,
    ShardPlanner,
    ShardProgress,
    balanced_totals,
    split_budget,
)

from repro.runtime.pool import ProcessPoolExecutor

__all__ = [
    "EXECUTOR_NAMES",
    "LocalExecutor",
    "ParallelAttackEngine",
    "ProcessPoolExecutor",
    "ShardOutcome",
    "ShardPlan",
    "ShardPlanner",
    "ShardProgress",
    "ShardTask",
    "StrategySource",
    "balanced_totals",
    "chunk_quotas",
    "default_executor",
    "execute_shard",
    "resolve_executor",
    "run_elastic",
    "split_budget",
]
