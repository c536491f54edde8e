"""ProcessPoolExecutor: fork-server lifecycle, parity, and fault absorption.

The pool's contract has three legs, each exercised here:

* **Parity** -- for a fixed ``(seed, workers, schedule)`` its merged
  reports match :class:`~repro.runtime.LocalExecutor` (and, elastically,
  :class:`~repro.runtime.WorkStealingExecutor`) bit for bit, because
  chunk contents are fixed by named RNG streams and shard state is
  process-sticky.
* **Fault absorption** -- the conftest fault families (``drying``,
  ``crashing`` in both flavors, ``straggler``) drive the same
  budget-re-absorption semantics the in-process hosts implement: a dry
  or crashed shard releases its unconsumed budget to the live fleet, a
  worker corpse retires its shards without hanging the run, and the
  report's ``shard_errors`` names exactly the casualties.
* **Cleanup** -- no child processes survive a run, clean or failing.

``multiprocessing.active_children()`` is the orphan oracle: it reaps and
lists every live child of this process, so an empty list after a run
means the fork server really tore its fleet down.
"""

import logging
import multiprocessing

import pytest

from repro.runtime import (
    LocalExecutor,
    ParallelAttackEngine,
    ProcessPoolExecutor,
    StrategySource,
    WorkStealingExecutor,
    resolve_executor,
)
from repro.runtime.executor import ProcessExecutor
from repro.runtime.pool import _ForkServer
from repro.strategies.registry import build

TEST_SET = {f"g{n:07d}" for n in range(0, 8000, 7)}


def _pool():
    try:
        return ProcessPoolExecutor()
    except RuntimeError:
        pytest.skip("no fork start method on this platform")


def _no_orphans():
    for child in multiprocessing.active_children():
        child.join(timeout=5.0)
    assert multiprocessing.active_children() == []


class ShardedSource:
    """Index-aware heterogeneous fleet: shard ``i`` builds ``specs[i]``.

    Unlike a pop-in-build-order factory this stays correct when shards
    are built in different processes (every pool worker inherits the
    source and builds only its own shards), exercising the
    ``for_shard`` build seam.
    """

    def __init__(self, specs):
        self.specs = list(specs)

    def for_shard(self, index):
        return build(self.specs[index])


def _engine(budgets, workers, schedule, executor):
    return ParallelAttackEngine(
        set(TEST_SET), budgets, workers=workers, schedule=schedule, executor=executor
    )


def _rows(report):
    return [(r.guesses, r.unique, r.matched, r.match_percent) for r in report.rows]


class TestReportParity:
    @pytest.mark.parametrize("schedule", ["static", "elastic"])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_pool_matches_local_bit_for_bit(self, schedule, workers):
        source = StrategySource("sequence?batch=16")
        base = _engine([1200, 3600], workers, schedule, LocalExecutor()).run(
            source, seed=11
        )
        pool = _engine([1200, 3600], workers, schedule, _pool()).run(source, seed=11)
        assert _rows(base) == _rows(pool)
        assert base.matched_samples == pool.matched_samples
        assert base.non_matched_samples == pool.non_matched_samples
        _no_orphans()

    def test_pool_matches_worksteal_elastically(self):
        source = StrategySource("sequence?batch=16")
        threads = WorkStealingExecutor(4)
        try:
            base = _engine([1200, 3600], 4, "elastic", threads).run(source, seed=11)
        finally:
            threads.shutdown()
        pool = _engine([1200, 3600], 4, "elastic", _pool()).run(source, seed=11)
        assert _rows(base) == _rows(pool)
        _no_orphans()

    def test_fewer_processes_than_shards_same_report(self):
        """Affinity folding (4 shards on 2 workers) changes nothing."""
        source = StrategySource("sequence?batch=16")
        base = _engine([1200], 4, "elastic", LocalExecutor()).run(source, seed=11)
        pool = _engine([1200], 4, "elastic", ProcessPoolExecutor(processes=2)).run(
            source, seed=11
        )
        assert _rows(base) == _rows(pool)
        _no_orphans()

    def test_process_executor_name_runs_on_the_pool(self):
        """The old static-fleet name is the pool, one worker per shard."""
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("no fork start method on this platform")
        source = StrategySource("sequence?batch=16")
        base = _engine([1200, 3600], 2, "static", LocalExecutor()).run(source, seed=11)
        named = _engine([1200, 3600], 2, "static", ProcessExecutor()).run(
            source, seed=11
        )
        assert _rows(base) == _rows(named)
        assert base.matched_samples == named.matched_samples
        _no_orphans()


class TestFaultAbsorption:
    def test_dry_shard_budget_reabsorbed_matches_local(self):
        source = StrategySource("drying?limit=100")
        base = _engine([400, 900], 4, "elastic", LocalExecutor()).run(source, seed=3)
        pool = _engine([400, 900], 4, "elastic", _pool()).run(source, seed=3)
        assert _rows(base) == _rows(pool)
        _no_orphans()

    def test_mid_chain_crash_budget_reabsorbed(self):
        """A raising shard retires; survivors still reach the full budget,
        and the report names the casualty -- identically to LocalExecutor."""
        source = ShardedSource(
            ["crashing?at=50&batch=16", "sequence?batch=16", "sequence?batch=16"]
        )
        base = _engine([600], 3, "elastic", LocalExecutor()).run(source, seed=7)
        pool = _engine([600], 3, "elastic", _pool()).run(source, seed=7)
        assert _rows(base) == _rows(pool)
        assert base.rows[-1].guesses == 600
        assert len(pool.shard_errors) == 1
        assert pool.shard_errors[0].startswith("shard 0:")
        assert "hit its mark" in pool.shard_errors[0]
        _no_orphans()

    def test_one_corpse_one_survivor(self):
        """mode=exit kills a worker process outright; its shard's budget is
        re-absorbed by the survivors and the report says the worker died."""
        source = ShardedSource(
            [
                "crashing?at=50&mode=exit&batch=16",
                "sequence?batch=16",
                "sequence?batch=16",
            ]
        )
        report = _engine([600], 3, "elastic", _pool()).run(source, seed=7)
        assert report.rows[-1].guesses == 600
        assert len(report.shard_errors) == 1
        assert "died" in report.shard_errors[0]
        _no_orphans()

    def test_all_shards_crashing_raises(self):
        with pytest.raises(RuntimeError, match="hit its mark"):
            _engine([600], 2, "elastic", _pool()).run(
                StrategySource("crashing?at=50&batch=16"), seed=7
            )
        _no_orphans()

    def test_static_crash_reraises_original_type(self):
        with pytest.raises(RuntimeError, match="hit its mark"):
            _engine([400], 2, "static", _pool()).run(
                StrategySource("crashing?at=30&batch=16"), seed=3
            )
        _no_orphans()

    def test_static_dead_worker_raises_instead_of_hanging(self):
        with pytest.raises(RuntimeError, match="died without reporting"):
            _engine([400], 2, "static", _pool()).run(
                StrategySource("crashing?at=30&mode=exit&batch=16"), seed=3
            )
        _no_orphans()

    def test_static_surviving_worker_does_not_mask_the_death(self):
        """One healthy shard plus one corpse still fails loudly.

        Budget 401 splits into marks [201, 200]; a crash threshold of 200
        kills only shard 0's worker (shard 1 stops exactly on its mark and
        reports cleanly), so the parent sees one good outcome and one
        silent death -- and must still raise.
        """
        with pytest.raises(RuntimeError, match="shard\\(s\\) \\[0\\] died"):
            _engine([401], 2, "static", _pool()).run(
                StrategySource("crashing?at=200&mode=exit&batch=16"), seed=3
            )
        _no_orphans()

    def test_static_interrupt_mid_collection_reaps_workers(self, monkeypatch):
        """A parent raising mid-collection must not orphan its workers.

        ``_ForkServer.receive`` is the seam the collection loop reads
        results through; making it raise KeyboardInterrupt models an
        operator ^C while straggling shards are still generating.
        """
        servers = []

        def interrupted(server, timeout=1.0):
            servers.append(server)
            raise KeyboardInterrupt

        monkeypatch.setattr(_ForkServer, "receive", interrupted)
        with pytest.raises(KeyboardInterrupt):
            _engine([5000], 2, "static", _pool()).run(
                StrategySource("straggler?delay=0.05&batch=16"), seed=3
            )
        assert len(servers[0].procs) == 2  # the run really forked a fleet
        assert not any(process.is_alive() for process in servers[0].procs)
        _no_orphans()

    def test_static_dry_tail_matches_local(self):
        """Dry tails cross the pool's pipes into the same close-out row."""
        source = StrategySource("drying?limit=35&batch=16")
        base = _engine([20, 500], 2, "static", LocalExecutor()).run(source, seed=3)
        pool = _engine([20, 500], 2, "static", _pool()).run(source, seed=3)
        assert [row.guesses for row in base.rows] == [20, 70]
        assert _rows(base) == _rows(pool)
        assert base.matched_samples == pool.matched_samples
        assert base.non_matched_samples == pool.non_matched_samples
        _no_orphans()

    @pytest.mark.slow
    def test_straggler_fleet_completes(self):
        source = ShardedSource(
            ["straggler?delay=0.002&batch=16"] + ["sequence?batch=16"] * 2
        )
        report = _engine([360], 3, "elastic", _pool()).run(source, seed=7)
        assert report.rows[-1].guesses == 360
        assert report.shard_errors == []
        _no_orphans()


class TestResolveExecutor:
    def test_known_names_resolve(self):
        assert isinstance(resolve_executor("local", 2), LocalExecutor)
        assert isinstance(
            resolve_executor("worksteal", 2, "elastic"), WorkStealingExecutor
        )
        assert isinstance(resolve_executor("processpool", 2), ProcessPoolExecutor)

    def test_auto_defers_to_schedule_default(self):
        assert isinstance(resolve_executor("auto", 1), LocalExecutor)
        assert isinstance(
            resolve_executor(None, 4, "elastic"), WorkStealingExecutor
        )

    def test_auto_static_fleet_runs_on_the_pool(self):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("no fork start method on this platform")
        executor = resolve_executor("auto", 3, "static")
        assert isinstance(executor, ProcessPoolExecutor)
        assert executor.processes == 3  # one worker process per shard

    def test_auto_static_without_fork_runs_in_process(self, monkeypatch, caplog):
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        with caplog.at_level(logging.WARNING, logger="repro.runtime.parallel"):
            executor = resolve_executor("auto", 2, "static")
        assert isinstance(executor, LocalExecutor)
        assert "fork unavailable" in caplog.text

    def test_worksteal_static_is_actionable(self):
        with pytest.raises(ValueError, match="only runs elastic"):
            resolve_executor("worksteal", 2, "static")

    @pytest.mark.parametrize("name", ["threads", "process"])
    def test_unknown_name_lists_choices(self, name):
        with pytest.raises(ValueError) as excinfo:
            resolve_executor(name, 2)
        assert str(excinfo.value) == (
            f"unknown executor {name!r}; choose from "
            "auto, local, worksteal, processpool"
        )

    def test_engine_accepts_executor_names(self):
        engine = _engine([100], 2, "elastic", "processpool")
        assert isinstance(engine.executor, ProcessPoolExecutor)

    def test_fork_unavailable_is_actionable(self, monkeypatch):
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        with pytest.raises(ValueError, match="local or worksteal"):
            resolve_executor("processpool", 2, "elastic")
