"""Elastic scheduling: determinism, replan invariants, fault absorption.

The load-bearing contracts, in test form:

* **elastic ≡ static for well-behaved strategies** -- a strategy whose
  guess stream depends only on instance position (the ``sequence``
  fixture) produces bit-identical reports under both schedules, for any
  seed/workers/budgets (hypothesis-checked);
* **replan marks always sum exactly to each budget** -- dead shards
  frozen, live shards absorbing, no guess ever lost or double-planned;
* **dry/straggler/crashed shards release their budget** -- the fleet
  still reaches every budget mark, with per-shard accounting totals
  showing who absorbed what, and the re-planning decisions reproduce bit
  for bit on the in-process reference and the fork-server pool.

Pool-specific faults (worker corpses, orphan cleanup) live in
``test_pool.py``.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import (
    LocalExecutor,
    ParallelAttackEngine,
    ShardPlanner,
    ShardProgress,
    ShardTask,
    StrategySource,
    chunk_quotas,
    run_elastic,
)

from runtime_fleet import ShardedSource, fork_pool

TEST_SET = {f"g{n:07d}" for n in range(0, 1200, 7)}
BUDGETS = [60, 240, 900]


def rows_of(report):
    return [(r.guesses, r.unique, r.matched, r.match_percent) for r in report.rows]


def elastic_engine(budgets, workers, executor=None, chunk_size=None):
    return ParallelAttackEngine(
        set(TEST_SET),
        budgets,
        workers=workers,
        executor=executor if executor is not None else LocalExecutor(),
        schedule="elastic",
        chunk_size=chunk_size,
    )


budgets_st = (
    st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=3, unique=True)
    .map(sorted)
)


class TestElasticEqualsStatic:
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        workers=st.integers(min_value=1, max_value=4),
        budgets=budgets_st,
    )
    @settings(max_examples=30, deadline=None)
    def test_wellbehaved_reports_identical(self, seed, workers, budgets):
        """Position-deterministic streams: schedules agree bit for bit."""
        source = StrategySource("sequence?batch=16")
        static = ParallelAttackEngine(
            set(TEST_SET), budgets, workers=workers, executor=LocalExecutor()
        ).run(source, seed=seed)
        elastic = elastic_engine(budgets, workers).run(source, seed=seed)
        assert rows_of(elastic) == rows_of(static)
        assert elastic.matched_samples == static.matched_samples
        assert elastic.non_matched_samples == static.non_matched_samples

    @given(chunk_size=st.integers(min_value=1, max_value=64))
    @settings(max_examples=20, deadline=None)
    def test_chunk_size_does_not_change_wellbehaved_reports(self, chunk_size):
        """Chunk boundaries only reseed streams; enumerators don't care."""
        source = StrategySource("sequence?batch=16")
        baseline = elastic_engine(BUDGETS, 3).run(source, seed=5)
        chunked = elastic_engine(BUDGETS, 3, chunk_size=chunk_size).run(source, seed=5)
        assert rows_of(chunked) == rows_of(baseline)


class TestReplanInvariants:
    @given(
        consumed=st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=6),
        live_seed=st.integers(min_value=0, max_value=10**6),
        extra=st.lists(st.integers(min_value=1, max_value=400), min_size=1, max_size=4, unique=True),
    )
    @settings(max_examples=60, deadline=None)
    def test_replan_marks_sum_exactly_to_each_budget(self, consumed, live_seed, extra):
        workers = len(consumed)
        rng = np.random.default_rng(live_seed)
        live = rng.random(workers) < 0.7
        if not live.any():
            live[int(rng.integers(workers))] = True
        base = sum(consumed)
        budgets = sorted(base + e for e in extra)
        planner = ShardPlanner(budgets, workers)
        plans = planner.replan(
            [
                ShardProgress(i, consumed[i], bool(live[i]))
                for i in range(workers)
            ],
            budgets,
        )
        for j, budget in enumerate(budgets):
            assert sum(plan.marks[j] for plan in plans) == budget
        for i, plan in enumerate(plans):
            assert plan.marks == sorted(plan.marks)
            if not live[i]:
                assert plan.marks == [consumed[i]] * len(budgets)
            else:
                assert all(mark >= consumed[i] for mark in plan.marks)

    def test_replan_of_untouched_fleet_matches_plan(self):
        planner = ShardPlanner([7, 100, 1234], 5)
        fresh = [ShardProgress(i, 0, True) for i in range(5)]
        assert planner.replan(fresh) == planner.plan()

    def test_replan_rejects_all_dead(self):
        planner = ShardPlanner([100], 2)
        with pytest.raises(ValueError, match="no live shards"):
            planner.replan([ShardProgress(0, 10, False), ShardProgress(1, 5, False)])

    def test_replan_rejects_overconsumed_budget(self):
        planner = ShardPlanner([100], 2)
        with pytest.raises(ValueError, match="no longer covers"):
            planner.replan(
                [ShardProgress(0, 80, True), ShardProgress(1, 40, True)], [100]
            )

    def test_replan_rejects_incomplete_roster(self):
        planner = ShardPlanner([100], 3)
        with pytest.raises(ValueError, match="exactly once"):
            planner.replan([ShardProgress(0, 0, True), ShardProgress(2, 0, True)])

    @given(
        quota=st.integers(min_value=0, max_value=5000),
        chunk=st.one_of(st.none(), st.integers(min_value=1, max_value=500)),
    )
    @settings(max_examples=60, deadline=None)
    def test_chunk_quotas_cover_exactly(self, quota, chunk):
        sizes = chunk_quotas(quota, chunk)
        assert sum(sizes) == quota
        assert all(size >= 1 for size in sizes)


class TestScheduleValidation:
    def test_unknown_schedule_rejected(self):
        with pytest.raises(ValueError, match="schedule"):
            ParallelAttackEngine(set(TEST_SET), BUDGETS, workers=2, schedule="eager")


class TestBudgetReabsorption:
    def test_dry_shard_budget_absorbed_by_live_fleet(self):
        """One shard dries at 40; the other two absorb its 260 guesses."""
        task = ShardTask(
            source=ShardedSource(
                ["drying?limit=40", "sequence?batch=16", "sequence?batch=16"]
            ),
            test_set=set(TEST_SET),
            seed=7,
        )
        planner = ShardPlanner([300], 3)
        outcomes, completed = run_elastic(task, planner, LocalExecutor())
        assert completed == 1
        totals = {o.index: o.total for o in outcomes}
        assert totals[0] == 40  # dry shard froze at its limit
        assert sum(totals.values()) == 300  # nothing lost, nothing doubled
        assert totals[1] > 100 and totals[2] > 100  # both absorbed extra

    def test_all_dry_closes_out_with_accounted_guesses(self):
        """Fleet-wide dry-out: the report says what actually ran."""
        report = elastic_engine([60, 2000], 3).run(
            StrategySource("drying?limit=100"), seed=3
        )
        assert [row.guesses for row in report.rows] == [60, 300]

    def test_dry_exactly_on_final_mark_needs_no_close_out(self):
        report = elastic_engine([300], 3).run(
            StrategySource("drying?limit=100"), seed=3
        )
        assert [row.guesses for row in report.rows] == [300]

    def test_crashed_shard_budget_requeued(self):
        """A raising strategy retires its shard; the budget survives, and
        the report names the crashed shard."""
        report = elastic_engine([600], 3).run(
            ShardedSource(
                ["crashing?at=50&batch=16", "sequence?batch=16", "sequence?batch=16"]
            ),
            seed=7,
        )
        assert report.rows[-1].guesses == 600
        assert len(report.shard_errors) == 1
        assert report.shard_errors[0].startswith("shard 0:")
        assert "hit its mark" in report.shard_errors[0]
        assert "shard_errors" in report.as_dict()

    def test_clean_runs_report_no_shard_errors(self):
        report = elastic_engine([300], 3).run(
            StrategySource("sequence?batch=16"), seed=7
        )
        assert report.shard_errors == []
        assert "shard_errors" not in report.as_dict()

    def test_all_shards_crashing_raises(self):
        with pytest.raises(RuntimeError, match="hit its mark"):
            elastic_engine([600], 2).run(
                StrategySource("crashing?at=50&batch=16"), seed=7
            )

    def test_elastic_determinism_with_faults(self):
        """Dry + replan decisions reproduce bit for bit across executors."""
        specs = ["drying?limit=40", "sequence?batch=16", "drying?limit=90"]
        first = elastic_engine([100, 400], 3).run(
            ShardedSource(specs), seed=11
        )
        second = elastic_engine([100, 400], 3, executor=fork_pool()).run(
            ShardedSource(specs), seed=11
        )
        assert rows_of(first) == rows_of(second)
        assert first.matched_samples == second.matched_samples


class TestStragglerAbsorption:
    def test_straggler_fleet_completes_quickly(self):
        """A mildly slow shard neither hangs nor skews the accounting."""
        specs = ["straggler?delay=0.002&batch=16"] + ["sequence?batch=16"] * 2
        task = ShardTask(
            source=ShardedSource(specs), test_set=set(TEST_SET), seed=7
        )
        planner = ShardPlanner([360], 3)
        outcomes, completed = run_elastic(task, planner, fork_pool())
        assert completed == 1
        assert sum(o.total for o in outcomes) == 360

    @pytest.mark.slow
    def test_straggler_stress_budget_reabsorbed(self):
        """One shard 10x slower *and* finite: the fleet re-absorbs its
        unconsumed budget, asserted via per-shard accounting totals."""
        specs = ["straggler?delay=0.02&limit=200&batch=16"] + [
            "sequence?batch=16"
        ] * 3
        task = ShardTask(
            source=ShardedSource(specs), test_set=set(TEST_SET), seed=7
        )
        planner = ShardPlanner([4000], 4)
        outcomes, completed = run_elastic(task, planner, fork_pool())
        assert completed == 1
        totals = {o.index: o.total for o in outcomes}
        assert totals[0] == 200  # the straggler dried at its limit
        assert sum(totals.values()) == 4000  # full budget accounted
        # the 800 guesses the straggler released were re-absorbed by the
        # live fleet on top of their initial 1000-guess marks
        assert all(totals[i] > 1000 for i in (1, 2, 3))


class TestScheduleMatrixSmoke:
    def test_env_selected_schedule_is_deterministic(self, corpus):
        """CI matrix entry: workers/schedule from the environment."""
        workers = int(os.environ.get("REPRO_ATTACK_WORKERS", "2"))
        schedule = os.environ.get("REPRO_ATTACK_SCHEDULE", "elastic")
        source = StrategySource("markov:3?batch=128", corpus=corpus[:1500])
        test_set = set(corpus[1500:])

        def run():
            return ParallelAttackEngine(
                test_set, [200, 800], workers=workers, schedule=schedule
            ).run(source, seed=7)

        first, second = run(), run()
        assert [row.guesses for row in first.rows] == [200, 800]
        assert rows_of(first) == rows_of(second)
        assert first.matched_samples == second.matched_samples
