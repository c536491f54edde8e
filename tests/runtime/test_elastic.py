"""Elastic scheduling: determinism, replan invariants, fault absorption.

The load-bearing contracts, in test form:

* **elastic ≡ static for well-behaved strategies** -- a strategy whose
  guess stream depends only on instance position (the ``sequence``
  fixture) produces bit-identical reports under both schedules, for any
  seed/workers/budgets (hypothesis-checked);
* **re-planned totals always sum exactly to the budget** -- dead shards
  frozen, live shards absorbing, no guess ever lost or double-planned;
* **dry/straggler/crashed shards release their budget** -- the fleet
  still reaches every budget mark, with per-shard accounting totals
  showing who absorbed what, and the re-planning decisions reproduce bit
  for bit on the in-process reference and the fork-server pool.

Pool-specific faults (worker corpses, orphan cleanup) live in
``test_pool.py``.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import (
    LocalExecutor,
    ParallelAttackEngine,
    ShardPlanner,
    ShardTask,
    StrategySource,
    balanced_totals,
    chunk_quotas,
    run_elastic,
    split_budget,
)
from repro.runtime.elastic import DEFAULT_CHUNKS_PER_ROUND

from runtime_fleet import ShardedSource, fork_pool

TEST_SET = {f"g{n:07d}" for n in range(0, 1200, 7)}
BUDGETS = [60, 240, 900]


def rows_of(report):
    return [(r.guesses, r.unique, r.matched, r.match_percent) for r in report.rows]


def elastic_engine(budgets, workers, executor=None):
    return ParallelAttackEngine(
        set(TEST_SET),
        budgets,
        workers=workers,
        executor=executor if executor is not None else LocalExecutor(),
        schedule="elastic",
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


class TestReplanInvariants:
    """``balanced_totals``, the one quota rule of every elastic round."""

    @given(
        consumed=st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=6),
        extra=st.integers(min_value=0, max_value=400),
    )
    @settings(max_examples=60, deadline=None)
    def test_totals_sum_to_target_and_never_fall(self, consumed, extra):
        target = sum(consumed) + extra
        totals = balanced_totals(consumed, target)
        assert sum(totals) == target
        assert all(total >= start for total, start in zip(totals, consumed))

    @given(
        consumed=st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=6),
        extra=st.integers(min_value=1, max_value=400),
    )
    @settings(max_examples=60, deadline=None)
    def test_remainder_goes_to_low_ranks(self, consumed, extra):
        """Raised totals sit on one water line, the extra unit on the lowest ranks."""
        totals = balanced_totals(consumed, sum(consumed) + extra)
        raised = [total for total, start in zip(totals, consumed) if total > start]
        assert raised == sorted(raised, reverse=True)
        assert max(raised) - min(raised) <= 1

    def test_remainder_example(self):
        assert balanced_totals([0, 5, 0], 8) == [2, 5, 1]

    @given(
        start=st.integers(min_value=0, max_value=50),
        workers=st.integers(min_value=1, max_value=8),
        extra=st.integers(min_value=0, max_value=400),
    )
    @settings(max_examples=60, deadline=None)
    def test_equal_starts_give_split_budget(self, start, workers, extra):
        totals = balanced_totals([start] * workers, start * workers + extra)
        assert totals == [start + split_budget(extra, workers, i) for i in range(workers)]

    @given(
        budgets=st.lists(
            st.integers(min_value=1, max_value=2000), min_size=2, max_size=2, unique=True
        ).map(sorted),
        workers=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_static_marks_lead_to_next_marks(self, budgets, workers):
        """From one budget's static marks the rule gives the next budget's."""
        first, second = budgets
        marks = [split_budget(first, workers, i) for i in range(workers)]
        assert balanced_totals(marks, second) == [
            split_budget(second, workers, i) for i in range(workers)
        ]

    def test_rejects_target_below_consumed(self):
        with pytest.raises(ValueError, match="below"):
            balanced_totals([80, 40], 100)

    def test_rejects_positive_target_over_zero_shards(self):
        with pytest.raises(ValueError, match="zero shards"):
            balanced_totals([], 5)
        assert balanced_totals([], 0) == []

    @given(quota=st.integers(min_value=0, max_value=5000))
    @settings(max_examples=60, deadline=None)
    def test_chunk_quotas_cover_exactly(self, quota):
        sizes = chunk_quotas(quota)
        assert sum(sizes) == quota
        assert all(size >= 1 for size in sizes)
        assert len(sizes) <= DEFAULT_CHUNKS_PER_ROUND


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
