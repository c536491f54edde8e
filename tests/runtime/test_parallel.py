"""ParallelAttackEngine: shard merging, determinism, close-out rows.

The expensive contracts are exercised with a cheap fitted Markov strategy
(rebuildable from its spec string, as worker processes require).
Executor parity lives in ``test_pool.py`` and the golden report digests.
"""

import numpy as np
import pytest

from repro.runtime import (
    LocalExecutor,
    ParallelAttackEngine,
    ShardTask,
    StrategySource,
    execute_shard,
)
from repro.runtime.planner import ShardPlanner
from repro.strategies import AttackEngine, build
from repro.utils.rng import spawn_rng

BUDGETS = [300, 1200, 3000]


@pytest.fixture(scope="module")
def attack_parts(corpus):
    train = corpus[:1500]
    test_set = set(corpus[1500:])
    source = StrategySource("markov:3?batch=128", corpus=train)
    return train, test_set, source


def rows_of(report):
    return [(r.guesses, r.unique, r.matched, r.match_percent) for r in report.rows]


class TestWorkersOne:
    def test_bit_identical_to_serial_engine(self, attack_parts):
        """One shard == the serial engine on the shard's RNG stream."""
        train, test_set, source = attack_parts
        serial = AttackEngine(test_set, BUDGETS).run(
            build("markov:3?batch=128", corpus=train), spawn_rng(7, "shard-0")
        )
        parallel = ParallelAttackEngine(
            test_set, BUDGETS, workers=1, executor=LocalExecutor()
        ).run(source, seed=7)
        assert rows_of(parallel) == rows_of(serial)
        assert parallel.matched_samples == serial.matched_samples
        assert parallel.non_matched_samples == serial.non_matched_samples
        assert parallel.test_size == serial.test_size

    def test_method_defaults_to_strategy_name(self, attack_parts):
        _, test_set, source = attack_parts
        report = ParallelAttackEngine(
            test_set, BUDGETS, workers=1, executor=LocalExecutor()
        ).run(source, seed=7)
        assert report.method == "Markov-3"  # shard strategies name the report


class TestDeterminismAndMerging:
    def test_fixed_seed_and_workers_is_deterministic(self, attack_parts):
        _, test_set, source = attack_parts
        engine = ParallelAttackEngine(
            test_set, BUDGETS, workers=3, executor=LocalExecutor()
        )
        first = engine.run(source, seed=7)
        second = engine.run(source, seed=7)
        assert rows_of(first) == rows_of(second)
        assert first.matched_samples == second.matched_samples

    def test_different_seeds_differ(self, attack_parts):
        _, test_set, source = attack_parts
        engine = ParallelAttackEngine(
            test_set, BUDGETS, workers=3, executor=LocalExecutor()
        )
        assert rows_of(engine.run(source, seed=7)) != rows_of(
            engine.run(source, seed=8)
        )

    def test_rows_cover_every_budget(self, attack_parts):
        _, test_set, source = attack_parts
        for workers in (2, 5, 700):
            report = ParallelAttackEngine(
                test_set, BUDGETS, workers=workers, executor=LocalExecutor()
            ).run(source, seed=7)
            assert [row.guesses for row in report.rows] == BUDGETS

    def test_merged_counts_match_union_of_shards(self, attack_parts):
        """The final row equals the union of independently-run shards."""
        train, test_set, source = attack_parts
        workers = 3
        plans = ShardPlanner(BUDGETS, workers).plan()
        unique, matched = set(), set()
        for plan in plans:
            from repro.core.guesser import GuessAccounting
            from repro.strategies.engine import AttackState

            accounting = GuessAccounting(set(test_set), plan.local_budgets)
            state = AttackState(accounting)
            engine = AttackEngine(set(), plan.local_budgets)
            for _ in engine.stream(
                build("markov:3?batch=128", corpus=train), plan.rng(7), state
            ):
                pass
            unique |= accounting.unique
            matched |= accounting.matched
        report = ParallelAttackEngine(
            test_set, BUDGETS, workers=workers, executor=LocalExecutor()
        ).run(source, seed=7)
        assert report.final().unique == len(unique)
        assert report.final().matched == len(matched)

    def test_outcome_arrival_order_does_not_change_the_report(self, attack_parts):
        """Outcomes merge in shard order, whatever order the executor
        hands them back in."""
        _, test_set, source = attack_parts

        class Reversed(LocalExecutor):
            def run(self, task, plans):
                return super().run(task, plans)[::-1]

        base = ParallelAttackEngine(
            test_set, BUDGETS, workers=3, executor=LocalExecutor()
        ).run(source, seed=7)
        reversed_ = ParallelAttackEngine(
            test_set, BUDGETS, workers=3, executor=Reversed()
        ).run(source, seed=7)
        assert rows_of(reversed_) == rows_of(base)
        assert reversed_.matched_samples == base.matched_samples
        assert reversed_.non_matched_samples == base.non_matched_samples


class TestPinnedBaseline:
    def test_count_baseline_is_fitted_once_per_run(self, attack_parts, monkeypatch):
        """Shards run from a copy pinned to one parent-side fit; the
        caller's source keeps no model."""
        from repro.baselines.markov import MarkovModel

        fits = []
        fit = MarkovModel.fit

        def counting_fit(self, *args, **kwargs):
            fits.append(1)
            return fit(self, *args, **kwargs)

        monkeypatch.setattr(MarkovModel, "fit", counting_fit)
        _, test_set, source = attack_parts
        report = ParallelAttackEngine(
            test_set, BUDGETS, workers=5, executor=LocalExecutor()
        ).run(source, seed=7)
        assert len(fits) == 1
        assert source.model is None
        assert [row.guesses for row in report.rows] == BUDGETS


class TestShardFailure:
    def test_worker_failure_surfaces(self, attack_parts):
        _, test_set, _ = attack_parts

        class Exploding:
            spec = "boom"

            def build(self):
                raise RuntimeError("cannot build")

        # StrategySource duck-typing: Exploding is treated as a factory
        with pytest.raises(RuntimeError):
            ParallelAttackEngine(
                test_set, [100], workers=2, executor=LocalExecutor()
            ).run(Exploding().build, seed=1)

    def test_executor_missing_an_outcome_is_an_error(self, attack_parts):
        _, test_set, source = attack_parts

        class Lossy(LocalExecutor):
            def run(self, task, plans):
                return super().run(task, plans)[1:]

        with pytest.raises(RuntimeError, match="returned 1 outcomes for 2 shards"):
            ParallelAttackEngine(
                test_set, [100], workers=2, executor=Lossy()
            ).run(source, seed=1)


class TestExecuteShard:
    def test_empty_plan_returns_empty_outcome(self, attack_parts):
        _, test_set, source = attack_parts
        plans = ShardPlanner([2], 5).plan()  # shards 2..4 get zero guesses
        task = ShardTask(source=source, test_set=test_set, seed=7)
        outcome = execute_shard(task, plans[4])
        assert outcome.total == 0 and outcome.deltas == []

    def test_outcome_reached(self, attack_parts):
        _, test_set, source = attack_parts
        plans = ShardPlanner(BUDGETS, 2).plan()
        task = ShardTask(source=source, test_set=test_set, seed=7)
        outcome = execute_shard(task, plans[0])
        assert len(outcome.window_slices) == len(BUDGETS)
        assert outcome.total == plans[0].marks[-1]

    def test_window_slices_tile_the_deltas(self, attack_parts):
        """A shard that reaches every mark has one contiguous slice per
        budget, together covering every delta it shipped."""
        _, test_set, source = attack_parts
        plans = ShardPlanner(BUDGETS, 2).plan()
        task = ShardTask(source=source, test_set=test_set, seed=7)
        outcome = execute_shard(task, plans[1])
        assert outcome.window_slices == [(0, 1), (1, 2), (2, 3)]
        assert len(outcome.deltas) == 3

    def test_equal_marks_get_an_empty_window(self):
        """A window in which the shard's mark does not move is empty."""
        plans = ShardPlanner([2, 3], 3).plan()
        assert plans[0].marks == [1, 1] and plans[2].marks == [0, 1]
        task = ShardTask(
            source=StrategySource("sequence?batch=16"), test_set={"g0000000"}, seed=7
        )
        assert execute_shard(task, plans[0]).window_slices == [(0, 1), (1, 1)]
        assert execute_shard(task, plans[2]).window_slices == [(0, 0), (0, 1)]

    def test_empty_plan_has_an_empty_slice_per_window(self, attack_parts):
        """A shard with nothing to do still counts as reaching every mark."""
        _, test_set, source = attack_parts
        plans = ShardPlanner([2, 4], 5).plan()
        assert plans[4].local_budgets == []
        task = ShardTask(source=source, test_set=test_set, seed=7)
        assert execute_shard(task, plans[4]).window_slices == [(0, 0), (0, 0)]

    def test_dry_shard_slices_reached_windows_then_ships_its_tail(self):
        """A shard that dries between marks slices only the windows it
        reached; its tail is one more delta past the last slice."""
        plans = ShardPlanner([20, 500], 2).plan()
        task = ShardTask(
            source=StrategySource("drying?limit=35&batch=16"),
            test_set={"g0000001"},
            seed=3,
        )
        outcome = execute_shard(task, plans[0])
        assert outcome.window_slices == [(0, 1)]
        assert len(outcome.deltas) == 2
        assert outcome.total == 35

    def test_finite_strategy_closes_out_with_accounted_guesses(self):
        """A dry run keeps reached budgets and closes out at the true total.

        Two shards of 40 guesses each reach the 20-guess budget but dry
        out far short of 200; the final row must report the 80 guesses
        actually accounted (including each shard's post-checkpoint tail),
        not the 200 that were merely scheduled.
        """
        from repro.strategies.base import GuessBatch, GuessingStrategy

        class Finite(GuessingStrategy):
            name = "finite"

            def __init__(self):
                super().__init__(spec="finite")

            def iter_guesses(self, rng):
                yield GuessBatch([f"x{i}" for i in range(40)])

        report = ParallelAttackEngine(
            {"x1"}, [20, 200], workers=2, executor=LocalExecutor()
        ).run(Finite, seed=3)
        assert [(row.guesses, row.unique, row.matched) for row in report.rows] == [
            (20, 10, 1),
            (80, 40, 1),
        ]

    def test_dry_exactly_on_checkpoint_gets_no_close_out_row(self):
        """No phantom row when the stream dries exactly on a reached mark."""
        from repro.strategies.base import GuessBatch, GuessingStrategy

        class TenEach(GuessingStrategy):
            name = "ten"

            def __init__(self):
                super().__init__(spec="ten")

            def iter_guesses(self, rng):
                yield GuessBatch([f"y{i}" for i in range(10)])

        report = ParallelAttackEngine(
            {"y1"}, [20, 200], workers=2, executor=LocalExecutor()
        ).run(TenEach, seed=3)
        assert [(row.guesses, row.unique) for row in report.rows] == [(20, 10)]

    def test_registry_dry_tail_closes_out(self):
        """A registry-built finite stream closes out at the 35 + 35
        guesses its two shards actually accounted."""
        source = StrategySource("drying?limit=35&batch=16")
        local = ParallelAttackEngine(
            set(f"g{n:07d}" for n in range(0, 100, 3)),
            [20, 500],
            workers=2,
            executor=LocalExecutor(),
        ).run(source, seed=3)
        assert [row.guesses for row in local.rows] == [20, 70]
