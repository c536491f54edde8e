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
        assert outcome.reached(plans[0].marks[-1])
        assert outcome.total == plans[0].marks[-1]

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
