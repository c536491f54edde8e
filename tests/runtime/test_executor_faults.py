"""In-process executor fault paths.

A crashing strategy must fail the same way without any fork involved,
and the in-process elastic shard host retires exactly the shard that
raised.  The process pool's fault paths (dead workers, crashes crossing
the fork, orphan cleanup) live in ``test_pool.py``.
"""

import pytest

from repro.runtime import (
    LocalExecutor,
    ParallelAttackEngine,
    ShardTask,
    StrategySource,
)
from repro.strategies.base import GuessBatch, GuessingStrategy

from runtime_fleet import ShardedSource

TEST_SET = {f"g{n:07d}" for n in range(0, 200, 5)}


class TestCrashingStrategy:
    def test_local_executor_raises_in_process(self):
        """A raising strategy fails identically without any fork involved."""
        engine = ParallelAttackEngine(
            set(TEST_SET), [400], workers=2, executor=LocalExecutor()
        )
        with pytest.raises(RuntimeError, match="hit its mark"):
            engine.run(StrategySource("crashing?at=30&batch=16"), seed=3)


class TestInProcessElasticHost:
    def test_raising_chunk_retires_only_its_shard(self):
        """Shard 0 raises in its second chunk; shard 1's chunks in the
        same round still run, and only shard 0 is reported."""
        task = ShardTask(
            source=ShardedSource(["crashing?at=30&batch=16", "sequence?batch=16"]),
            test_set=set(TEST_SET),
            seed=3,
        )
        host = LocalExecutor().elastic_host(task, 2)
        host.run_round([(0, [20, 20]), (1, [20, 20])])
        progress = host.progress()
        assert [p.live for p in progress] == [False, True]
        assert progress[1].consumed == 40
        errors = host.errors()
        assert list(errors) == [0]
        assert "hit its mark" in str(errors[0])

    def test_interrupt_inside_chunk_escapes_the_run(self):
        """Only an ``Exception`` retires a shard; an interrupt is not a
        shard crash to absorb, so it leaves the elastic run."""

        class Interrupted(GuessingStrategy):
            name = "interrupted"

            def __init__(self):
                super().__init__(spec="interrupted")

            def iter_guesses(self, rng):
                yield GuessBatch(["g0000000", "g0000001"])
                raise KeyboardInterrupt

        engine = ParallelAttackEngine(
            set(TEST_SET), [400], workers=2, schedule="elastic",
            executor=LocalExecutor(),
        )
        with pytest.raises(KeyboardInterrupt):
            engine.run(Interrupted, seed=3)
