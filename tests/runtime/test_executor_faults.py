"""In-process and thread-pool executor fault paths.

A crashing strategy must fail the same way without any fork involved,
and failing elastic runs must release their work-stealing threads.  The
process pool's fault paths (dead workers, crashes crossing the fork,
orphan cleanup) live in ``test_pool.py``.
"""

import threading
import time

import pytest

from repro.runtime import (
    LocalExecutor,
    ParallelAttackEngine,
    StrategySource,
    WorkStealingExecutor,
)

TEST_SET = {f"g{n:07d}" for n in range(0, 200, 5)}


class TestCrashingStrategy:
    def test_local_executor_raises_in_process(self):
        """A raising strategy fails identically without any fork involved."""
        engine = ParallelAttackEngine(
            set(TEST_SET), [400], workers=2, executor=LocalExecutor()
        )
        with pytest.raises(RuntimeError, match="hit its mark"):
            engine.run(StrategySource("crashing?at=30&batch=16"), seed=3)


class TestThreadPoolRelease:
    def test_no_thread_growth_across_repeated_failing_runs(self):
        """Regression: failing elastic runs must release their pools."""
        baseline = threading.active_count()
        for _ in range(3):
            engine = ParallelAttackEngine(
                set(TEST_SET),
                [400],
                workers=2,
                schedule="elastic",
                executor="worksteal",
            )
            with pytest.raises(RuntimeError, match="hit its mark"):
                engine.run(StrategySource("crashing?at=30&batch=16"), seed=3)
        deadline = time.monotonic() + 5.0
        while threading.active_count() > baseline and time.monotonic() < deadline:
            time.sleep(0.05)
        assert threading.active_count() <= baseline

    def test_interrupt_inside_chunk_does_not_strand_siblings(self):
        """Regression: a BaseException escaping one pull worker used to
        leave its siblings waiting on the condition forever, turning
        ``shutdown(wait=True)`` into a deadlock."""
        pool = WorkStealingExecutor(2)

        def boom():
            raise KeyboardInterrupt

        def idle():
            time.sleep(0.01)

        try:
            with pytest.raises(BaseException):
                pool.run_chains([[boom], [idle, idle, idle]])
        finally:
            finished = threading.Event()

            def close():
                pool.shutdown()
                finished.set()

            closer = threading.Thread(target=close, daemon=True)
            closer.start()
            assert finished.wait(timeout=10.0), "shutdown deadlocked"
