"""ProcessPoolExecutor: fork-server lifecycle, parity, and fault absorption.

The pool's contract has three legs, each exercised here:

* **Parity** -- for a fixed ``(seed, workers, schedule)`` its merged
  reports match :class:`~repro.runtime.LocalExecutor` bit for bit,
  because chunk contents are fixed by named RNG streams and shard state
  is process-sticky.
* **Fault absorption** -- the conftest fault families (``drying``,
  ``crashing`` in both flavors, ``straggler``) drive the same
  budget-re-absorption semantics the in-process hosts implement: a dry
  or crashed shard releases its unconsumed budget to the live fleet, a
  worker corpse retires its shard without hanging the run, and the
  report's ``shard_errors`` names exactly the casualties.
* **Cleanup** -- no child processes survive a run, clean or failing.
* **Fork safety** -- a parent whose couplings already ran on the kernel
  helper thread forks workers that run them sequentially, finish, and
  report what :class:`~repro.runtime.LocalExecutor` reports.

``multiprocessing.active_children()`` is the orphan oracle: it reaps and
lists every live child of this process, so an empty list after a run
means the fork server really tore its fleet down.
"""

import logging
import multiprocessing
import os
import signal
import struct
import subprocess
import sys
import threading
import time
from multiprocessing.connection import Connection
from pathlib import Path

import numpy as np
import pytest

from repro import kernels
from repro.core.model import PassFlow, PassFlowConfig
from repro.kernels import numpy_backend
from repro.runtime import (
    LocalExecutor,
    ParallelAttackEngine,
    ProcessPoolExecutor,
    StrategySource,
    resolve_executor,
)
from repro.runtime.executor import ProcessExecutor
from repro.runtime.pool import _ForkServer
from repro.strategies.registry import SpecError, build

from runtime_fleet import ShardedSource, fork_pool

TEST_SET = {f"g{n:07d}" for n in range(0, 8000, 7)}
SRC = Path(__file__).resolve().parents[2] / "src"


def _no_orphans():
    for child in multiprocessing.active_children():
        child.join(timeout=5.0)
    assert multiprocessing.active_children() == []


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
        pool = _engine([1200, 3600], workers, schedule, fork_pool()).run(source, seed=11)
        assert _rows(base) == _rows(pool)
        assert base.matched_samples == pool.matched_samples
        assert base.non_matched_samples == pool.non_matched_samples
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


def _within(seconds, fn):
    """``fn()``, failing instead of hanging when it takes over ``seconds``."""
    box = {}

    def run():
        try:
            box["value"] = fn()
        except BaseException as exc:  # re-raised below
            box["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still running after {seconds} s"
    if "error" in box:
        raise box["error"]
    return box["value"]


class TestPassFlowForkSafety:
    """PassFlow on the pool after the parent used the coupling split."""

    @pytest.fixture(scope="class")
    def passflow(self):
        model = PassFlow(PassFlowConfig.tiny(seed=8))
        rng = np.random.default_rng(8)
        for param in model.flow.parameters():
            param.data[...] = rng.normal(size=param.data.shape) * 0.1
        model.flow.eval()
        # guesses the model itself makes, so some are matched
        test_set = set(model.sample_passwords(4000, rng=np.random.default_rng(9)))
        return model, test_set

    @pytest.mark.parametrize("schedule", ["static", "elastic"])
    def test_pool_forked_after_the_split_matches_local(
        self, passflow, schedule, monkeypatch
    ):
        model, test_set = passflow
        monkeypatch.setattr(numpy_backend, "_split", True)
        source = StrategySource("passflow:static?batch=512", model=model)

        def attack(executor):
            engine = ParallelAttackEngine(
                set(test_set), [2048, 6144], workers=2, schedule=schedule,
                executor=executor,
            )
            return engine.run(source, seed=5)

        with kernels.use_backend("numpy"):
            # the parent's helper thread exists (and has worked) before the fork
            model.flow.decode(np.zeros((2 * numpy_backend.SPLIT_ROWS, model.flow.dim)))
            assert numpy_backend._helper is not None
            base = attack(LocalExecutor())
            pool = _within(60.0, lambda: attack(fork_pool()))
        assert _rows(base) == _rows(pool)
        assert base.matched_samples == pool.matched_samples
        assert base.non_matched_samples == pool.non_matched_samples
        assert base.final().matched > 0
        _no_orphans()

    def test_forked_child_drops_the_helper(self, monkeypatch):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("no fork start method on this platform")
        monkeypatch.setattr(numpy_backend, "_split", True)
        numpy_backend._get_helper()
        context = multiprocessing.get_context("fork")
        reader, writer = context.Pipe(duplex=False)
        child = context.Process(
            target=lambda: writer.send((numpy_backend._split, numpy_backend._helper))
        )
        child.start()
        assert reader.poll(60.0)
        assert reader.recv() == (False, None)
        child.join(10.0)
        _no_orphans()


class TestFaultAbsorption:
    def test_dry_shard_budget_reabsorbed_matches_local(self):
        source = StrategySource("drying?limit=100")
        base = _engine([400, 900], 4, "elastic", LocalExecutor()).run(source, seed=3)
        pool = _engine([400, 900], 4, "elastic", fork_pool()).run(source, seed=3)
        assert _rows(base) == _rows(pool)
        _no_orphans()

    def test_mid_chain_crash_budget_reabsorbed(self):
        """A raising shard retires; survivors still reach the full budget,
        and the report names the casualty -- identically to LocalExecutor."""
        source = ShardedSource(
            ["crashing?at=50&batch=16", "sequence?batch=16", "sequence?batch=16"]
        )
        base = _engine([600], 3, "elastic", LocalExecutor()).run(source, seed=7)
        pool = _engine([600], 3, "elastic", fork_pool()).run(source, seed=7)
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
        report = _engine([600], 3, "elastic", fork_pool()).run(source, seed=7)
        assert report.rows[-1].guesses == 600
        assert len(report.shard_errors) == 1
        assert "died" in report.shard_errors[0]
        _no_orphans()

    def test_all_shards_crashing_raises(self):
        with pytest.raises(RuntimeError, match="hit its mark"):
            _engine([600], 2, "elastic", fork_pool()).run(
                StrategySource("crashing?at=50&batch=16"), seed=7
            )
        _no_orphans()

    def test_repeated_failing_default_elastic_runs_release_their_fleet(self):
        """Elastic fleets default to the pool; a failing run must stop
        its workers and leave no parent thread behind, run after run."""
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("no fork start method on this platform")
        baseline = threading.active_count()
        for _ in range(3):
            engine = _engine([400], 2, "elastic", None)
            assert isinstance(engine.executor, ProcessPoolExecutor)
            with pytest.raises(RuntimeError, match="hit its mark"):
                engine.run(StrategySource("crashing?at=30&batch=16"), seed=3)
            _no_orphans()
        assert threading.active_count() <= baseline

    def test_static_crash_reraises_original_type(self):
        with pytest.raises(RuntimeError, match="hit its mark"):
            _engine([400], 2, "static", fork_pool()).run(
                StrategySource("crashing?at=30&batch=16"), seed=3
            )
        _no_orphans()

    def test_static_dead_worker_raises_instead_of_hanging(self):
        with pytest.raises(RuntimeError, match="died without reporting"):
            _engine([400], 2, "static", fork_pool()).run(
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
            _engine([401], 2, "static", fork_pool()).run(
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
            _engine([5000], 2, "static", fork_pool()).run(
                StrategySource("straggler?delay=0.05&batch=16"), seed=3
            )
        assert len(servers[0].procs) == 2  # the run really forked a fleet
        assert not any(process.is_alive() for process in servers[0].procs)
        _no_orphans()

    def test_static_dry_tail_matches_local(self):
        """Dry tails cross the pool's pipes into the same close-out row."""
        source = StrategySource("drying?limit=35&batch=16")
        base = _engine([20, 500], 2, "static", LocalExecutor()).run(source, seed=3)
        pool = _engine([20, 500], 2, "static", fork_pool()).run(source, seed=3)
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
        report = _engine([360], 3, "elastic", fork_pool()).run(source, seed=7)
        assert report.rows[-1].guesses == 360
        assert report.shard_errors == []
        _no_orphans()


#: set in the one worker process whose next reply is cut off mid-frame
_dying = []


class _DiesMidReply:
    """Shard 0's worker writes part of a reply frame, then SIGKILLs itself."""

    def for_shard(self, index):
        if index == 0:
            _dying.append(index)
        return build("sequence?batch=16")


def _send_or_die(connection, obj, _send=Connection.send):
    if _dying:
        header = struct.pack("!i", 1 << 20)  # promises a 1 MiB frame
        os.write(connection.fileno(), header + b"a partial reply")
        os.kill(os.getpid(), signal.SIGKILL)
    _send(connection, obj)


def _children(pid):
    """The live child PIDs of ``pid``'s main thread (Linux ``/proc``)."""
    path = Path(f"/proc/{pid}/task/{pid}/children")
    return [int(child) for child in path.read_text().split()] if path.exists() else []


def _running(pid):
    """Whether ``pid`` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


class TestWorkerDeath:
    """Workers that die without a word: each death is an EOF on its pipe."""

    def test_sigkilled_worker_fails_the_static_run(self):
        with pytest.raises(RuntimeError, match="shard\\(s\\) \\[0\\] died"):
            _engine([401], 2, "static", fork_pool()).run(
                StrategySource("crashing?at=200&mode=kill&batch=16"), seed=3
            )
        _no_orphans()

    def test_sigkilled_worker_retires_its_elastic_shard(self):
        source = ShardedSource(
            ["crashing?at=50&mode=kill&batch=16", "sequence?batch=16", "sequence?batch=16"]
        )
        report = _engine([600], 3, "elastic", fork_pool()).run(source, seed=7)
        assert report.rows[-1].guesses == 600
        assert len(report.shard_errors) == 1
        assert report.shard_errors[0].startswith("shard 0:")
        assert "died" in report.shard_errors[0]
        _no_orphans()

    def test_worker_dying_mid_reply_frame_does_not_hang(self, monkeypatch):
        """A truncated frame is the end of that worker's pipe, not a wedge."""
        executor = fork_pool()
        monkeypatch.setattr(Connection, "send", _send_or_die)  # inherited by the fork
        report = _within(
            60.0, lambda: _engine([600], 2, "elastic", executor).run(_DiesMidReply(), seed=7)
        )
        assert report.rows[-1].guesses == 600
        assert len(report.shard_errors) == 1
        assert report.shard_errors[0].startswith("shard 0:")
        assert "died" in report.shard_errors[0]
        _no_orphans()

    @pytest.mark.parametrize("pool", [False, True], ids=["local", "processpool"])
    def test_strategy_failing_to_build_raises_spec_error(self, pool):
        executor = fork_pool() if pool else LocalExecutor()
        with pytest.raises(SpecError, match="unknown strategy family 'nosuch'"):
            _engine([400], 2, "elastic", executor).run(
                StrategySource("nosuch?batch=16"), seed=3
            )
        _no_orphans()

    def test_strategy_failing_to_build_crashes_only_its_shard(self):
        """A shard whose strategy fails to build is that shard's crash on
        both executors: the fleet absorbs its budget and names it."""
        source = ShardedSource(["sequence?batch=16", "nosuch?batch=16"])
        local, pooled = (
            _engine([400], 2, "elastic", executor).run(source, seed=3)
            for executor in (LocalExecutor(), fork_pool())
        )
        for report in (local, pooled):
            assert report.rows[-1].guesses == 400
            assert len(report.shard_errors) == 1
            assert report.shard_errors[0].startswith("shard 1:")
            assert "unknown strategy family 'nosuch'" in report.shard_errors[0]
        assert pooled.shard_errors == local.shard_errors
        assert _rows(pooled) == _rows(local)
        _no_orphans()

    def test_killed_attack_leaves_no_pool_worker(self, tmp_path, corpus):
        """``kill -9`` of an attacking parent: its workers see EOF/EPIPE and exit."""
        if not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists():
            pytest.skip("needs Linux /proc child lists")
        corpus_file = tmp_path / "corpus.txt"
        corpus_file.write_text("\n".join(corpus[:2000]) + "\n")
        attack = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "attack", "--corpus", str(corpus_file),
                "--strategy", "markov:3", "--budgets", "1000000,2000000",
                "--workers", "2", "--schedule", "elastic",
            ],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        workers = []
        try:
            while len(workers) < 2 and attack.poll() is None:
                time.sleep(0.02)
                workers = _children(attack.pid)
            assert len(workers) == 2, "the attack never forked its two workers"
        finally:
            attack.kill()
            attack.wait()
        try:
            deadline = time.monotonic() + 10.0
            while any(_running(pid) for pid in workers) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert [pid for pid in workers if _running(pid)] == []
        finally:
            for pid in workers:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)
        _no_orphans()


class TestResolveExecutor:
    def test_known_names_resolve(self):
        assert isinstance(resolve_executor("local", 2), LocalExecutor)
        assert isinstance(resolve_executor("processpool", 2), ProcessPoolExecutor)

    def test_auto_single_worker_runs_in_process(self):
        assert isinstance(resolve_executor("auto", 1), LocalExecutor)
        assert isinstance(_engine([100], 1, "elastic", None).executor, LocalExecutor)

    def test_auto_static_fleet_runs_on_the_pool(self):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("no fork start method on this platform")
        assert isinstance(resolve_executor("auto", 3), ProcessPoolExecutor)

    def test_auto_static_without_fork_runs_in_process(self, monkeypatch, caplog):
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        with caplog.at_level(logging.WARNING, logger="repro.runtime.parallel"):
            executor = resolve_executor("auto", 2)
        assert isinstance(executor, LocalExecutor)
        assert "fork unavailable" in caplog.text

    def test_auto_elastic_fleet_runs_on_the_pool(self):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("no fork start method on this platform")
        executor = _engine([100], 2, "elastic", None).executor
        assert isinstance(executor, ProcessPoolExecutor)

    def test_auto_elastic_without_fork_runs_in_process(self, monkeypatch, caplog):
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        with caplog.at_level(logging.WARNING, logger="repro.runtime.parallel"):
            executor = _engine([100], 2, "elastic", None).executor
        assert isinstance(executor, LocalExecutor)
        assert "fork unavailable" in caplog.text

    @pytest.mark.parametrize("name", ["threads", "process", "worksteal"])
    def test_unknown_name_lists_choices(self, name):
        with pytest.raises(ValueError) as excinfo:
            resolve_executor(name, 2)
        assert str(excinfo.value) == (
            f"unknown executor {name!r}; choose from auto, local, processpool"
        )

    def test_engine_accepts_executor_names(self):
        engine = _engine([100], 2, "elastic", "processpool")
        assert isinstance(engine.executor, ProcessPoolExecutor)

    def test_fork_unavailable_is_actionable(self, monkeypatch):
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        with pytest.raises(ValueError, match="use --executor local$"):
            resolve_executor("processpool", 2)
