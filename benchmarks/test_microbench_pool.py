"""Micro-benchmark: fork-server pool vs in-process shards on a GIL-bound attack.

The whole point of :class:`~repro.runtime.ProcessPoolExecutor` is that a
GIL-bound strategy (markov, PCFG -- pure-Python sampling loops) gets real
multi-core throughput under the elastic schedule, where
:class:`~repro.runtime.LocalExecutor` runs every shard's chunks one
after another in one process (threads would hold the same interpreter
lock, and were measured no faster than ``local``).  This bench runs the
same elastic ``markov:3`` attack at 4 workers on both executors, checks
the reports agree bit for bit (the determinism contract at bench scale),
and asserts the speedup floor from the acceptance criteria: **>= 2x**
elastic throughput over ``local``.

The full 2x bar only makes sense with the cores to back it: on throttled
CI runners or boxes with fewer than 4 cores the floor relaxes to a
sanity bar (the pool must not be pathologically slower -- fork overhead,
delta shipping and the result pipe all stay bounded), mirroring the
kernel benches' ``speedup_floor`` convention.

Measured on a 2-vCPU Xeon VM (best of two per side, three rounds, host
CPU steal 3.7-4.9%): ``local`` took 0.95-1.02 s and the pool 0.71-0.75 s
(1.33-1.37x), with identical rows.  The 2x bar at >= 4 cores has not
been measured.
"""

import os

import numpy as np
import pytest

from benchmarks.conftest import best_seconds, speedup_floor
from repro.data.alphabet import compact_alphabet
from repro.data.synthetic import SyntheticConfig, SyntheticRockYou
from repro.runtime import ParallelAttackEngine, StrategySource

WORKERS = 4
BUDGETS = [15_000, 45_000]
SPEC = "markov:3?batch=256"


@pytest.fixture(scope="module")
def attack_data():
    alphabet = compact_alphabet()
    corpus = SyntheticRockYou(
        np.random.default_rng(5), SyntheticConfig(), alphabet
    ).generate(6000)
    split = len(corpus) // 2
    return {
        "train": corpus[:split],
        "test_set": set(corpus[split:]),
        "alphabet": alphabet,
    }


def _run(attack_data, executor):
    engine = ParallelAttackEngine(
        attack_data["test_set"],
        BUDGETS,
        workers=WORKERS,
        schedule="elastic",
        executor=executor,
    )
    source = StrategySource(
        SPEC, corpus=attack_data["train"], alphabet=attack_data["alphabet"]
    )
    return engine.run(source, seed=11)


def test_pool_speedup_floor_over_local(attack_data):
    """Acceptance bar: >= 2x elastic throughput over in-process shards for
    a GIL-bound markov:3 attack at 4 workers (relaxed on CI / small boxes)."""
    try:
        local_report = _run(attack_data, "local")
        pool_report = _run(attack_data, "processpool")
    except ValueError:
        pytest.skip("no fork start method on this platform")
    # determinism before timings count: both executors must produce the
    # same report for this (seed, workers, schedule)
    rows = lambda r: [row.as_dict() for row in r.rows]  # noqa: E731
    assert rows(local_report) == rows(pool_report)
    assert local_report.matched_samples == pool_report.matched_samples

    local_time = best_seconds(lambda: _run(attack_data, "local"), repeats=2)
    pool_time = best_seconds(lambda: _run(attack_data, "processpool"), repeats=2)
    speedup = local_time / pool_time
    full = 2.0 if (os.cpu_count() or 1) >= WORKERS else 0.25
    floor = speedup_floor(full, 0.25)
    assert speedup >= floor, (
        f"processpool {pool_time:.2f}s vs local {local_time:.2f}s "
        f"= {speedup:.2f}x, below the {floor}x floor"
    )
