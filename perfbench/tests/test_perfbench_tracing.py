"""Span recording and the self-time arithmetic behind the per-layer split."""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import tracing  # noqa: E402
from tracing import Span  # noqa: E402


def span(id, parent, name, start, end, count=0, pid=1):
    return Span(pid, id, parent, name, start, end, count)


def test_self_time_subtracts_direct_children_only():
    spans = [
        span(0, -1, "strategies.engine_run", 0.0, 10.0),
        span(1, 0, "flows.decode", 1.0, 5.0),
        span(2, 1, "kernels.mlp_forward", 1.5, 4.0),  # grandchild of the engine
        span(3, 0, "core.observe", 6.0, 7.0),
        span(4, 3, "data.pack", 6.2, 6.4),
    ]
    own = tracing.self_times(spans)
    assert own[(1, 0)] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[(1, 1)] == pytest.approx(4.0 - 2.5)
    assert own[(1, 2)] == pytest.approx(2.5)
    assert own[(1, 3)] == pytest.approx(0.8)
    # self times partition the root span
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_keeps_processes_apart():
    # the same span id in two processes must not be confused
    spans = [
        span(0, -1, "runtime.shard", 0.0, 4.0, pid=10),
        span(1, 0, "baselines.markov_sample", 0.0, 3.0, pid=10),
        span(0, -1, "runtime.shard", 0.0, 2.0, pid=11),
    ]
    own = tracing.self_times(spans)
    assert own[(10, 0)] == pytest.approx(1.0)
    assert own[(11, 0)] == pytest.approx(2.0)


def test_layer_metrics_sum_self_time_per_layer():
    spans = [
        span(0, -1, "strategies.engine_run", 0.0, 10.0),
        span(1, 0, "kernels.coupling", 1.0, 2.0),
        span(2, 0, "kernels.coupling", 3.0, 3.5),
        span(3, 0, "strategies.feedback", 4.0, 4.25),
    ]
    metrics = tracing.layer_metrics(spans)
    assert metrics["kernels.coupling_s"] == pytest.approx(1.5)
    assert metrics["strategies.feedback_s"] == pytest.approx(0.25)
    assert metrics["strategies.engine_other_s"] == pytest.approx(8.25)
    assert metrics["flows.decode_s"] == 0.0
    assert metrics["runtime.shard_busy_s"] == 0.0


def test_runtime_split_from_parent_and_shard_spans():
    spans = [
        span(0, -1, "runtime.engine_run", 0.0, 10.0, pid=1),
        span(1, 0, "runtime.execute", 0.5, 9.0, pid=1),
        # shard 0 runs in two chunks in one worker, shard 1 in another
        span(0, -1, "runtime.shard", 1.0, 4.0, count=0, pid=2),
        span(1, -1, "runtime.shard", 4.0, 7.0, count=0, pid=2),
        span(0, -1, "runtime.shard", 2.0, 5.0, count=1, pid=3),
    ]
    metrics = tracing.runtime_metrics(spans, workers=2)
    assert metrics["runtime.startup_s"] == pytest.approx(1.0)
    assert metrics["runtime.shard_busy_s"] == pytest.approx(9.0)
    assert metrics["runtime.shard_skew"] == pytest.approx(6.0 / 4.5)
    assert metrics["runtime.idle_frac"] == pytest.approx(1.0 - 9.0 / 20.0)
    assert metrics["runtime.merge_s"] == pytest.approx(10.0 - 8.5)


def test_evaluated_rows_pad_every_call_to_whole_chunks():
    spans = [
        span(0, -1, "core.evaluate_batch", 0, 1, count=10),
        span(1, -1, "core.evaluate_batch", 1, 2, count=64),
        span(2, -1, "core.evaluate_batch", 2, 3, count=65),
    ]
    assert tracing.evaluated_rows(spans, 64) == (139, 64 + 64 + 128)


def test_engine_window_is_the_outermost_attack_span():
    spans = [
        span(0, -1, "runtime.engine_run", 2.0, 9.0),
        span(1, 0, "runtime.shard", 3.0, 8.0),
    ]
    window = tracing.engine_window(spans)
    assert (window.start, window.end) == (2.0, 9.0)
    assert tracing.engine_window([span(0, -1, "core.observe", 0, 1)]) is None


class _Toy:
    def outer(self, inner):
        return inner()

    def inner(self):
        return 7


def test_recorder_links_nested_calls_and_round_trips_through_files(tmp_path, monkeypatch):
    recorder = tracing.SpanRecorder(tmp_path)
    module = type(sys)("perfbench_toy")
    module.Toy = _Toy
    monkeypatch.setitem(sys.modules, "perfbench_toy", module)
    targets = (
        tracing.Target("toy.outer", "perfbench_toy", "Toy.outer"),
        tracing.Target("toy.inner", "perfbench_toy", "Toy.inner"),
        tracing.Target("toy.gone", "perfbench_toy", "Toy.absent"),
    )
    original = (_Toy.outer, _Toy.inner)
    try:
        missing = tracing.install(recorder, targets)
        toy = _Toy()
        assert toy.outer(toy.inner) == 7
    finally:
        _Toy.outer, _Toy.inner = original
    assert missing == ["perfbench_toy.Toy.absent"]
    recorder.flush()
    spans = tracing.load_spans(tmp_path)
    by_name = {s.name: s for s in spans}
    assert by_name["toy.inner"].parent == by_name["toy.outer"].id
    assert by_name["toy.outer"].parent == -1
    assert all(s.pid == os.getpid() for s in spans)
    assert by_name["toy.outer"].start <= by_name["toy.inner"].start
    assert by_name["toy.inner"].end <= by_name["toy.outer"].end


def test_every_target_exists_in_the_program():
    """A renamed layer function must be noticed, not silently read as 0."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    for target in tracing.TARGETS:
        module = tracing.resolve_module(target.module)
        owner_name, _, attr = target.attribute.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        assert callable(getattr(owner, attr, None)), target
