"""Spans around the calls into each layer, and the per-layer split they give.

The benchmark measures the program from the outside: :func:`install`
replaces a fixed list of public functions and methods (``TARGETS``) with
wrappers that record one span per call -- name, start, end, the span that
was open when it began (its parent), and an optional count.  Spans stay in
memory and are appended to ``spans-<pid>.jsonl`` in the span directory by
:meth:`SpanRecorder.flush`: at the end of the launched command, and in
forked shard workers when their shard work ends (before the parent can
reap them).

A layer's *self time* is its span's duration minus the durations of its
direct child spans; :func:`layer_metrics` sums self time per layer, which
partitions the traced time without double counting nested calls.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence

#: span name -> per-layer metric its self time is summed into
SELF_TIME_METRICS = {
    "baselines.markov_sample": "baselines.markov_sample_s",
    "core.sample_latents": "core.sample_latents_s",
    "flows.decode": "flows.decode_s",
    "kernels.mlp_forward": "kernels.mlp_forward_s",
    "kernels.coupling": "kernels.coupling_s",
    "core.smooth": "core.smooth_s",
    "data.to_indices": "data.to_indices_s",
    "data.pack": "data.pack_s",
    "core.observe": "core.observe_s",
    "strategies.feedback": "strategies.feedback_s",
    "strategies.engine_run": "strategies.engine_other_s",
    "flows.nll": "flows.nll_s",
    "autograd.backward": "autograd.backward_s",
    "nn.optim_step": "nn.optim_step_s",
    "core.evaluate_batch": "core.evaluate_batch_s",
    "bank.lookup": "bank.lookup_s",
}

#: spans that bound one attack (serial engine or sharded runtime)
ENGINE_SPANS = ("strategies.engine_run", "runtime.engine_run")


def _shard_index(args, kwargs) -> int:
    """Shard index of ``execute_shard(task, plan)``."""
    plan = args[1] if len(args) > 1 else kwargs["plan"]
    return int(plan.index)


def _chunk_shard(args, kwargs) -> int:
    """Shard index of ``_ShardRun.run_chunk(self, quota)``."""
    return int(args[0].index)


def _password_count(args, kwargs) -> int:
    """Passwords in ``evaluate_batch(self, passwords, ...)``."""
    passwords = args[1] if len(args) > 1 else kwargs["passwords"]
    return len(passwords)


#: ``Target.module`` of the kernel entry points: whichever backend module
#: ``repro.kernels.active()`` resolves to in the launched command
ACTIVE_KERNELS = "<active kernels backend>"


def resolve_module(name: str):
    """The module a target lives in (the active kernel backend for
    :data:`ACTIVE_KERNELS`)."""
    if name == ACTIVE_KERNELS:
        return importlib.import_module("repro.kernels").active()
    return importlib.import_module(name)


class Target(NamedTuple):
    """One call to time: ``attribute`` of the object at ``module``."""

    span: str
    module: str
    attribute: str  # "func" or "Class.method"
    count: Optional[Callable] = None
    flush_in_child: bool = False  # forked worker entry: write spans after it


#: The engine boundaries: the only wrappers an untraced run installs, so
#: it can tell set-up time from attack time at a cost of two clock reads
#: per attack.
ENGINE_TARGETS = (
    Target("strategies.engine_run", "repro.strategies.engine", "AttackEngine.run"),
    Target("runtime.engine_run", "repro.runtime.parallel", "ParallelAttackEngine.run"),
)

TARGETS = ENGINE_TARGETS + (
    Target("baselines.markov_sample", "repro.baselines.markov", "MarkovModel.sample_passwords"),
    Target("core.sample_latents", "repro.core.model", "PassFlow.sample_latents"),
    Target("flows.decode", "repro.core.model", "PassFlow.decode_latents_to_features"),
    Target("kernels.mlp_forward", ACTIVE_KERNELS, "mlp_forward"),
    Target("kernels.coupling", ACTIVE_KERNELS, "coupling_forward"),
    Target("kernels.coupling", ACTIVE_KERNELS, "coupling_inverse"),
    Target("core.smooth", "repro.core.smoothing", "GaussianSmoother.smooth"),
    Target("data.to_indices", "repro.data.encoding", "PasswordEncoder.floats_to_indices"),
    Target("data.to_indices", "repro.data.encoding", "PasswordEncoder.decode_batch"),
    Target("data.pack", "repro.data.encoding", "PasswordEncoder.pack_indices"),
    Target("data.pack", "repro.data.encoding", "PasswordEncoder.pack_passwords"),
    Target("core.observe", "repro.core.guesser", "GuessAccounting.observe"),
    Target("core.observe", "repro.core.guesser", "GuessAccounting.observe_encoded"),
    Target("flows.nll", "repro.flows.flow", "Flow.nll"),
    Target("autograd.backward", "repro.autograd.tensor", "Tensor.backward"),
    Target("nn.optim_step", "repro.nn.optim.adam", "Adam.step"),
    Target("core.evaluate_batch", "repro.core.strength", "StrengthEstimator.evaluate_batch",
           count=_password_count),
    Target("bank.lookup", "repro.bank.artifact", "GuessBank.rank_of"),
    # runtime: the executor call inside ParallelAttackEngine.run, and the
    # shard-side work (in forked workers these are top-level spans)
    Target("runtime.execute", "repro.runtime.parallel", "run_elastic"),
    Target("runtime.execute", "repro.runtime.executor", "LocalExecutor.run"),
    Target("runtime.execute", "repro.runtime.executor", "ProcessExecutor.run"),
    Target("runtime.execute", "repro.runtime.pool", "ProcessPoolExecutor.run"),
    Target("runtime.shard", "repro.runtime.executor", "execute_shard",
           count=_shard_index, flush_in_child=True),
    Target("runtime.shard", "repro.runtime.pool", "execute_shard",
           count=_shard_index, flush_in_child=True),
    Target("runtime.shard", "repro.runtime.elastic", "_ShardRun.run_chunk",
           count=_chunk_shard),
    Target("runtime.worker", "repro.runtime.pool", "_pool_worker", flush_in_child=True),
)


class Span(NamedTuple):
    pid: int
    id: int
    parent: int  # -1 for a top-level span of its thread
    name: str
    start: float
    end: float
    count: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans in memory; one recorder per launched command.

    Each thread keeps its own stack of open spans, so spans from the
    daemon's connection and batcher threads nest correctly.  After a
    fork the child starts with an empty buffer and empty stacks: the
    parent's spans are the parent's to write.
    """

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.root_pid = os.getpid()
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._ids = itertools.count()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, target: Target, func: Callable) -> Callable:
        """``func`` with a span recorded around every call."""
        recorder = self
        name, count, flush = target.span, target.count, target.flush_in_child

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            parent = stack[-1] if stack else -1
            span_id = next(recorder._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans.append(
                    Span(os.getpid(), span_id, parent, name, start, end,
                         count(args, kwargs) if count else 0)
                )
                if flush and os.getpid() != recorder.root_pid:
                    recorder.flush()

        return traced

    def flush(self) -> None:
        """Append the buffered spans to this process's file and clear them."""
        spans, self.spans = self.spans, []
        if not spans:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{os.getpid()}.jsonl"
        with path.open("a") as handle:
            for span in spans:
                handle.write(json.dumps(list(span)) + "\n")


def install(recorder: SpanRecorder, targets: Sequence[Target]) -> List[str]:
    """Wrap every target in place; returns the targets that do not exist.

    A missing target (renamed or removed by a later change) is skipped,
    not fatal: its metric then reads 0 and the caller reports the name.
    """
    missing = []
    for target in targets:
        try:
            module = resolve_module(target.module)
        except (ImportError, ValueError):  # ValueError: a bad REPRO_KERNELS
            missing.append(f"{target.module}.{target.attribute}")
            continue
        owner_name, _, attr = target.attribute.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        func = getattr(owner, attr, None) if owner is not None else None
        if func is None or not callable(func):
            missing.append(f"{target.module}.{target.attribute}")
            continue
        setattr(owner, attr, recorder.wrap(target, func))
    return missing


def install_feedback(recorder: SpanRecorder) -> None:
    """Wrap ``on_matches`` on every strategy class that defines one."""
    importlib.import_module("repro.strategies")
    importlib.import_module("repro.scenarios")
    base = importlib.import_module("repro.strategies.base").GuessingStrategy
    target = Target("strategies.feedback", "repro.strategies.base", "on_matches")
    pending, seen = [base], set()
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        pending.extend(cls.__subclasses__())
        func = cls.__dict__.get("on_matches")
        if callable(func):
            setattr(cls, "on_matches", recorder.wrap(target, func))


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def load_spans(directory: Path) -> List[Span]:
    """Every span written under ``directory`` (all processes)."""
    spans = []
    for path in sorted(Path(directory).glob("spans-*.jsonl")):
        for line in path.read_text().splitlines():
            if line.strip():
                spans.append(Span(*json.loads(line)))
    return spans


def self_times(spans: Iterable[Span]) -> Dict[tuple, float]:
    """``(pid, id) -> duration minus the durations of direct children``."""
    spans = list(spans)
    child_time: Dict[tuple, float] = defaultdict(float)
    for span in spans:
        if span.parent >= 0:
            child_time[(span.pid, span.parent)] += span.duration
    return {
        (span.pid, span.id): span.duration - child_time[(span.pid, span.id)]
        for span in spans
    }


def engine_window(spans: Sequence[Span]) -> Optional[Span]:
    """The outermost attack span: first batch requested -> report returned."""
    engines = [s for s in spans if s.name in ENGINE_SPANS]
    if not engines:
        return None
    return min(engines, key=lambda s: (s.start, -s.end))


def runtime_metrics(spans: Sequence[Span], workers: int) -> Dict[str, float]:
    """Start-up, busy, skew, idle and merge figures of one sharded attack."""
    engine = [s for s in spans if s.name == "runtime.engine_run"]
    if not engine:
        return {
            "runtime.startup_s": 0.0,
            "runtime.shard_busy_s": 0.0,
            "runtime.shard_skew": 0.0,
            "runtime.idle_frac": 0.0,
            "runtime.merge_s": 0.0,
        }
    wall = sum(s.duration for s in engine)
    executed = sum(s.duration for s in spans if s.name == "runtime.execute")
    shards = [s for s in spans if s.name == "runtime.shard"]
    per_shard: Dict[int, float] = defaultdict(float)
    for span in shards:
        per_shard[span.count] += span.duration
    busy = sum(per_shard.values())
    startup = sum(
        min((s.start for s in shards if run.start <= s.start <= run.end), default=run.end)
        - run.start
        for run in engine
    )
    mean = busy / len(per_shard) if per_shard else 0.0
    return {
        "runtime.startup_s": startup,
        "runtime.shard_busy_s": busy,
        "runtime.shard_skew": max(per_shard.values()) / mean if mean > 0 else 0.0,
        "runtime.idle_frac": 1.0 - busy / (workers * wall) if wall > 0 else 0.0,
        "runtime.merge_s": wall - executed,
    }


def layer_metrics(spans: Sequence[Span], workers: int = 1) -> Dict[str, float]:
    """Summed self time per layer, plus the runtime split, for one command."""
    metrics = {metric: 0.0 for metric in SELF_TIME_METRICS.values()}
    own = self_times(spans)
    for span in spans:
        metric = SELF_TIME_METRICS.get(span.name)
        if metric is not None:
            metrics[metric] += own[(span.pid, span.id)]
    metrics.update(runtime_metrics(spans, workers))
    return metrics


def evaluated_rows(spans: Sequence[Span], rows_per_chunk: int) -> tuple:
    """``(passwords, rows)`` scored by ``evaluate_batch`` calls.

    Every call evaluates whole chunks of ``rows_per_chunk`` rows, padded
    when it holds fewer passwords, so the rows evaluated per call are
    ``ceil(passwords / rows_per_chunk)`` chunks.
    """
    calls = [s.count for s in spans if s.name == "core.evaluate_batch"]
    rows = sum(-(-count // rows_per_chunk) * rows_per_chunk for count in calls)
    return sum(calls), rows
