"""Fault-injection strategy fixtures for the runtime test suite.

Three registry-buildable strategy families simulate the failure modes the
elastic scheduler exists to absorb.  They register themselves at import
time (this conftest loads once per session) so spec strings like
``"drying?limit=40"`` cross the :class:`~repro.runtime.ProcessPoolExecutor`
fork boundary exactly like real strategies -- forked workers rebuild them
through the inherited registry.

* ``sequence`` -- the well-behaved baseline: a deterministic enumerator
  whose next guess depends only on instance position, never on the RNG.
  Because elastic chunking preserves instance state across chunks, its
  elastic and static reports are bit-identical (the property the
  hypothesis suite leans on).
* ``straggler`` -- ``sequence`` plus a configurable per-batch delay
  (``delay`` seconds), optionally finite (``limit``): the slow shard of a
  fleet.
* ``drying`` -- ``sequence`` that exhausts after ``limit`` guesses per
  instance: the finite-stream shard whose budget must be re-absorbed.
* ``crashing`` -- ``sequence`` that fails once ``at`` guesses were
  produced: ``mode=raise`` raises RuntimeError (the recoverable elastic
  case), ``mode=exit`` ends the worker process outright with
  ``os._exit`` and ``mode=kill`` with a SIGKILL to itself (the pool's
  dead-worker cases -- no exception payload ever reaches the parent).
"""

from __future__ import annotations

import os
import signal
import time
from typing import Iterator, Optional

import numpy as np

from repro.strategies.base import GuessBatch, GuessingStrategy
from repro.strategies.registry import ParamReader, register


class SequenceStrategy(GuessingStrategy):
    """Deterministic enumerator: guess ``n`` is ``f"{prefix}{n:07d}"``.

    Position lives on the instance, so a fresh ``iter_guesses`` generator
    (as every elastic chunk creates) resumes exactly where the previous
    one stopped -- the "well-behaved" contract under which elastic and
    static schedules must produce identical reports.
    """

    name = "Sequence"

    def __init__(
        self,
        batch: int = 32,
        prefix: str = "g",
        limit: Optional[int] = None,
        spec: str = "sequence",
    ) -> None:
        super().__init__(spec=spec)
        self._batch = int(batch)
        self._prefix = prefix
        self._limit = limit
        self._position = 0

    def _next_count(self) -> int:
        count = self.context.next_count(self._batch)
        if self._limit is not None:
            count = min(count, self._limit - self._position)
        return count

    def _emit(self, count: int) -> GuessBatch:
        start = self._position
        self._position += count
        return GuessBatch(
            [f"{self._prefix}{n:07d}" for n in range(start, start + count)]
        )

    def iter_guesses(self, rng: np.random.Generator) -> Iterator[GuessBatch]:
        while True:
            count = self._next_count()
            if count < 1:
                return
            yield self._emit(count)


class StragglerStrategy(SequenceStrategy):
    """A ``sequence`` that sleeps ``delay`` seconds before every batch."""

    name = "Straggler"

    def __init__(self, delay: float = 0.01, **kwargs) -> None:
        super().__init__(**kwargs)
        self._delay = float(delay)

    def iter_guesses(self, rng: np.random.Generator) -> Iterator[GuessBatch]:
        while True:
            count = self._next_count()
            if count < 1:
                return
            time.sleep(self._delay)
            yield self._emit(count)


class CrashingStrategy(SequenceStrategy):
    """A ``sequence`` that fails once ``at`` guesses have been produced.

    ``mode="raise"`` raises RuntimeError from inside the guess stream;
    ``mode="exit"`` terminates the whole worker process via ``os._exit``
    and ``mode="kill"`` via SIGKILL, simulating an OOM-killed /
    segfaulted shard that never reports back.
    """

    name = "Crashing"

    def __init__(self, at: int = 100, mode: str = "raise", **kwargs) -> None:
        super().__init__(**kwargs)
        if mode not in ("raise", "exit", "kill"):
            raise ValueError(f"mode must be 'raise', 'exit' or 'kill', got {mode!r}")
        self._at = int(at)
        self._mode = mode

    def iter_guesses(self, rng: np.random.Generator) -> Iterator[GuessBatch]:
        for batch in super().iter_guesses(rng):
            if self._position > self._at:
                if self._mode == "exit":
                    os._exit(3)
                if self._mode == "kill":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise RuntimeError(
                    f"crashing strategy hit its mark at {self._position} guesses"
                )
            yield batch


def _common_params(reader: ParamReader) -> dict:
    return {
        "batch": reader.take("batch", 32, int),
        "prefix": reader.take("prefix", "g", str),
        "limit": reader.take("limit", None, int),
    }


@register("sequence", "test-only: deterministic position-based enumerator")
def _build_sequence(spec, resources) -> SequenceStrategy:
    """Build a ``sequence[?batch=&prefix=&limit=]`` spec."""
    reader = ParamReader(spec)
    params = _common_params(reader)
    reader.finish()
    return SequenceStrategy(spec=reader.canonical(), **params)


@register("straggler", "test-only: enumerator with a per-batch delay")
def _build_straggler(spec, resources) -> StragglerStrategy:
    """Build a ``straggler[?delay=&batch=&prefix=&limit=]`` spec."""
    reader = ParamReader(spec)
    delay = reader.take("delay", 0.01, float)
    params = _common_params(reader)
    reader.finish()
    return StragglerStrategy(delay=delay, spec=reader.canonical(), **params)


@register("drying", "test-only: enumerator that exhausts after `limit` guesses")
def _build_drying(spec, resources) -> SequenceStrategy:
    """Build a ``drying?limit=K[&batch=&prefix=]`` spec (limit required)."""
    reader = ParamReader(spec)
    params = _common_params(reader)
    reader.finish()
    if params["limit"] is None:
        raise ValueError("drying strategy requires a limit parameter")
    strategy = SequenceStrategy(spec=reader.canonical(), **params)
    strategy.name = "Drying"
    return strategy


@register("crashing", "test-only: enumerator that fails at a chosen guess count")
def _build_crashing(spec, resources) -> CrashingStrategy:
    """Build a ``crashing[?at=&mode=&batch=&prefix=&limit=]`` spec."""
    reader = ParamReader(spec)
    at = reader.take("at", 100, int)
    mode = reader.take("mode", "raise", str)
    params = _common_params(reader)
    reader.finish()
    return CrashingStrategy(at=at, mode=mode, spec=reader.canonical(), **params)
