"""The GuessingStrategy protocol: one interface for every guess generator.

The paper's framing (Sec. III) is that a single trained latent-space model
supports many *guessing strategies* -- static sampling, Dynamic Sampling
with Penalization, Gaussian Smoothing, conditional guessing -- and the
evaluation (Sec. VI) compares them against a roster of baselines under the
same accounting.  This module gives all of them one shape:

* a strategy is a lazy producer of :class:`GuessBatch` objects via
  ``iter_guesses(rng)``;
* the consumer (an :class:`~repro.strategies.engine.AttackEngine`, or
  :func:`~repro.strategies.engine.take` for plain sampling) *binds* an
  :class:`AttackContext` before iterating, giving the strategy a live view
  of progress (remaining budget, which packed keys were seen so far)
  without coupling it to the accounting;
* feedback-driven strategies (Dynamic Sampling) receive match notifications
  through :meth:`GuessingStrategy.on_matches`.

Strategies never materialize more than one batch, so attack memory is
constant in the guess budget.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Set

import numpy as np

from repro.core.guesser import seen_in_strings

#: Engine-wide default guess-batch size (the legacy samplers' value); spec
#: canonicalization omits ``batch`` when it equals this.
DEFAULT_BATCH = 2048


@dataclass
class GuessBatch:
    """One batch of generated guesses plus optional generative provenance.

    ``latents`` carries the latent points the guesses were decoded from,
    when the strategy has them; Dynamic Sampling's matched-latent memory
    reads them instead of re-encoding.

    **Encoded batches**: a strategy may yield ``passwords=None`` with an
    ``index_matrix`` (the (N, D) alphabet-index rows) and the ``codec``
    that decodes them.  Every ``passflow:static`` and ``passflow:dynamic``
    batch, smoothed or not, is one; strings come only from the baselines,
    ``passflow:conditional`` and the string wrappers.  Consumers that can,
    account the batch as interned ids without ever materializing strings
    (:meth:`~repro.core.guesser.GuessAccounting.observe_encoded`); everyone
    else calls :meth:`materialize`.
    """

    passwords: Optional[List[str]]
    latents: Optional[np.ndarray] = None
    index_matrix: Optional[np.ndarray] = None
    codec: Optional[object] = None

    def __post_init__(self) -> None:
        if self.passwords is None and (self.index_matrix is None or self.codec is None):
            raise ValueError(
                "a GuessBatch needs passwords, or an index_matrix plus codec"
            )

    def materialize(self) -> List[str]:
        """The batch's password strings (decoded on first use, then kept)."""
        if self.passwords is None:
            self.passwords = self.codec.strings_from_indices(self.index_matrix)
        return self.passwords

    def __len__(self) -> int:
        if self.passwords is not None:
            return len(self.passwords)
        return len(self.index_matrix)

    def __iter__(self) -> Iterator[str]:
        return iter(self.materialize())


class AttackContext:
    """Live attack-progress view shared between a consumer and a strategy.

    Exactly one of two modes:

    * **accounting mode** (attack): wraps a
      :class:`~repro.core.guesser.GuessAccounting`; ``remaining`` and
      :meth:`seen_mask` mirror the accounting as the engine updates it.
    * **standalone mode** (plain sampling, or an unbound strategy):
      optionally capped by ``limit``; :meth:`seen_mask` tests a private
      set of strings the consumer maintains via :meth:`note`.
    """

    def __init__(self, accounting=None, limit: Optional[int] = None) -> None:
        if accounting is not None and limit is not None:
            raise ValueError("pass either accounting or limit, not both")
        self._accounting = accounting
        self._limit = limit
        self._produced = 0
        self._seen: Set[str] = set()

    @property
    def remaining(self) -> Optional[int]:
        """Guesses still wanted, or ``None`` for an unbounded stream."""
        if self._accounting is not None:
            return self._accounting.remaining
        if self._limit is None:
            return None
        return max(0, self._limit - self._produced)

    def seen_mask(self, keys: np.ndarray, codec) -> np.ndarray:
        """Which packed ``keys`` name a guess produced so far.

        The collision test of Gaussian Smoothing.  A keyed accounting
        tests its sorted seen keys; a context that holds strings (a string
        accounting under a wrapper, or standalone sampling) tests the keys
        decoded by ``codec``.
        """
        if self._accounting is not None:
            return self._accounting.seen_mask(keys, codec)
        return seen_in_strings(self._seen, keys, codec)

    def next_count(self, batch_size: int) -> int:
        """The batch size a strategy should produce next.

        Matches the seed-era eager samplers' ``min(batch_size, remaining)``
        so a strategy driven by the engine draws exactly the same RNG
        sequence as those loops did.
        """
        remaining = self.remaining
        if remaining is None:
            return batch_size
        return min(batch_size, remaining)

    def note(self, passwords: Iterable[str]) -> None:
        """Standalone-mode bookkeeping (no-op in accounting mode)."""
        if self._accounting is not None:
            return
        count = 0
        for password in passwords:
            count += 1
            if password:
                self._seen.add(password)
        self._produced += count

    def advance(self, count: int) -> None:
        """Standalone-mode progress without strings (no-op in accounting mode).

        The encoded companion of :meth:`note`: consumers that account
        batches themselves (e.g. the guess-bank builder packing encoded
        batches) advance the produced counter so ``remaining`` shrinks,
        without materializing passwords.  The seen set is left untouched --
        only strategies that never ask :meth:`seen_mask` should be driven
        this way.
        """
        if self._accounting is not None:
            return
        if count < 0:
            raise ValueError("count must be non-negative")
        self._produced += int(count)


class GuessingStrategy(abc.ABC):
    """Protocol every guessing strategy implements.

    Required surface: :attr:`name`, :meth:`describe` and
    :meth:`iter_guesses`.  :meth:`bind` and :meth:`on_matches` have
    do-nothing defaults for strategies that ignore attack feedback.
    """

    #: Human-readable method name used in reports ("PassFlow-Dynamic+GS").
    name: str = "strategy"

    #: True when the guess stream is a pure function of ``(spec, seed,
    #: budget)``: no attack feedback (``on_matches``), no calls to
    #: ``context.seen_mask``.  Such streams can be materialized once into
    #: a guess bank and replayed bit-identically; feedback-driven
    #: strategies must keep ``False`` (the conservative default for
    #: third-party subclasses).
    replayable: bool = False

    def __init__(self, spec: Optional[str] = None) -> None:
        self._spec = spec
        self._context = AttackContext()

    # ------------------------------------------------------------------
    @property
    def context(self) -> AttackContext:
        """The currently bound context (standalone by default)."""
        return self._context

    def bind(self, context: Optional[AttackContext]) -> None:
        """Attach a live attack context (``None`` resets to standalone)."""
        self._context = context if context is not None else AttackContext()

    def describe(self) -> str:
        """The canonical spec string that rebuilds this strategy.

        ``build(strategy.describe())`` (with the same resources) produces
        an equivalently configured strategy.
        """
        if self._spec is None:
            raise NotImplementedError(f"{type(self).__name__} has no spec")
        return self._spec

    def on_matches(self, batch: GuessBatch, indices: Sequence[int]) -> None:
        """Attack feedback: ``batch.passwords[i]`` was a fresh test-set hit
        for every ``i`` in ``indices``.  Default: ignore."""

    def bind_shard(self, index: int, workers: int) -> None:
        """Tell the strategy which shard of a ``workers``-wide fleet it is.

        Called by the runtime (static and elastic schedules alike) right
        after the per-shard strategy instance is built, before any guesses
        are drawn.  Most strategies ignore it -- their per-shard RNG stream
        already decorrelates the fleet.  Position-deterministic replay
        strategies (the guess bank) use it to select the strided substream
        ``index, index + workers, index + 2*workers, ...`` of their global
        guess order, which is what makes sharded replay reports
        bit-identical to the serial run.  Default: ignore.
        """

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def iter_guesses(self, rng: np.random.Generator) -> Iterator[GuessBatch]:
        """Lazily yield guess batches; may be infinite.

        Implementations should size batches with
        ``self.context.next_count(...)`` so attacks stop exactly on budget
        and reproduce the legacy eager loops' RNG sequence.
        """
        raise NotImplementedError
