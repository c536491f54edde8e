"""Streaming attack engine: drive any GuessingStrategy through accounting.

Replaces the eager ``.attack()`` methods that every sampler/baseline used
to hand-roll.  The engine

* consumes a strategy lazily (constant memory in the guess budget),
* emits Table II/III-style :class:`~repro.core.guesser.BudgetRow`
  checkpoints as each budget is crossed (:meth:`AttackEngine.stream`),
* is resumable: an :class:`AttackState` from :meth:`AttackEngine.begin`
  can be driven in several ``stream`` calls (every elastic shard drives
  one state chunk by chunk, :mod:`repro.runtime.elastic`).

``take`` is the attack-free companion: materialize N guesses from any
strategy (the ``repro sample`` code path).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Set

import numpy as np

from repro.core.guesser import (
    BudgetRow,
    GuessAccounting,
    GuessingReport,
    validate_budgets,
)
from repro.strategies.base import AttackContext, GuessingStrategy
from repro.utils.progress import ProgressReporter


def _close_iterator(iterator) -> None:
    """Release a guess stream; plain (non-generator) iterators lack close()."""
    close = getattr(iterator, "close", None)
    if close is not None:
        close()


@dataclass
class AttackState:
    """Resumable progress of one attack run."""

    accounting: GuessAccounting
    batches: int = 0

    @property
    def done(self) -> bool:
        """True once the final guess budget has been reached."""
        return self.accounting.done

    @property
    def total_guesses(self) -> int:
        return self.accounting.total

    @property
    def matched(self) -> int:
        return len(self.accounting.matched)

    def report(self, method: str) -> GuessingReport:
        """Finalize the accounting into a report (state stays usable)."""
        return self.accounting.report(method)


class AttackEngine:
    """Runs guessing attacks: any strategy, one accounting discipline."""

    def __init__(self, test_set: Set[str], budgets: Sequence[int]) -> None:
        self.test_set = set(test_set)
        # validate eagerly so misconfiguration fails at construction
        self.budgets = validate_budgets(budgets)

    # ------------------------------------------------------------------
    def begin(self) -> AttackState:
        """A fresh resumable state for this engine's test set and budgets."""
        return AttackState(GuessAccounting(set(self.test_set), list(self.budgets)))

    def stream(
        self,
        strategy: GuessingStrategy,
        rng: np.random.Generator,
        state: AttackState,
        progress: Optional[ProgressReporter] = None,
    ) -> Iterator[BudgetRow]:
        """Drive the strategy, yielding each budget checkpoint as crossed.

        Stops when the final budget is reached or the strategy exhausts
        itself; a later call on the same ``state`` (with a budget
        schedule extended past its total) resumes the accounting.  A
        ``progress`` reporter receives a rate-limited update per batch
        (guesses/sec plus the running match count).
        """
        accounting = state.accounting
        if accounting.done:
            return
        emitted = len(accounting.rows)
        strategy.bind(AttackContext(accounting=accounting))
        generator = strategy.iter_guesses(rng)
        stream_codec = None
        try:
            for batch in generator:
                observed_before = accounting.total
                if batch.passwords is None and accounting.supports_encoded:
                    # interned-id fast path: strings never materialize
                    stream_codec = batch.codec
                    new_matches = accounting.observe_encoded(
                        batch.index_matrix, batch.codec
                    )
                elif accounting.mode == "encoded":
                    # a string batch after encoded ones (e.g. a custom
                    # strategy's fallback round): re-encode with the
                    # stream's codec rather than crash on the mode lock
                    if stream_codec is None:
                        raise ValueError(
                            "cannot resume an encoded attack with a string "
                            "batch before any encoded batch supplies a codec"
                        )
                    try:
                        new_matches = accounting.observe_encoded(
                            stream_codec.indices_from_strings(batch.materialize()),
                            stream_codec,
                        )
                    except (KeyError, ValueError) as exc:
                        raise ValueError(
                            "strategy mixed an unencodable string batch into "
                            f"an encoded guess stream: {exc}"
                        ) from exc
                else:
                    new_matches = accounting.observe(batch.materialize())
                state.batches += 1
                if new_matches:
                    strategy.on_matches(batch, new_matches)
                if progress is not None:
                    progress.update(
                        accounting.total - observed_before,
                        extra=f"{state.matched} matched",
                    )
                    if accounting.done:
                        progress.close(extra=f"{state.matched} matched")
                while emitted < len(accounting.rows):
                    yield accounting.rows[emitted]
                    emitted += 1
                if accounting.done:
                    return
            if progress is not None:
                # strategy ran dry before the final budget
                progress.close(extra=f"{state.matched} matched")
        finally:
            _close_iterator(generator)
            strategy.bind(None)

    def run(
        self,
        strategy: GuessingStrategy,
        rng: np.random.Generator,
        method: Optional[str] = None,
        state: Optional[AttackState] = None,
        progress: Optional[ProgressReporter] = None,
    ) -> GuessingReport:
        """Run (or resume, via ``state``) an attack and return the report."""
        state = state if state is not None else self.begin()
        for _ in self.stream(strategy, rng, state, progress=progress):
            pass
        return state.report(method or strategy.name)


def take(
    strategy: GuessingStrategy,
    count: int,
    rng: np.random.Generator,
) -> List[str]:
    """Materialize up to ``count`` guesses from a strategy outside an attack.

    Returns fewer than ``count`` when the strategy's stream is finite
    (e.g. a wildcard-free conditional template yields a single guess).
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if count == 0:
        return []
    context = AttackContext(limit=count)
    strategy.bind(context)
    out: List[str] = []
    generator = strategy.iter_guesses(rng)
    try:
        for batch in generator:
            passwords = batch.materialize()
            out.extend(passwords)
            context.note(passwords)
            if len(out) >= count:
                break
    finally:
        _close_iterator(generator)
        strategy.bind(None)
    return out[:count]
