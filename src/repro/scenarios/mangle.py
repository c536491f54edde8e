"""Mangling hybrids: the ``mangle(<spec>)`` wrapper family.

Wraps any registry spec and expands every inner guess through a chain of
:mod:`repro.data.mangling` rules --
``mangle(markov:3)?rules=leet,append_year&variants=2`` yields, for each
Markov guess, the guess itself plus its leet form plus two sampled
year-suffix variants.  This is the HashCat/JTR-style hybrid dimension the
paper's related work references, composed over live samplers and bank
replays alike.

Determinism contract: stochastic rule draws come from
``spawn_rng(seed, "mangle/<rule>/<word>")`` -- a pure function of the
(word, rule, spec seed) triple, independent of batch boundaries, chunk
order, schedule or executor.  The expansion therefore commutes with the
runtime: for a fixed inner stream the mangled stream is bit-identical
across executors and chunk sizes, and wrapper-of-bank equals
wrapper-of-live whenever the inner spec is replayable.

The expansion buffer and the inner iterator live on the strategy
*instance* (not the generator), so elastic chunking -- which re-enters
``iter_guesses`` once per chunk -- resumes mid-expansion exactly where
the previous chunk stopped, the same discipline as the bank replay
cursor.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.mangling import DETERMINISTIC_RULES, RULE_NAMES, STOCHASTIC_RULES
from repro.strategies.base import DEFAULT_BATCH, GuessBatch, GuessingStrategy
from repro.strategies.registry import (
    BuildResources,
    ParamReader,
    SpecError,
    StrategySpec,
    build,
    format_spec,
    parse_bool,
    register,
)
from repro.utils.rng import spawn_rng


class MangleStrategy(GuessingStrategy):
    """Expand an inner strategy's guesses through named mangling rules.

    ``rules`` are applied per word in sorted-name order (the canonical
    order, so rule selection is a set, not a sequence); deterministic
    rules contribute one variant each, stochastic rules ``variants``
    draws each from the word's own named sub-stream.  ``keep=True``
    (default) emits the unmangled word first.
    """

    def __init__(
        self,
        inner: GuessingStrategy,
        rules: Sequence[str],
        variants: int = 1,
        keep: bool = True,
        seed: int = 0,
        batch_size: int = DEFAULT_BATCH,
        spec: Optional[str] = None,
    ) -> None:
        super().__init__(spec=spec)
        rules = tuple(sorted(set(rules)))
        if not rules:
            raise ValueError("mangle needs at least one rule")
        unknown = [name for name in rules if name not in RULE_NAMES]
        if unknown:
            raise ValueError(
                f"unknown mangling rule(s) {', '.join(unknown)} "
                f"(known: {', '.join(RULE_NAMES)})"
            )
        if variants < 1:
            raise ValueError("variants must be >= 1")
        self.inner = inner
        self.rules: Tuple[str, ...] = rules
        self.variants = int(variants)
        self.keep = bool(keep)
        self.seed = int(seed)
        self.batch_size = int(batch_size)
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        self.name = f"{inner.name}+Mangle"
        self.replayable = bool(getattr(inner, "replayable", False))
        # instance-level stream state: survives per-chunk generator re-entry
        self._buffer: List[str] = []
        self._inner_iter: Optional[Iterator[GuessBatch]] = None
        self._inner_dry = False

    # -- context plumbing: the wrapper and its inner strategy share state
    def bind(self, context) -> None:
        super().bind(context)
        self.inner.bind(self._context)

    def bind_shard(self, index: int, workers: int) -> None:
        self.inner.bind_shard(index, workers)

    def on_matches(self, batch: GuessBatch, indices: Sequence[int]) -> None:
        # best-effort forward; mangled batches carry no latents, so
        # latent-feedback strategies (Dynamic Sampling) see a no-op --
        # mangling severs the latent feedback loop by construction
        self.inner.on_matches(batch, indices)

    # ------------------------------------------------------------------
    def expand(self, word: str) -> List[str]:
        """Every variant of ``word`` under this spec, in canonical order.

        A pure function of ``(word, rules, variants, keep, seed)``: the
        stochastic draws come from the word's own
        ``spawn_rng(seed, "mangle/<rule>/<word>")`` sub-streams, never
        from shared attack RNG state.
        """
        out = [word] if self.keep else []
        for rule in self.rules:
            deterministic = DETERMINISTIC_RULES.get(rule)
            if deterministic is not None:
                out.append(deterministic(word))
                continue
            stochastic = STOCHASTIC_RULES[rule]
            rng = spawn_rng(self.seed, f"mangle/{rule}/{word}")
            out.extend(stochastic(word, rng) for _ in range(self.variants))
        return out

    def iter_guesses(self, rng: np.random.Generator) -> Iterator[GuessBatch]:
        if self._inner_iter is None and not self._inner_dry:
            self._inner_iter = self.inner.iter_guesses(rng)
        while True:
            count = self.context.next_count(self.batch_size)
            if count < 1:
                return
            while len(self._buffer) < count and not self._inner_dry:
                batch = next(self._inner_iter, None)
                if batch is None:
                    self._inner_dry = True
                    break
                for word in batch.materialize():
                    self._buffer.extend(self.expand(word))
            if not self._buffer:
                return
            emit = self._buffer[:count]
            del self._buffer[:count]
            yield GuessBatch(emit)


@register(
    "mangle",
    "mangling-rule expansion of a wrapped spec: "
    "mangle(<spec>)?rules=leet,append_year&variants=2",
    bankable="inherits the wrapped spec's replayability",
)
def _build_mangle(spec: StrategySpec, resources: BuildResources) -> GuessingStrategy:
    if spec.inner is None:
        raise SpecError(
            "mangle wraps another spec: mangle(<spec>)?rules=leet&variants=2"
        )
    reader = ParamReader(spec)
    rules_raw = reader.take("rules", "capitalize,leet,append_digits", cast=str)
    variants = reader.take("variants", 1, cast=int)
    keep = reader.take("keep", True, cast=parse_bool)
    seed = reader.take("seed", 0, cast=int)
    batch = reader.take("batch", DEFAULT_BATCH, cast=int)
    reader.finish()
    rules = tuple(
        sorted({part.strip() for part in rules_raw.split(",") if part.strip()})
    )
    inner = build(
        spec.inner,
        model=resources.model,
        corpus=resources.corpus,
        alphabet=resources.alphabet,
    )
    params = {"rules": ",".join(rules)}
    if variants != 1:
        params["variants"] = variants
    if not keep:
        params["keep"] = False
    if seed != 0:
        params["seed"] = seed
    if batch != DEFAULT_BATCH:
        params["batch"] = batch
    canonical = format_spec("mangle", params=params, inner=inner.describe())
    try:
        return MangleStrategy(
            inner,
            rules,
            variants=variants,
            keep=keep,
            seed=seed,
            batch_size=batch,
            spec=canonical,
        )
    except ValueError as exc:
        raise SpecError(f"mangle spec {spec.canonical()!r}: {exc}") from None
