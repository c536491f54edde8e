"""Materialize a strategy's ranked guess stream into a bank artifact.

The builder drives any :class:`~repro.strategies.base.GuessingStrategy`
exactly the way a serial attack would -- same
``min(batch_size, remaining)`` batch sizes via an
:class:`~repro.strategies.base.AttackContext`, same RNG stream -- but
packs each batch to uint64 keys instead of accounting it.  Replaying the
resulting bank through the same budgets therefore reproduces the live
attack's :class:`~repro.core.guesser.GuessingReport` bit for bit.

Only *replayable* strategies qualify by default: samplers whose stream is
a pure function of ``(spec, seed, budget)``.  Feedback-driven strategies
(Dynamic Sampling, smoothed variants) can be banked with ``force=True``
for throughput studies, but their replay reproduces the feedback-free
build-time stream, not a live attack.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.bank.artifact import BankError, GuessBank, same_codec, write_bank
from repro.strategies.base import AttackContext, GuessingStrategy
from repro.strategies.engine import _close_iterator
from repro.utils.rng import spawn_rng


def _spec_of(strategy: GuessingStrategy) -> str:
    try:
        return strategy.describe()
    except NotImplementedError:
        return f"<unspecified:{strategy.name}>"


def build_bank(
    strategy: GuessingStrategy,
    budget: int,
    out: Union[str, Path],
    *,
    seed: int = 0,
    rng: Optional[np.random.Generator] = None,
    rng_label: str = "",
    encoder=None,
    force: bool = False,
    progress=None,
) -> GuessBank:
    """Sample ``budget`` guesses from ``strategy`` into a bank at ``out``.

    The RNG mirrors the attack entry points: ``rng_label=""`` draws from
    ``numpy.random.default_rng(seed)`` (the serial CLI attack),
    a non-empty label draws from ``spawn_rng(seed, rng_label)`` (the eval
    harness's named streams); pass ``rng`` directly to override both.
    Encoded batches are packed through their own codec; string batches
    need an explicit ``encoder`` and raise :class:`BankError` when a guess
    is not representable (over-length / out-of-alphabet), since a lossy
    bank could not replay the stream exactly.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if not getattr(strategy, "replayable", False) and not force:
        raise BankError(
            f"strategy {_spec_of(strategy)!r} is not deterministic-replayable "
            "(it reads attack feedback); pass force=True to bank its "
            "feedback-free stream anyway"
        )
    if encoder is not None and encoder.pack_bits is None:
        raise BankError("encoder alphabet/max_length does not support packing")
    if rng is None:
        rng = spawn_rng(seed, rng_label) if rng_label else np.random.default_rng(seed)
    codec = encoder
    context = AttackContext(limit=budget)
    strategy.bind(context)
    chunks = []
    segment_ends = []
    produced = 0
    generator = strategy.iter_guesses(rng)
    try:
        for batch in generator:
            if batch.passwords is None:
                if codec is None:
                    codec = batch.codec
                elif not same_codec(codec, batch.codec):
                    raise BankError(
                        "strategy switched codecs mid-stream; a bank has "
                        "exactly one key space"
                    )
                keys = batch.codec.pack_indices(batch.index_matrix)
            else:
                if codec is None:
                    raise BankError(
                        "string-batch strategies need an explicit encoder= "
                        "to define the bank's key space"
                    )
                try:
                    keys = codec.pack_passwords(batch.materialize())
                except (KeyError, ValueError) as exc:
                    raise BankError(
                        f"guess not representable by the bank codec: {exc}"
                    ) from exc
            if produced + len(keys) > budget:
                keys = keys[: budget - produced]
            if not len(keys):
                continue
            chunks.append(np.asarray(keys, dtype=np.uint64))
            produced += len(keys)
            segment_ends.append(produced)
            context.advance(len(keys))
            if progress is not None:
                progress.update(len(keys))
            if produced >= budget:
                break
    finally:
        _close_iterator(generator)
        strategy.bind(None)
    if produced < budget:
        raise BankError(
            f"strategy ran dry after {produced} of {budget} guesses; "
            "banks only make sense for streams that cover their budget"
        )
    if progress is not None:
        progress.close(extra="banked")
    return write_bank(
        out,
        np.concatenate(chunks),
        segment_ends,
        codec=codec,
        spec=_spec_of(strategy),
        method=strategy.name,
        seed=seed,
        rng_label=rng_label,
    )
