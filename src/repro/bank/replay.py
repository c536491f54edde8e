"""Replay a guess bank as a registry strategy, bit-identical everywhere.

The ``bank`` strategy family streams a mmapped artifact's keys back as
interned-id :class:`~repro.strategies.base.GuessBatch` objects -- no
model, no string materialization -- in two spec forms::

    bank:/path/to/markov.bank          # replay a named artifact
    bank?spec=markov:3&seed=7&dir=...  # look one up by identity key
                                       # (dir= falls back to $REPRO_GUESS_BANK)

Sharding: :meth:`BankReplayStrategy.bind_shard` (called by both the
static and elastic runtimes) assigns shard ``i`` of ``W`` the strided
substream of positions ``i, i+W, i+2W, ...``.  Because
:func:`~repro.runtime.planner.split_budget` hands shard ``i`` exactly
``ceil((b - i) / W)`` guesses at every global checkpoint ``b``, the union
of the shards' consumed positions at each checkpoint is exactly the
stream prefix ``[0, b)`` -- so the merged rows equal the serial rows for
any worker count, under either schedule.  Sample lists are reconstructed
from the stream prefix (:func:`restore_stream_samples`) since shard-order
concatenation cannot reproduce serial first-occurrence order.
"""

from __future__ import annotations

import hashlib
import os
import re
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.bank.artifact import BankError, GuessBank
from repro.core.guesser import (
    SAMPLE_CAP,
    _sorted_contains,
    insert_sorted,
    packed_test_keys,
)
from repro.strategies.base import DEFAULT_BATCH, GuessBatch, GuessingStrategy
from repro.strategies.registry import (
    BuildResources,
    ParamReader,
    SpecError,
    StrategySpec,
    _clip,
    parse_spec,
    register,
)

#: Environment variable naming the default bank directory for
#: ``bank?spec=...`` lookups (and the eval harness's ``bank_dir``).
BANK_DIR_ENV = "REPRO_GUESS_BANK"


class BankReplayStrategy(GuessingStrategy):
    """Stream a bank's keys as encoded batches (position-deterministic).

    The cursor lives on the instance, so fresh ``iter_guesses`` generators
    (as every elastic chunk creates) resume exactly where the previous one
    stopped; serial and sharded replays of the same artifact visit each
    position exactly once.  ``name`` is the banked strategy's display name
    so replay reports are indistinguishable from the live-sampled ones.
    """

    #: Replay is trivially a pure function of the artifact: a bank of a
    #: bank is the identity (modulo budget truncation).
    replayable = True

    def __init__(
        self,
        bank: GuessBank,
        batch_size: int = DEFAULT_BATCH,
        spec: Optional[str] = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        super().__init__(spec=spec or bank.replay_spec())
        self.bank = bank
        self.codec = bank.codec
        self.batch_size = batch_size
        self.name = bank.method
        self._offset = 0
        self._stride = 1
        self._consumed = 0

    def bind_shard(self, index: int, workers: int) -> None:
        """Select the strided substream ``index, index+workers, ...``.

        Must happen before any guesses are drawn -- the substream choice
        defines which positions this instance owns.
        """
        if not 0 <= index < workers:
            raise ValueError(f"shard index {index} outside fleet of {workers}")
        if self._consumed:
            raise RuntimeError("cannot re-shard a bank replay mid-stream")
        self._offset = int(index)
        self._stride = int(workers)

    def iter_guesses(self, rng: np.random.Generator) -> Iterator[GuessBatch]:
        """Yield the owned substream as encoded batches (``rng`` unused)."""
        keys = self.bank.keys
        total = self.bank.total
        while True:
            count = self.context.next_count(self.batch_size)
            if count < 1:
                return
            start = self._offset + self._consumed * self._stride
            if start >= total:
                return  # substream exhausted: the artifact ran out
            available = (total - 1 - start) // self._stride + 1
            count = min(count, available)
            stop = start + (count - 1) * self._stride + 1
            # a strided mmap slice is a view; only the selected elements
            # materialize when unpack_keys copies them into the batch
            chunk = np.asarray(keys[start:stop:self._stride], dtype=np.uint64)
            self._consumed += count
            yield GuessBatch(
                None,
                index_matrix=self.codec.unpack_keys(chunk),
                codec=self.codec,
            )


# ----------------------------------------------------------------------
# artifact resolution (identity key -> path)
# ----------------------------------------------------------------------
def bank_path_for(
    directory: Union[str, Path],
    spec: str,
    seed: int,
    rng_label: str = "",
    alphabet_chars: str = "",
) -> Path:
    """The deterministic artifact path for an identity key in a bank dir.

    Builders and lookups share this function, so a bank built for
    ``(spec, seed, rng_label, alphabet)`` is found again without scanning.
    The stem keeps a readable spec prefix; the digest disambiguates.
    """
    canonical = parse_spec(spec).canonical()
    digest = hashlib.sha1(
        f"{canonical}|{seed}|{rng_label}|{alphabet_chars}".encode()
    ).hexdigest()[:12]
    stem = re.sub(r"[^A-Za-z0-9._+-]+", "-", canonical).strip("-")[:48] or "bank"
    return Path(directory) / f"{stem}-s{seed}-{digest}.bank"


def resolve_bank(
    directory: Union[str, Path],
    spec: str,
    seed: int,
    rng_label: str = "",
    alphabet_chars: str = "",
) -> Optional[GuessBank]:
    """Find a bank in ``directory`` matching an identity key, or ``None``.

    Tries the deterministic :func:`bank_path_for` location first, then
    scans ``*.bank`` manifests (foreign naming schemes), matching on
    canonical spec, seed and rng label -- and on alphabet when the caller
    pins one.  Ties break to the largest stream, then lexicographic path.
    An unreadable bank (damaged, or an older format version) is a miss
    wherever it lies, so a caller that banks on a miss rebuilds it; so is
    a directory the system cannot read (a path too long, say).
    """
    directory = Path(directory)
    canonical = parse_spec(spec).canonical()
    direct = bank_path_for(directory, canonical, seed, rng_label, alphabet_chars)
    try:
        return GuessBank.open(direct)
    except BankError:
        pass
    try:
        paths = sorted(directory.glob("*.bank")) if directory.is_dir() else []
    except OSError:
        paths = []
    candidates: List[Tuple[int, str, GuessBank]] = []
    for path in paths:
        try:
            bank = GuessBank.open(path)
        except BankError:
            continue
        if bank.spec != canonical or bank.seed != int(seed):
            continue
        if bank.rng_label != rng_label:
            continue
        if alphabet_chars and bank.codec.alphabet.chars != alphabet_chars:
            continue
        candidates.append((-bank.total, str(path), bank))
    if not candidates:
        return None
    return sorted(candidates)[0][2]


# ----------------------------------------------------------------------
# registry family
# ----------------------------------------------------------------------
@register(
    "bank",
    "replay a prebuilt guess bank: bank:<path>, or bank?spec=...&seed=...",
    bankable="yes (replay is position-deterministic)",
)
def _build_bank_replay(spec: StrategySpec, resources: BuildResources) -> GuessingStrategy:
    reader = ParamReader(spec)
    batch = reader.take("batch", DEFAULT_BATCH, cast=int)
    if spec.variant:
        path: Optional[Path] = Path(spec.variant)
        reader.finish()
        try:
            bank = GuessBank.open(path)
        except BankError as exc:
            raise SpecError(str(exc)) from exc
    else:
        inner = reader.take("spec", cast=str)
        if not inner:
            raise SpecError(
                "bank specs need a variant path (bank:<path>) or an "
                "identity key (bank?spec=...&seed=...)"
            )
        seed = reader.take("seed", 0, cast=int)
        label = reader.take("label", "", cast=str)
        directory = reader.take("dir", cast=str) or os.environ.get(BANK_DIR_ENV)
        reader.finish()
        if not directory:
            raise SpecError(
                f"bank?spec=... lookups need dir=<path> or ${BANK_DIR_ENV}"
            )
        chars = getattr(resources.alphabet, "chars", "") or ""
        bank = resolve_bank(directory, inner, seed, label, chars)
        if bank is None:
            raise SpecError(
                f"no bank for spec={_clip(inner)!r} seed={seed} "
                f"label={_clip(label)!r} under {_clip(directory)}"
            )
    requested_chars = getattr(resources.alphabet, "chars", None)
    if requested_chars is not None and requested_chars != bank.codec.alphabet.chars:
        raise SpecError(
            f"bank {bank.path} was packed under alphabet "
            f"{bank.codec.alphabet.chars!r}, not the requested one"
        )
    return BankReplayStrategy(bank, batch_size=batch, spec=bank.replay_spec())


# ----------------------------------------------------------------------
# exact serial-order samples from the stream prefix
# ----------------------------------------------------------------------
def stream_samples(
    bank: GuessBank,
    test_set: Set[str],
    budget: int,
    chunk: int = 1 << 16,
) -> Tuple[List[str], List[str]]:
    """``(matched_samples, non_matched_samples)`` of a serial replay.

    The serial accounting's sample lists are, in key space, the first
    :data:`~repro.core.guesser.SAMPLE_CAP` distinct test keys (matched)
    and distinct non-zero non-test keys (non-matched), each in order of
    first occurrence in the stream prefix ``[0, budget)`` -- independent
    of batching.  This walks
    the mmapped stream in chunks, so parallel replays can restore the
    exact serial lists without re-running a serial attack.
    """
    codec = bank.codec
    packed_test = packed_test_keys(codec, test_set)
    budget = min(int(budget), bank.total)
    seen = np.empty(0, dtype=np.uint64)
    matched_keys: List[int] = []
    non_keys: List[int] = []
    for start in range(0, budget, chunk):
        block = np.asarray(bank.keys[start : min(start + chunk, budget)])
        uniq, first_positions = np.unique(block, return_index=True)
        fresh = ~_sorted_contains(seen, uniq)
        fresh_in_block = first_positions[fresh]
        fresh_keys = block[np.sort(fresh_in_block)]
        is_test = _sorted_contains(packed_test, fresh_keys)
        if len(matched_keys) < SAMPLE_CAP:
            matched_keys.extend(
                int(k) for k in fresh_keys[is_test][: SAMPLE_CAP - len(matched_keys)]
            )
        if len(non_keys) < SAMPLE_CAP:
            wanted = ~is_test & (fresh_keys != 0)
            non_keys.extend(
                int(k) for k in fresh_keys[wanted][: SAMPLE_CAP - len(non_keys)]
            )
        if len(matched_keys) >= SAMPLE_CAP and len(non_keys) >= SAMPLE_CAP:
            break
        # a merge, not np.union1d, which imports numpy.ma on first use
        seen = insert_sorted(seen, uniq[fresh])
    matched = codec.strings_from_keys(np.asarray(matched_keys, dtype=np.uint64))
    non_matched = codec.strings_from_keys(np.asarray(non_keys, dtype=np.uint64))
    return matched, non_matched


def restore_stream_samples(
    report,
    bank: GuessBank,
    test_set: Set[str],
    budget: int,
):
    """Overwrite a merged report's samples with the serial stream order.

    Shard-order sample concatenation depends on the fleet shape; rows do
    not (strided coverage makes them exact).  Restoring the samples from
    the stream prefix makes the whole report bit-identical to the serial
    run.  Mutates and returns ``report``.
    """
    matched, non_matched = stream_samples(bank, test_set, budget)
    report.matched_samples = matched
    report.non_matched_samples = non_matched
    return report


# ----------------------------------------------------------------------
# one-call replay (CLI / eval harness entry point)
# ----------------------------------------------------------------------
def replay_attack(
    bank: GuessBank,
    test_set: Set[str],
    budgets: Sequence[int],
    *,
    workers: int = 1,
    schedule: str = "static",
    seed: int = 0,
    method: Optional[str] = None,
    executor=None,
    progress=None,
):
    """Replay a bank against a test set: the banked run's exact report.

    The replay strategy runs through :func:`repro.runtime.run_attack`
    (the serial engine, or a fleet with every shard mmapping the same
    artifact), then the report's sample lists are restored to serial
    stream order -- a no-op for a serial replay.  Either way the report
    is bit-identical to the live-sampled serial run the bank was built
    from, provided ``budgets[-1] <= bank.total`` (enforced here).
    """
    budgets = list(budgets)
    if not budgets:
        raise ValueError("budgets must be non-empty")
    if budgets[-1] > bank.total:
        raise BankError(
            f"bank {bank.path} holds {bank.total} guesses; cannot replay "
            f"a budget of {budgets[-1]}"
        )
    # imported lazily: the runtime imports the strategies package, so a
    # module-level import here would cycle during registry bootstrap
    from repro.runtime import StrategySource, run_attack

    report = run_attack(
        StrategySource(spec=bank.replay_spec()),
        test_set,
        budgets,
        seed=seed,
        workers=workers,
        schedule=schedule,
        executor=executor,
        method=method or bank.method,
        progress=progress,
    )
    return restore_stream_samples(report, bank, test_set, budgets[-1])
