"""Builder layer: replayability gating, codec discipline, prefix stability."""

from __future__ import annotations

from typing import Iterator

import numpy as np
import pytest

from repro.bank import BankError, build_bank
from repro.strategies import build
from repro.strategies.base import GuessBatch, GuessingStrategy



class FiniteStrings(GuessingStrategy):
    """Replayable string-batch enumerator with a hard stream limit."""

    replayable = True

    def __init__(self, passwords) -> None:
        super().__init__(spec="finite")
        self.name = "finite"
        self.passwords = list(passwords)

    def iter_guesses(self, rng: np.random.Generator) -> Iterator[GuessBatch]:
        """Yield the fixed password list in batches of three."""
        cursor = 0
        while cursor < len(self.passwords):
            count = min(self.context.next_count(3), len(self.passwords) - cursor)
            if count < 1:
                return
            yield GuessBatch(self.passwords[cursor : cursor + count])
            cursor += count


class TestGating:
    def test_refuses_non_replayable(self, tmp_path, bank_encoder, feedback_strategy):
        with pytest.raises(BankError, match="not deterministic-replayable"):
            build_bank(
                feedback_strategy, 100, tmp_path / "fb.bank", encoder=bank_encoder
            )

    def test_force_banks_the_feedback_free_stream(
        self, tmp_path, bank_encoder, feedback_strategy
    ):
        bank = build_bank(
            feedback_strategy,
            100,
            tmp_path / "fb.bank",
            encoder=bank_encoder,
            force=True,
        )
        assert bank.total == 100
        assert bank.codec.strings_from_keys(np.asarray(bank.keys[:1])) == ["fb0000000"]

    def test_string_batches_need_an_encoder(self, tmp_path):
        with pytest.raises(BankError, match="encoder"):
            build_bank(FiniteStrings(["aa", "bb"]), 2, tmp_path / "s.bank")

    def test_unrepresentable_guess_rejected(self, tmp_path, bank_encoder):
        too_long = "a" * (bank_encoder.max_length + 1)
        with pytest.raises(BankError, match="not representable"):
            build_bank(
                FiniteStrings(["ok1", too_long]),
                2,
                tmp_path / "bad.bank",
                encoder=bank_encoder,
            )

    def test_dry_stream_rejected(self, tmp_path, bank_encoder):
        with pytest.raises(BankError, match="ran dry"):
            build_bank(
                FiniteStrings(["aa", "bb", "cc"]),
                10,
                tmp_path / "dry.bank",
                encoder=bank_encoder,
            )


class TestStreamShape:
    def test_budget_truncation(self, tmp_path, bank_encoder):
        bank = build_bank(
            FiniteStrings([f"pw{i}" for i in range(9)]),
            7,
            tmp_path / "t.bank",
            encoder=bank_encoder,
        )
        assert bank.total == 7
        assert bank.codec.strings_from_keys(np.asarray(bank.keys[:])) == [
            f"pw{i}" for i in range(7)
        ]

    def test_order_preserved(self, tmp_path, bank_encoder):
        words = ["delta", "alpha", "alpha", "echo"]
        bank = build_bank(
            FiniteStrings(words), 4, tmp_path / "o.bank", encoder=bank_encoder
        )
        assert bank.codec.strings_from_keys(np.asarray(bank.keys[:])) == words
        assert bank.unique == 3

    def test_smaller_budget_is_a_prefix(
        self, tmp_path, corpus, alphabet, bank_split, bank_encoder, markov_bank,
        bank_seed,
    ):
        """Banking fewer guesses from the same seed yields a stream prefix.

        This is what lets one large bank serve every smaller budget in a
        schedule: the live sampler's first ``b`` guesses do not depend on
        how many more it would have drawn.
        """
        train_half, _ = bank_split
        strategy = build("markov:3", corpus=train_half, alphabet=alphabet)
        small = build_bank(
            strategy, 400, tmp_path / "small.bank", seed=bank_seed, encoder=bank_encoder
        )
        assert np.array_equal(
            np.asarray(small.keys[:]), np.asarray(markov_bank.keys[:400])
        )
