"""Replay layer: bit-identical reports, strided sharding, spec resolution."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bank import (
    BankError,
    BankReplayStrategy,
    bank_path_for,
    replay_attack,
    resolve_bank,
    stream_samples,
)
from repro.bank.replay import BANK_DIR_ENV
from repro.data.alphabet import default_alphabet
from repro.strategies import SpecError, build


class TestSerialReplay:
    def test_report_matches_live_sampling(
        self, markov_bank, bank_split, bank_budgets, bank_seed, live_report
    ):
        _, test_set = bank_split
        replayed = replay_attack(markov_bank, test_set, bank_budgets, seed=bank_seed)
        assert replayed.as_dict() == live_report.as_dict()

    def test_method_name_matches_live(self, markov_bank, bank_split, live_report):
        _, test_set = bank_split
        replayed = replay_attack(markov_bank, test_set, [100])
        assert replayed.method == live_report.method == "Markov-3"

    def test_budget_beyond_bank_rejected(self, markov_bank, bank_split):
        _, test_set = bank_split
        with pytest.raises(BankError, match="cannot replay"):
            replay_attack(markov_bank, test_set, [markov_bank.total + 1])


class TestReplayEqualsLiveProperty:
    @settings(max_examples=8, deadline=None)
    @given(
        workers=st.sampled_from([1, 2]),
        schedule=st.sampled_from(["static", "elastic"]),
    )
    def test_fleet_shape_never_changes_the_report(
        self,
        markov_bank,
        bank_split,
        bank_budgets,
        bank_seed,
        live_report,
        workers,
        schedule,
    ):
        """bank-replay == live-sampling for every (workers, schedule) pair.

        The live baseline is serial; the property is that replaying the
        banked stream under any fleet shape reproduces it bit for bit --
        rows, samples and method.
        """
        _, test_set = bank_split
        replayed = replay_attack(
            markov_bank,
            test_set,
            bank_budgets,
            workers=workers,
            schedule=schedule,
            seed=bank_seed,
        )
        assert replayed.as_dict() == live_report.as_dict()


class TestSharding:
    def test_strided_substreams_partition_the_prefix(self, markov_bank):
        """Shard i of W owns positions i, i+W, ...; unions rebuild prefixes."""
        workers = 3
        seen = []
        for index in range(workers):
            strategy = BankReplayStrategy(markov_bank, batch_size=64)
            strategy.bind_shard(index, workers)
            from repro.strategies.base import AttackContext

            strategy.bind(AttackContext(limit=markov_bank.total))
            for batch in strategy.iter_guesses(np.random.default_rng(0)):
                seen.append(
                    (index, markov_bank.codec.pack_indices(batch.index_matrix))
                )
        by_shard = {
            i: np.concatenate([k for j, k in seen if j == i]) for i in range(workers)
        }
        full = np.asarray(markov_bank.keys[:])
        for i in range(workers):
            assert np.array_equal(by_shard[i], full[i::workers])

    def test_bind_shard_validates_index(self, markov_bank):
        strategy = BankReplayStrategy(markov_bank)
        with pytest.raises(ValueError, match="outside"):
            strategy.bind_shard(2, 2)

    def test_rebind_mid_stream_rejected(self, markov_bank):
        from repro.strategies.base import AttackContext

        strategy = BankReplayStrategy(markov_bank, batch_size=16)
        strategy.bind(AttackContext(limit=32))
        next(strategy.iter_guesses(np.random.default_rng(0)))
        with pytest.raises(RuntimeError, match="mid-stream"):
            strategy.bind_shard(0, 2)

    def test_replay_streams_from_memmap(self, markov_bank):
        """Shard workers mmap the artifact; nothing loads the full array."""
        assert isinstance(markov_bank.keys, np.memmap)
        strategy = BankReplayStrategy(markov_bank, batch_size=32)
        from repro.strategies.base import AttackContext

        strategy.bind(AttackContext(limit=64))
        batch = next(strategy.iter_guesses(np.random.default_rng(0)))
        # the batch holds only its own rows, not the whole stream
        assert batch.index_matrix.shape[0] == 32
        assert isinstance(markov_bank.keys, np.memmap)


class TestStreamSamples:
    def test_matches_serial_sample_lists(
        self, markov_bank, bank_split, bank_budgets, live_report
    ):
        _, test_set = bank_split
        matched, non_matched = stream_samples(
            markov_bank, test_set, bank_budgets[-1]
        )
        assert matched == live_report.matched_samples
        assert non_matched == live_report.non_matched_samples


class TestSpecResolution:
    def test_variant_path_spec(self, markov_bank):
        strategy = build(f"bank:{markov_bank.path}")
        assert isinstance(strategy, BankReplayStrategy)
        assert strategy.name == "Markov-3"

    def test_variant_path_missing(self, tmp_path):
        with pytest.raises(SpecError, match="no bank"):
            build(f"bank:{tmp_path / 'nope.bank'}")

    def test_query_spec_with_dir(self, markov_bank, bank_seed):
        directory = markov_bank.path.parent
        strategy = build(
            f"bank?spec=markov:3&seed={bank_seed}&dir={directory}"
        )
        assert strategy.bank.path == markov_bank.path

    def test_query_spec_env_fallback(self, markov_bank, bank_seed, monkeypatch):
        monkeypatch.setenv(BANK_DIR_ENV, str(markov_bank.path.parent))
        strategy = build(f"bank?spec=markov:3&seed={bank_seed}")
        assert strategy.bank.total == markov_bank.total

    def test_query_spec_without_dir_rejected(self, monkeypatch):
        monkeypatch.delenv(BANK_DIR_ENV, raising=False)
        with pytest.raises(SpecError, match=BANK_DIR_ENV):
            build("bank?spec=markov:3")

    def test_query_spec_miss_rejected(self, tmp_path, monkeypatch):
        monkeypatch.delenv(BANK_DIR_ENV, raising=False)
        with pytest.raises(SpecError, match="no bank for"):
            build(f"bank?spec=markov:9&seed=0&dir={tmp_path}")

    def test_alphabet_mismatch_rejected(self, markov_bank):
        with pytest.raises(SpecError, match="alphabet"):
            build(f"bank:{markov_bank.path}", alphabet=default_alphabet())


class TestResolveBank:
    def test_direct_path_hit(self, markov_bank, bank_seed, alphabet, tmp_path):
        directory = tmp_path / "named"
        target = bank_path_for(directory, "markov:3", bank_seed, "", alphabet.chars)
        target.mkdir(parents=True)
        for name in ("keys.npy", "manifest.json"):
            (target / name).write_bytes((markov_bank.path / name).read_bytes())
        found = resolve_bank(directory, "markov:3", bank_seed, "", alphabet.chars)
        assert found is not None and found.path == target

    def test_scan_matches_foreign_names(self, markov_bank, bank_seed, tmp_path):
        foreign = tmp_path / "renamed.bank"
        foreign.mkdir()
        for name in ("keys.npy", "manifest.json"):
            (foreign / name).write_bytes((markov_bank.path / name).read_bytes())
        found = resolve_bank(tmp_path, "markov:3", bank_seed)
        assert found is not None and found.path == foreign

    def test_miss_returns_none(self, tmp_path):
        assert resolve_bank(tmp_path, "markov:3", 0) is None

    def test_unreadable_direct_path_is_a_miss(self, bank_seed, tmp_path):
        target = bank_path_for(tmp_path, "markov:3", bank_seed)
        target.mkdir()
        (target / "manifest.json").write_text("[]")
        assert resolve_bank(tmp_path, "markov:3", bank_seed) is None

    def test_path_for_is_deterministic(self, tmp_path):
        a = bank_path_for(tmp_path, "markov:3", 7, "attack-t2", "abc")
        b = bank_path_for(tmp_path, "markov:3", 7, "attack-t2", "abc")
        assert a == b
        assert a != bank_path_for(tmp_path, "markov:3", 8, "attack-t2", "abc")
