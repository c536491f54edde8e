"""EvalContext bank_dir: build-on-miss, replay reuse, live fallback."""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval.harness import PROFILES, EvalContext


@pytest.fixture
def harness_test_set(corpus, monkeypatch):
    """Pin the context test set to corpus passwords (no model training)."""
    targets = set(corpus[2000:2400])
    monkeypatch.setattr(EvalContext, "test_set", property(lambda self: targets))
    return targets


class TestBankDirSelection:
    def test_default_off(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_GUESS_BANK", raising=False)
        assert EvalContext(PROFILES["tiny"], cache_dir=tmp_path).bank_dir is None

    def test_env_selects_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_GUESS_BANK", str(tmp_path / "banks"))
        ctx = EvalContext(PROFILES["tiny"], cache_dir=tmp_path)
        assert ctx.bank_dir == tmp_path / "banks"

    def test_argument_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_GUESS_BANK", str(tmp_path / "env"))
        ctx = EvalContext(
            PROFILES["tiny"], cache_dir=tmp_path, bank_dir=tmp_path / "arg"
        )
        assert ctx.bank_dir == tmp_path / "arg"


class TestBankedRuns:
    def test_banked_replay_matches_live(self, tmp_path, harness_test_set):
        """First banked run builds the artifact; later runs replay it --
        and every report equals the live serial run bit for bit."""
        live = EvalContext(PROFILES["tiny"], cache_dir=tmp_path).run_attack(
            "markov:2", "bank-check"
        )
        banks = tmp_path / "banks"
        ctx = EvalContext(PROFILES["tiny"], cache_dir=tmp_path, bank_dir=banks)
        first = ctx.run_attack("markov:2", "bank-check")
        artifacts = sorted(banks.glob("*.bank"))
        assert len(artifacts) == 1, "first banked run must materialize the bank"
        second = ctx.run_attack("markov:2", "bank-check")
        assert sorted(banks.glob("*.bank")) == artifacts, "replay must not rebuild"
        assert first.as_dict() == live.as_dict()
        assert second.as_dict() == live.as_dict()

    def test_stale_bank_is_rebuilt_in_place(self, tmp_path, harness_test_set):
        """An older-format bank where the identity key points is a miss:
        the harness rebuilds it instead of raising ``BankError``."""
        import json

        from repro.bank.artifact import VERSION

        live = EvalContext(PROFILES["tiny"], cache_dir=tmp_path).run_attack(
            "markov:2", "bank-stale"
        )
        banks = tmp_path / "banks"
        ctx = EvalContext(PROFILES["tiny"], cache_dir=tmp_path, bank_dir=banks)
        ctx.run_attack("markov:2", "bank-stale")
        (artifact,) = banks.glob("*.bank")
        manifest_path = artifact / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest_path.write_text(json.dumps(dict(manifest, version=VERSION - 1)))
        assert ctx.run_attack("markov:2", "bank-stale").as_dict() == live.as_dict()
        assert list(banks.glob("*.bank")) == [artifact]
        assert json.loads(manifest_path.read_text())["version"] == VERSION

    def test_parallel_banked_replay_matches_serial_live(
        self, tmp_path, harness_test_set
    ):
        live = EvalContext(PROFILES["tiny"], cache_dir=tmp_path).run_attack(
            "markov:2", "bank-par"
        )
        ctx = EvalContext(
            PROFILES["tiny"],
            cache_dir=tmp_path,
            bank_dir=tmp_path / "banks",
            workers=2,
            schedule="elastic",
        )
        assert ctx.run_attack("markov:2", "bank-par").as_dict() == live.as_dict()

    def test_non_replayable_spec_falls_back_to_live(
        self, tmp_path, harness_test_set
    ):
        banks = tmp_path / "banks"
        ctx = EvalContext(PROFILES["tiny"], cache_dir=tmp_path, bank_dir=banks)
        report = ctx.run_attack("bankfeedback", "bank-fb")
        assert report.rows[-1].guesses == PROFILES["tiny"].budgets[-1]
        assert not list(banks.glob("*.bank")), "feedback strategies must not bank"

    def test_distinct_labels_get_distinct_banks(self, tmp_path, harness_test_set):
        """The rng label is part of the identity key: table2 and table3
        runs of the same spec sample different streams."""
        banks = tmp_path / "banks"
        ctx = EvalContext(PROFILES["tiny"], cache_dir=tmp_path, bank_dir=banks)
        ctx.run_attack("markov:2", "bank-a")
        ctx.run_attack("markov:2", "bank-b")
        assert len(list(banks.glob("*.bank"))) == 2
