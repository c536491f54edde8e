"""Artifact layer: codec headers, manifest validation, integrity checks."""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

from repro.bank import (
    BankError,
    GuessBank,
    codec_from_header,
    codec_header,
    same_codec,
    write_bank,
)
from repro.bank.artifact import KEYS_NAME, MANIFEST_NAME
from repro.data.alphabet import Alphabet
from repro.data.encoding import PasswordEncoder


class TestCodecHeader:
    def test_round_trip_rebuilds_identical_codec(self, bank_encoder):
        rebuilt = codec_from_header(codec_header(bank_encoder))
        assert same_codec(rebuilt, bank_encoder)
        assert rebuilt.alphabet.chars == bank_encoder.alphabet.chars

    def test_round_trip_preserves_keys(self, bank_encoder):
        """The rebuilt codec interns passwords to the very same uint64s."""
        rebuilt = codec_from_header(codec_header(bank_encoder))
        probe = ["alice99", "p4ssw0rd", "x", "0000000000"]
        original = bank_encoder.pack_passwords(probe)
        assert np.array_equal(rebuilt.pack_passwords(probe), original)
        assert rebuilt.strings_from_keys(original) == probe

    def test_round_trip_in_fresh_process(self, markov_bank):
        """A new interpreter rebuilds the codec from the manifest alone."""
        script = (
            "import json, sys, numpy as np\n"
            "from repro.bank import GuessBank\n"
            "bank = GuessBank.open(sys.argv[1])\n"
            "keys = np.asarray(bank.keys[:64])\n"
            "print(json.dumps(bank.codec.strings_from_keys(keys)))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script, str(markov_bank.path)],
            capture_output=True,
            text=True,
            check=True,
        )
        here = markov_bank.codec.strings_from_keys(
            np.asarray(markov_bank.keys[:64])
        )
        assert json.loads(out.stdout) == here

    def test_can_encode_contract_survives_round_trip(self, bank_encoder):
        """Over-length / out-of-alphabet filtering matches the original."""
        rebuilt = codec_from_header(codec_header(bank_encoder))
        too_long = "a" * (bank_encoder.max_length + 1)
        foreign = "päss"  # outside the compact alphabet
        fits = "a" * bank_encoder.max_length
        for password in (too_long, foreign, fits, "abc123"):
            assert rebuilt.can_encode(password) == bank_encoder.can_encode(password)
        assert not rebuilt.can_encode(too_long)
        assert not rebuilt.can_encode(foreign)
        assert rebuilt.can_encode(fits)

    def test_inconsistent_geometry_rejected(self, bank_encoder):
        header = codec_header(bank_encoder)
        header["vocab_size"] = int(header["vocab_size"]) + 1
        with pytest.raises(BankError, match="inconsistent"):
            codec_from_header(header)

    def test_unpackable_geometry_rejected(self):
        with pytest.raises(ValueError, match="does not fit 64-bit keys"):
            PasswordEncoder(Alphabet("ab"), max_length=80)
        with pytest.raises(BankError, match="unusable codec header"):
            codec_from_header({"alphabet": "ab", "max_length": 80, "vocab_size": 3})

    def test_missing_field_rejected(self, bank_encoder):
        header = codec_header(bank_encoder)
        del header["alphabet"]
        with pytest.raises(BankError, match="codec header"):
            codec_from_header(header)


class TestWriteBank:
    def test_rejects_empty_stream(self, tmp_path, bank_encoder):
        with pytest.raises(BankError, match="non-empty"):
            write_bank(
                tmp_path / "e.bank",
                np.empty(0, dtype=np.uint64),
                codec=bank_encoder,
                spec="s",
                method="m",
                seed=0,
            )

    def test_writes_are_byte_deterministic(self, tmp_path, bank_encoder):
        keys = bank_encoder.pack_passwords(["aa", "bb", "aa", "cc"])
        first = tmp_path / "a.bank"
        second = tmp_path / "b.bank"
        for out in (first, second):
            write_bank(out, keys, codec=bank_encoder, spec="s", method="m", seed=3)
        for name in (KEYS_NAME, MANIFEST_NAME):
            assert (first / name).read_bytes() == (second / name).read_bytes()


class TestOpenAndVerify:
    def test_open_memory_maps(self, markov_bank):
        bank = GuessBank.open(markov_bank.path)
        assert isinstance(bank.keys, np.memmap)
        assert bank.total == markov_bank.total
        assert bank.spec == "markov:3"
        assert bank.method == "Markov-3"

    def test_open_missing_path(self, tmp_path):
        with pytest.raises(BankError, match="no bank at"):
            GuessBank.open(tmp_path / "absent.bank")

    def test_open_rejects_foreign_manifest(self, tmp_path):
        path = tmp_path / "foreign.bank"
        path.mkdir()
        (path / MANIFEST_NAME).write_text(json.dumps({"format": "other"}))
        with pytest.raises(BankError, match="manifest"):
            GuessBank.open(path)

    def test_open_rejects_total_mismatch(self, tmp_path, markov_bank):
        path = tmp_path / "short.bank"
        path.mkdir()
        for name in (KEYS_NAME, MANIFEST_NAME):
            (path / name).write_bytes((markov_bank.path / name).read_bytes())
        np.save(path / KEYS_NAME, np.asarray(markov_bank.keys[:10]))
        with pytest.raises(BankError, match="total"):
            GuessBank.open(path)

    def test_verify_clean_artifact(self, markov_bank):
        assert markov_bank.verify() == []

    def test_verify_flags_corrupt_keys(self, tmp_path, markov_bank):
        path = tmp_path / "corrupt.bank"
        path.mkdir()
        for name in (KEYS_NAME, MANIFEST_NAME):
            (path / name).write_bytes((markov_bank.path / name).read_bytes())
        keys = np.load(path / KEYS_NAME)
        keys[5] = np.uint64(2**63)  # garbage outside the pack geometry
        np.save(path / KEYS_NAME, keys)
        problems = GuessBank.open(path).verify()
        assert any("checksum" in p for p in problems)
        assert any("non-canonical" in p for p in problems)
