"""End-to-end determinism: guess streams and bank artifacts across backends.

The user-facing contract from ``docs/kernels.md``: for a fixed ``(seed,
spec)``, both backends produce the same passwords, and a ``bank build``
writes byte-identical artifact files.
"""

import numpy as np
import pytest

from repro import kernels
from repro.bank import build_bank
from repro.strategies import build, take

BACKENDS = ["reference", "numpy"]


def sample_stream(model, backend, spec="passflow:static?temperature=0.75", count=400):
    with kernels.use_backend(backend):
        strategy = build(spec, model=model)
        return list(take(strategy, count, np.random.default_rng(17)))


class TestGuessStreams:
    @pytest.mark.parametrize("backend", BACKENDS[1:])
    def test_static_stream_identical(self, trained_model, backend):
        assert sample_stream(trained_model, backend) == sample_stream(
            trained_model, "reference"
        )

    @pytest.mark.parametrize("backend", BACKENDS[1:])
    def test_dynamic_stream_identical(self, trained_model, backend):
        spec = "passflow:dynamic+gs?alpha=1&sigma=0.12"
        assert sample_stream(trained_model, backend, spec=spec) == sample_stream(
            trained_model, "reference", spec=spec
        )

    @pytest.mark.parametrize("backend", BACKENDS[1:])
    def test_sample_passwords_identical(self, trained_model, backend):
        with kernels.use_backend("reference"):
            expected = trained_model.sample_passwords(
                300, rng=np.random.default_rng(23)
            )
        with kernels.use_backend(backend):
            got = trained_model.sample_passwords(300, rng=np.random.default_rng(23))
        assert got == expected

    def test_log_prob_bitwise_reference_vs_numpy(self, trained_model):
        passwords = ["password1", "love99", "qwerty12", "hunter2"]
        with kernels.use_backend("reference"):
            expected = trained_model.log_prob(passwords)
        with kernels.use_backend("numpy"):
            got = trained_model.log_prob(passwords)
        assert np.array_equal(got, expected)


class TestBankArtifacts:
    def build_artifact(self, model, backend, out_dir):
        with kernels.use_backend(backend):
            strategy = build("passflow:static?temperature=0.75", model=model)
            return build_bank(
                strategy, 600, out_dir, seed=13, encoder=model.encoder
            )

    def test_artifacts_byte_identical_across_backends(self, trained_model, tmp_path):
        for backend in BACKENDS:
            self.build_artifact(trained_model, backend, tmp_path / backend)
        reference_dir = tmp_path / "reference"
        files = sorted(p.name for p in reference_dir.iterdir())
        assert files, "bank artifact wrote no files"
        for backend in BACKENDS[1:]:
            other_dir = tmp_path / backend
            assert sorted(p.name for p in other_dir.iterdir()) == files
            for name in files:
                assert (other_dir / name).read_bytes() == (
                    reference_dir / name
                ).read_bytes(), f"{backend}/{name} differs from reference"
