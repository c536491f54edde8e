"""Kernel backend registry: the numpy backend runs, tests switch to
``reference`` through ``use_backend``, and no setting picks another."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import kernels
from repro.cli import main
from repro.core.guesser import GuessingReport

SRC = Path(__file__).resolve().parents[2] / "src"


class TestResolve:
    def test_explicit_names_resolve_to_themselves(self):
        assert kernels.resolve() == "numpy"
        assert kernels.resolve("numpy") == "numpy"
        assert kernels.resolve("reference") == "reference"

    def test_invalid_value_one_line_error(self):
        with pytest.raises(ValueError) as excinfo:
            kernels.resolve("fortran")
        message = str(excinfo.value)
        assert "\n" not in message
        assert "kernel backend must be numpy or reference" in message
        assert "'fortran'" in message


class TestUseBackend:
    def test_use_backend_restores_previous(self):
        before = kernels.active()
        with kernels.use_backend("reference"):
            assert kernels.active_name() == "reference"
        assert kernels.active() is before

    def test_use_backend_restores_on_error(self):
        before = kernels.active()
        with pytest.raises(RuntimeError):
            with kernels.use_backend("reference"):
                raise RuntimeError("boom")
        assert kernels.active() is before

    def test_backends_expose_the_same_kernel_api(self):
        reference = kernels._load("reference")
        numpy_backend = kernels._load("numpy")
        exported = [
            name
            for name in dir(reference)
            if not name.startswith("_") and callable(getattr(reference, name))
        ]
        for name in exported:
            assert callable(getattr(numpy_backend, name)), name


class TestReportSurface:
    def test_report_records_active_backend(self):
        with kernels.use_backend("reference"):
            report = GuessingReport(method="m", test_size=1)
        assert report.kernel_backend == "reference"
        assert report.as_dict()["kernel_backend"] == "reference"

    def test_report_json_includes_backend(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("\n".join(["password1", "hunter2", "love99", "qwerty12"] * 8) + "\n")
        out = tmp_path / "report.json"
        rc = main(
            [
                "attack",
                "--corpus",
                str(corpus),
                "--strategy",
                "markov:2",
                "--budgets",
                "50",
                "--report",
                str(out),
            ]
        )
        assert rc == 0
        assert '"kernel_backend": "numpy"' in out.read_text()


class TestNoSelector:
    @pytest.mark.parametrize("value", ["reference", "numba"])
    def test_environment_does_not_pick_the_backend(self, tmp_path, value):
        """Every command runs the numpy backend: a ``REPRO_KERNELS`` left
        in the environment changes neither the stamp nor the rows."""
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("\n".join(["password1", "hunter2", "love99", "qwerty12"] * 8) + "\n")
        env = {k: v for k, v in os.environ.items() if k != "REPRO_KERNELS"}
        env["PYTHONPATH"] = str(SRC)

        def report(extra_env):
            out = tmp_path / f"report-{len(extra_env)}.json"
            subprocess.run(
                [
                    sys.executable, "-m", "repro", "attack",
                    "--corpus", str(corpus),
                    "--strategy", "markov:2",
                    "--budgets", "20,50",
                    "--report", str(out),
                ],
                env=dict(env, **extra_env),
                check=True,
                capture_output=True,
                timeout=120,
            )
            return json.loads(out.read_text())

        plain = report({})
        stamped = report({"REPRO_KERNELS": value})
        assert stamped["kernel_backend"] == plain["kernel_backend"] == "numpy"
        assert stamped["rows"] == plain["rows"]


@pytest.fixture(autouse=True)
def _restore_backend():
    previous = kernels._active
    yield
    kernels._active = previous
