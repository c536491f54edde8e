"""Every workload end to end at tiny scale, untraced then traced.

Each run goes through the real CLI commands; the sizes are shrunk so the
whole file takes seconds.  The result line must carry exactly the metrics
``BENCHMARK.json`` declares, with their units, and so must every
``metric`` line printed above it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402

DECLARED = run.declared_metrics()


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "DIGESTS", tmp_path / "digests.json")
    monkeypatch.setattr(run, "CORPUS_SIZE", 600)
    monkeypatch.setattr(run, "TRAIN_ARGS", [
        "--train-size", "200", "--couplings", "2", "--hidden", "8",
        "--epochs", "1", "--batch-size", "64", "--seed", "0",
    ])
    monkeypatch.setattr(run, "ATTACKS", {
        name: run.AttackSpec(spec.strategy, "500,2000", spec.workers, spec.extra, spec.model)
        for name, spec in run.ATTACKS.items()
    })
    monkeypatch.setattr(run, "BANK_BUDGET", 2000)
    monkeypatch.setattr(run, "MIN_REPEATS", 1)
    monkeypatch.setattr(run, "SERVE_LAUNCHES", 2)
    monkeypatch.setattr(run, "NOMINAL_RPS", 100)
    monkeypatch.setattr(run, "STATS_WINDOW", 100)
    monkeypatch.setattr(run, "WARMUP_REQUESTS", 10)
    monkeypatch.setattr(run, "AUDIT_SIZE", 100)
    monkeypatch.setattr(run, "AUDIT_REQUESTS", 3)
    monkeypatch.setattr(run, "LADDER_RPS", (400,))
    return tmp_path


def result(capsys, argv) -> tuple:
    code = run.main(argv)
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0, out[-5:]
    return json.loads(out[-1]), out[:-1]


def assert_declared(payload, lines, kind: str) -> None:
    units = DECLARED[kind]
    assert set(payload["metrics"]) == set(units)
    for name, entry in payload["metrics"].items():
        assert entry["unit"] == units[name]
        assert isinstance(entry["value"], float)
    printed = [line.split() for line in lines if line.startswith("metric ")]
    assert {fields[1] for fields in printed} == set(units)
    for fields in printed:
        assert fields[3] == units[fields[1]], fields


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_untraced_then_traced(workload, tiny, capsys):
    argv = ["--workload", workload, "--seed", "5", "--seconds", "1"]
    payload, lines = result(capsys, argv + ["--trace", "0", "--pin-digests"])
    assert payload["correct"] and payload["failed"] == 0 and payload["attempted"] >= 1
    assert_declared(payload, lines, "end_to_end")
    assert all(entry["value"] > 0 for entry in payload["metrics"].values())
    assert any(line.startswith("fingerprint ") for line in lines)
    assert json.loads((tiny / "digests.json").read_text())[workload]

    # the traced run checks its outputs against the digests just pinned
    payload, lines = result(capsys, argv + ["--trace", "1"])
    assert payload["correct"], lines
    assert_declared(payload, lines, "per_layer")
    metrics = {name: entry["value"] for name, entry in payload["metrics"].items()}
    if workload == "markov-pool":
        assert metrics["baselines.markov_sample_s"] > 0
        assert metrics["runtime.shard_busy_s"] > 0
        assert metrics["flows.decode_s"] == 0
    elif workload == "serve-mixed":
        assert metrics["core.evaluate_batch_s"] > 0
        assert metrics["bank.lookup_s"] > 0
        assert 0 < metrics["serve.flush_fill"] <= 1
        assert metrics["serve.mean_batch_size"] >= 1 and metrics["serve.rejected"] == 0
    else:
        assert metrics["flows.decode_s"] > 0
        assert metrics["kernels.mlp_forward_s"] > 0
    if workload == "passflow-serial":
        assert metrics["autograd.backward_s"] > 0
        assert metrics["core.smooth_s"] > 0


def test_a_pinned_digest_mismatch_fails_the_run(tiny, capsys):
    argv = ["--workload", "markov-pool", "--seed", "6", "--seconds", "0"]
    (tiny / "digests.json").write_text(json.dumps({"markov-pool": {"6": "0" * 16}}))
    payload, lines = result(capsys, argv + ["--trace", "0"])
    assert not payload["correct"] and payload["failed"] >= 1
    assert any("!= pinned" in line for line in lines)


def test_refuses_to_run_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's files: exit non-zero, no result."""
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "markov-pool",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
