"""CLI end-to-end tests (tiny workloads, real subprocess-free invocation)."""

import numpy as np
import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "corpus.txt"
    main(["synthesize", "--count", "2000", "--out", str(path), "--seed", "3"])
    return path


@pytest.fixture(scope="module")
def model_file(tmp_path_factory, corpus_file):
    path = tmp_path_factory.mktemp("cli") / "model.npz"
    main(
        [
            "train",
            "--corpus", str(corpus_file),
            "--out", str(path),
            "--train-size", "600",
            "--couplings", "4",
            "--hidden", "24",
            "--epochs", "4",
        ]
    )
    return path


class TestSynthesize:
    def test_writes_requested_count(self, corpus_file):
        lines = corpus_file.read_text().strip().splitlines()
        assert len(lines) == 2000
        assert all(1 <= len(line) <= 10 for line in lines)


class TestTrain:
    def test_checkpoint_created_and_loadable(self, model_file):
        from repro.core.model import PassFlow

        model = PassFlow.load(model_file)
        assert model.history.nll


class TestSample:
    def test_prints_passwords(self, model_file, capsys):
        assert main(["sample", "--model", str(model_file), "--count", "7"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 7


class TestAttack:
    @pytest.mark.parametrize("strategy", ["static", "dynamic", "dynamic+gs"])
    def test_strategies_run(self, model_file, corpus_file, capsys, strategy):
        code = main(
            [
                "attack",
                "--model", str(model_file),
                "--corpus", str(corpus_file),
                "--strategy", strategy,
                "--budgets", "100,300",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "matched" in out and "300" in out

    def test_report_json_dump(self, corpus_file, tmp_path, capsys):
        import json

        report_path = tmp_path / "report.json"
        code = main(
            [
                "attack",
                "--corpus", str(corpus_file),
                "--strategy", "markov:3",
                "--budgets", "100,300",
                "--report", str(report_path),
            ]
        )
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert payload["method"] == "Markov-3"
        assert payload["budgets"] == [100, 300]
        assert [row["guesses"] for row in payload["rows"]] == [100, 300]
        assert payload["workers"] == 1
        assert "matched_samples" in payload and "non_matched_samples" in payload

    def test_parallel_workers_deterministic(self, corpus_file, tmp_path, capsys):
        import json

        reports = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            assert main(
                [
                    "attack",
                    "--corpus", str(corpus_file),
                    "--strategy", "markov:3",
                    "--budgets", "100,300",
                    "--workers", "2",
                    "--report", str(path),
                ]
            ) == 0
            reports.append(json.loads(path.read_text()))
        assert reports[0]["rows"] == reports[1]["rows"]
        assert reports[0]["workers"] == 2

    def test_elastic_schedule_deterministic(self, corpus_file, tmp_path, capsys):
        import json

        reports = []
        for name in ("ea.json", "eb.json"):
            path = tmp_path / name
            assert main(
                [
                    "attack",
                    "--corpus", str(corpus_file),
                    "--strategy", "markov:3",
                    "--budgets", "100,300",
                    "--workers", "2",
                    "--schedule", "elastic",
                    "--report", str(path),
                ]
            ) == 0
            reports.append(json.loads(path.read_text()))
        assert reports[0]["rows"] == reports[1]["rows"]
        assert reports[0]["schedule"] == "elastic"
        assert [row["guesses"] for row in reports[0]["rows"]] == [100, 300]

    def test_unknown_schedule_rejected(self, corpus_file):
        with pytest.raises(SystemExit):
            main(
                [
                    "attack",
                    "--corpus", str(corpus_file),
                    "--strategy", "markov:3",
                    "--schedule", "eager",
                ]
            )

    def test_workers_must_be_positive(self, corpus_file):
        with pytest.raises(SystemExit):
            main(
                [
                    "attack",
                    "--corpus", str(corpus_file),
                    "--strategy", "markov:3",
                    "--workers", "0",
                ]
            )

    def test_budgets_must_be_positive(self, corpus_file):
        with pytest.raises(SystemExit):
            main(
                [
                    "attack",
                    "--corpus", str(corpus_file),
                    "--strategy", "markov:3",
                    "--budgets", "0,100",
                ]
            )


class TestBlasStamp:
    def _report(self, corpus_file, path):
        import json

        assert main(
            [
                "attack",
                "--corpus", str(corpus_file),
                "--strategy", "markov:3",
                "--budgets", "100",
                "--report", str(path),
            ]
        ) == 0
        return json.loads(path.read_text())

    def test_report_stamps_the_blas_setting(self, corpus_file, tmp_path, capsys):
        from repro.kernels import blas

        payload = self._report(corpus_file, tmp_path / "blas.json")
        assert payload["blas"] == blas.describe()
        if payload["blas"]["threads"] is not None:  # a managed OpenBLAS
            assert payload["blas"]["threads"] == 1
            assert "note:" not in capsys.readouterr().err

    def test_unmanaged_blas_is_null_with_one_note(
        self, corpus_file, tmp_path, capsys, monkeypatch
    ):
        from repro.kernels import blas

        monkeypatch.setattr(blas, "threads", lambda: None)
        payload = self._report(corpus_file, tmp_path / "unmanaged.json")
        assert payload["blas"]["threads"] is None
        assert "library" in payload["blas"]
        notes = [
            line for line in capsys.readouterr().err.splitlines()
            if line.startswith("note:")
        ]
        assert len(notes) == 1 and "BLAS" in notes[0], notes


class TestExecutorFlag:
    def _attack(self, corpus_file, path, executor, schedule="elastic"):
        import json

        assert main(
            [
                "attack",
                "--corpus", str(corpus_file),
                "--strategy", "markov:3",
                "--budgets", "100,300",
                "--workers", "2",
                "--schedule", schedule,
                "--executor", executor,
                "--report", str(path),
            ]
        ) == 0
        return json.loads(path.read_text())

    def test_processpool_report_matches_local(self, corpus_file, tmp_path, capsys):
        """The acceptance check: same report bytes modulo the executor stamp."""
        local = self._attack(corpus_file, tmp_path / "local.json", "local")
        pool = self._attack(corpus_file, tmp_path / "pool.json", "processpool")
        assert local.pop("executor") == "local"
        assert pool.pop("executor") == "processpool"
        assert local == pool

    def test_default_reports_stamp_auto(self, corpus_file, tmp_path, capsys):
        import json

        path = tmp_path / "auto.json"
        assert main(
            [
                "attack",
                "--corpus", str(corpus_file),
                "--strategy", "markov:3",
                "--budgets", "100",
                "--report", str(path),
            ]
        ) == 0
        assert json.loads(path.read_text())["executor"] == "auto"

    @pytest.mark.parametrize("replay", [False, True], ids=["live", "bank"])
    @pytest.mark.parametrize("name", ["threads", "worksteal"])
    def test_unknown_executor_exits_with_choices(
        self, corpus_file, capsys, request, name, replay
    ):
        """Rejected before any work: no banner, one line, live or replayed."""
        source = (
            ["--bank", str(request.getfixturevalue("bank_dir"))]
            if replay
            else ["--strategy", "markov:3"]
        )
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "attack",
                    "--corpus", str(corpus_file),
                    *source,
                    "--budgets", "100",
                    "--workers", "2",
                    "--executor", name,
                ]
            )
        assert str(excinfo.value) == (
            f"unknown executor {name!r}; choose from auto, local, processpool"
        )
        assert capsys.readouterr().out == ""


class TestKernelsEnvRestore:
    def _attack(self, corpus_file, capsys):
        assert main(
            [
                "attack",
                "--corpus", str(corpus_file),
                "--strategy", "markov:3",
                "--budgets", "100",
                "--kernels", "numpy",
            ]
        ) == 0
        capsys.readouterr()

    def test_kernels_flag_does_not_leak_into_environ(
        self, corpus_file, capsys, monkeypatch
    ):
        """Regression: --kernels exported REPRO_KERNELS permanently, silently
        repointing every later in-process kernels.select(None) call."""
        import os

        monkeypatch.delenv("REPRO_KERNELS", raising=False)
        self._attack(corpus_file, capsys)
        assert "REPRO_KERNELS" not in os.environ

    def test_prior_env_value_is_restored(self, corpus_file, capsys, monkeypatch):
        import os

        monkeypatch.setenv("REPRO_KERNELS", "reference")
        self._attack(corpus_file, capsys)
        assert os.environ["REPRO_KERNELS"] == "reference"


class TestLatentCommands:
    def test_interpolate(self, model_file, capsys):
        assert main(["interpolate", "--model", str(model_file), "love12", "123456"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("love12") and out.strip().endswith("123456")

    def test_conditional(self, model_file, capsys):
        code = main(
            ["conditional", "--model", str(model_file), "love**",
             "--population", "32", "--rounds", "2", "--top-k", "4"]
        )
        assert code == 0
        for line in capsys.readouterr().out.strip().splitlines():
            assert line.startswith("love") and len(line) == 6

    def test_strength(self, model_file, corpus_file, capsys):
        code = main(
            ["strength", "--model", str(model_file), "--corpus", str(corpus_file),
             "love12", "zq8kfp"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "percentile" in out and "band" in out
        assert "ms/password" in out  # the per-password timing line

    def test_strength_scores_in_one_stacked_flow_call(
        self, model_file, corpus_file, capsys, monkeypatch
    ):
        """The batch-vectorized seam: N passwords != N flow evaluations."""
        from repro.flows.flow import Flow

        shapes = []
        real = Flow.log_prob

        def counting(self, x):
            shapes.append(x.shape)
            return real(self, x)

        monkeypatch.setattr(Flow, "log_prob", counting)
        passwords = [f"pw{i}" for i in range(5)]
        code = main(
            ["strength", "--model", str(model_file), "--corpus", str(corpus_file),
             *passwords]
        )
        assert code == 0
        capsys.readouterr()
        # 1 calibration pass, then one padded 64-row chunk in one flow
        # call; nothing per-password
        assert len(shapes) == 2
        assert shapes[1][:2] == (1, 64)

    def test_strength_unscorable_password_is_reported_not_fatal(
        self, model_file, corpus_file, capsys
    ):
        code = main(
            ["strength", "--model", str(model_file), "--corpus", str(corpus_file),
             "love12", "ÅNGSTRÖM-É"]
        )
        assert code == 0
        assert "unscorable" in capsys.readouterr().out


class TestServe:
    def test_once_mode_scores_from_stdin(self, model_file, corpus_file, capsys, monkeypatch):
        import io
        import json

        lines = "\n".join(
            [
                json.dumps({"op": "ping"}),
                json.dumps({"op": "score", "password": "love12", "id": 1}),
                "not even json",
            ]
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(lines + "\n"))
        code = main(
            ["serve", "--once",
             "--spec", f"strength?model={model_file}&corpus={corpus_file}"]
        )
        assert code == 0
        responses = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert [r["ok"] for r in responses] == [True, True, False]
        assert 0 <= responses[1]["score"] <= 4

    def test_bad_spec_is_one_actionable_line(self, tmp_path):
        with pytest.raises(SystemExit, match="model="):
            main(["serve", "--once", "--spec", "strength?corpus=x"])

    def test_socket_and_port_are_mutually_required(self, model_file, corpus_file):
        with pytest.raises(SystemExit, match="exactly one"):
            main(
                ["serve",
                 "--spec", f"strength?model={model_file}&corpus={corpus_file}"]
            )


@pytest.fixture(scope="module")
def bank_dir(tmp_path_factory, corpus_file):
    path = tmp_path_factory.mktemp("cli") / "markov3.bank"
    code = main(
        [
            "bank", "build",
            "--strategy", "markov:3",
            "--corpus", str(corpus_file),
            "--budget", "2000",
            "--out", str(path),
            "--seed", "9",
        ]
    )
    assert code == 0
    return path


class TestBank:
    def test_build_then_info(self, bank_dir, capsys):
        assert main(["bank", "info", str(bank_dir)]) == 0
        out = capsys.readouterr().out
        assert "markov:3" in out and "total:      2000" in out

    def test_verify_clean(self, bank_dir, capsys):
        assert main(["bank", "verify", str(bank_dir)]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_verify_corrupt_exits_nonzero(self, bank_dir, tmp_path, capsys):
        import shutil

        broken = tmp_path / "broken.bank"
        shutil.copytree(bank_dir, broken)
        keys_path = broken / "keys.npy"
        data = bytearray(keys_path.read_bytes())
        data[-1] ^= 0xFF
        keys_path.write_bytes(bytes(data))
        assert main(["bank", "verify", str(broken)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_build_refuses_feedback_strategy(self, model_file, corpus_file, tmp_path):
        with pytest.raises(SystemExit, match="replayable"):
            main(
                [
                    "bank", "build",
                    "--strategy", "passflow:dynamic",
                    "--model", str(model_file),
                    "--corpus", str(corpus_file),
                    "--budget", "100",
                    "--out", str(tmp_path / "dyn.bank"),
                ]
            )

    def test_attack_bank_matches_live(self, bank_dir, corpus_file, tmp_path, capsys):
        import json

        live_path = tmp_path / "live.json"
        main(
            [
                "attack",
                "--corpus", str(corpus_file),
                "--strategy", "markov:3",
                "--budgets", "200,800",
                "--seed", "9",
                "--report", str(live_path),
            ]
        )
        replay_path = tmp_path / "replay.json"
        code = main(
            [
                "attack",
                "--bank", str(bank_dir),
                "--corpus", str(corpus_file),
                "--budgets", "200,800",
                "--seed", "9",
                "--workers", "2",
                "--report", str(replay_path),
            ]
        )
        assert code == 0
        capsys.readouterr()
        live = json.loads(live_path.read_text())
        replay = json.loads(replay_path.read_text())
        for key in ("rows", "matched_samples", "non_matched_samples", "method"):
            assert replay[key] == live[key]

    def test_attack_bank_budget_overflow_exits(self, bank_dir, corpus_file):
        with pytest.raises(SystemExit, match="cannot be replayed"):
            main(
                [
                    "attack",
                    "--bank", str(bank_dir),
                    "--corpus", str(corpus_file),
                    "--budgets", "100,999999",
                ]
            )


class TestStrategies:
    def test_bankable_column(self, capsys):
        assert main(["strategies", "--bankable"]) == 0
        out = capsys.readouterr().out
        assert "bankable" in out
        assert "feedback-free sampler" in out
        assert "static/conditional only" in out


class TestParser:
    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_unknown_alphabet_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["synthesize", "--count", "1", "--out", str(tmp_path / "x"),
                  "--alphabet", "klingon"])
