"""CLI end-to-end tests (tiny workloads, real subprocess-free invocation)."""

import numpy as np
import pytest

from repro.bank import GuessBank
from repro.cli import main
from repro.utils.text import _clip

#: the specs ``attack`` and ``sample`` run when given no ``--strategy``
ATTACK_DEFAULT = "passflow:dynamic+gs?alpha=1&gamma=2&sigma=0.12"
SAMPLE_DEFAULT = "passflow:static?temperature=0.75"


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

    def test_default_strategy_is_the_static_spec(self, model_file, capsys):
        outputs = []
        for extra in ([], ["--strategy", SAMPLE_DEFAULT]):
            assert main(["sample", "--model", str(model_file), "--count", "30", *extra]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


class TestAttack:
    @pytest.mark.parametrize(
        "strategy",
        [
            "passflow:static?temperature=0.75",
            "passflow:dynamic?alpha=1&gamma=2&sigma=0.12",
            ATTACK_DEFAULT,
        ],
    )
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

    def test_default_strategy_is_the_dynamic_gs_spec(
        self, model_file, corpus_file, tmp_path, capsys
    ):
        reports = []
        for name, extra in (("default", []), ("spec", ["--strategy", ATTACK_DEFAULT])):
            path = tmp_path / f"{name}.json"
            code = main(
                [
                    "attack",
                    "--model", str(model_file),
                    "--corpus", str(corpus_file),
                    "--budgets", "100,300",
                    "--report", str(path),
                    *extra,
                ]
            )
            assert code == 0
            reports.append(path.read_text())
        assert reports[0] == reports[1]
        assert f"with {ATTACK_DEFAULT}," in capsys.readouterr().out

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

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_default_alphabet_bank_matches_live(self, tmp_path, capsys, workers):
        """74 symbols + PAD key at length 10 (75^10 < 2^64): the default
        alphabet banks, verifies and replays like the compact one."""
        import json

        corpus = str(tmp_path / "corpus.txt")
        bank = str(tmp_path / "default.bank")
        common = ["--alphabet", "default", "--corpus", corpus]
        main(["synthesize", "--alphabet", "default", "--count", "1500",
              "--out", corpus, "--seed", "4"])
        main(["attack", *common, "--strategy", "markov:3", "--budgets", "300,1500",
              "--report", str(tmp_path / "live.json")])
        assert main(["bank", "build", *common, "--strategy", "markov:3",
                     "--budget", "1500", "--out", bank]) == 0
        assert main(["bank", "verify", bank]) == 0
        assert main(["attack", "--bank", bank, "--corpus", corpus,
                     "--budgets", "300,1500", "--workers", workers,
                     "--report", str(tmp_path / "replay.json")]) == 0
        capsys.readouterr()
        live = json.loads((tmp_path / "live.json").read_text())
        replay = json.loads((tmp_path / "replay.json").read_text())
        for key in ("rows", "matched_samples", "non_matched_samples", "method"):
            assert replay[key] == live[key]
        assert live["rows"][-1]["matched"] > 0

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
    @pytest.mark.parametrize("command", ["attack", "sample"])
    @pytest.mark.parametrize("flag", ["--alpha", "--sigma", "--gamma", "--temperature"])
    def test_strategy_parameter_flags_are_usage_errors(
        self, model_file, corpus_file, capsys, command, flag
    ):
        """A spec carries every strategy parameter; a flag that once
        overrode one is unknown, not silently ignored or a prefix of
        ``--alphabet``."""
        argv = {
            "attack": ["attack", "--corpus", str(corpus_file), "--strategy", "markov:3"],
            "sample": ["sample", "--model", str(model_file)],
        }[command]
        with pytest.raises(SystemExit) as info:
            main(argv + [flag, "5"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: unrecognized arguments: {flag} 5" in captured.err

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_unknown_alphabet_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["synthesize", "--count", "1", "--out", str(tmp_path / "x"),
                  "--alphabet", "klingon"])


def _one_line_failure(argv, capsys):
    """Run a command that must fail cleanly; return its one error line.

    ``SystemExit`` with a string code is how the CLI exits 1 with that
    string as its only stderr line.
    """
    with pytest.raises(SystemExit) as info:
        main(argv)
    message = info.value.code
    assert isinstance(message, str) and message and "\n" not in message
    assert capsys.readouterr().out == ""
    return message


def _nested_spec(depth):
    spec = "markov:3"
    for _ in range(depth):
        spec = f"policy({spec})?min_len=1"
    return spec


@pytest.fixture(scope="module")
def hostile_checkpoints(tmp_path_factory):
    """Model files that cannot load, by name."""
    from repro.utils.serialization import save_checkpoint

    root = tmp_path_factory.mktemp("hostile-models")
    (root / "garbage.npz").write_bytes(b"garbage")
    np.savez(root / "no-metadata.npz", weights=np.zeros(2))
    save_checkpoint(root / "unknown-config-key.npz", {}, {"config": {"bogus": 1}})
    save_checkpoint(root / "list-metadata.npz", {}, [1, 2])
    return root


CHECKPOINTS = [
    "missing.npz",
    "garbage.npz",
    "no-metadata.npz",
    "unknown-config-key.npz",
    "list-metadata.npz",
]

MANIFESTS = {
    "list": lambda good: [],
    "string": lambda good: "x",
    "version": lambda good: dict(good, version="x"),
    "no-codec": lambda good: {k: v for k, v in good.items() if k != "codec"},
    "total": lambda good: dict(good, total="many"),
}


def _rewrite_manifest(**fields):
    """A damage that merges ``fields`` into a bank's manifest (``codec``
    merges into the codec header)."""

    def damage(bank):
        import json

        path = bank / "manifest.json"
        manifest = json.loads(path.read_text())
        for name, value in fields.items():
            if name == "codec":
                manifest["codec"].update(value)
            else:
                manifest[name] = value
        path.write_text(json.dumps(manifest))

    return damage


def _truncate_keys(bank):
    path = bank / "keys.npy"
    path.write_bytes(path.read_bytes()[:200])


def _stale_segments(bank):
    (bank / "segments.npy").write_bytes(b"garbage")


def _flip_key_byte(bank):
    path = bank / "keys.npy"
    data = bytearray(path.read_bytes())
    data[-1] ^= 0xFF
    path.write_bytes(bytes(data))


def _long_path(bank):
    """A path over 5000 characters, which the system refuses to look up
    (``ENAMETOOLONG``) whether or not it exists."""
    return bank / ("x" * 5000) / "hostile.bank"


#: damaged bank artifacts -> the error line every bank command prints,
#: or None when the bank still opens (verify alone sees a flipped key);
#: a damage that returns a path sends the commands there instead
HOSTILE_BANKS = {
    "v1-manifest": (
        _rewrite_manifest(version=1, segments=1, codec={"pack_bits": 6}),
        "has format version 1; this build reads version 2: rebuild the bank",
    ),
    "unfit-codec": (
        _rewrite_manifest(codec={"alphabet": "ab", "max_length": 80}),
        "unusable codec header: a 3-symbol alphabet",
    ),
    "huge-max-length": (
        _rewrite_manifest(codec={"max_length": 1000000000}),
        "unusable codec header: ",
    ),
    "infinite-max-length": (
        _rewrite_manifest(codec={"max_length": float("inf")}),
        "unusable codec header: cannot convert float infinity",
    ),
    "truncated-keys": (_truncate_keys, "cannot map"),
    "stale-segments": (_stale_segments, None),
    "flipped-key-byte": (_flip_key_byte, None),
    "long-path": (_long_path, "cannot read bank at "),
}


class TestHostileInput:
    """Untrusted input fails with one line, never a traceback."""

    def test_deeply_nested_spec_exits_with_one_line(self, corpus_file):
        import os
        import subprocess
        import sys
        from pathlib import Path

        from repro.strategies.registry import MAX_SPEC_DEPTH

        src = Path(__file__).resolve().parents[1] / "src"
        result = subprocess.run(
            [
                sys.executable, "-m", "repro", "attack",
                "--corpus", str(corpus_file),
                "--strategy", _nested_spec(1200),
                "--budgets", "100",
            ],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr.splitlines() == [
            f"spec nests wrappers more than {MAX_SPEC_DEPTH} deep"
        ]

    @pytest.mark.parametrize("checkpoint", CHECKPOINTS)
    @pytest.mark.parametrize("command", ["attack", "serve"])
    def test_unloadable_checkpoint_is_one_line(
        self, hostile_checkpoints, corpus_file, capsys, checkpoint, command
    ):
        model = hostile_checkpoints / checkpoint
        argv = {
            "attack": [
                "attack", "--model", str(model), "--corpus", str(corpus_file),
                "--strategy", "passflow:static", "--budgets", "100",
            ],
            "serve": [
                "serve", "--once",
                "--spec", f"strength?model={model}&corpus={corpus_file}",
            ],
        }[command]
        message = _one_line_failure(argv, capsys)
        assert message.startswith(f"cannot load model {_clip(model)}: ")

    @pytest.mark.parametrize("occupant", ["regular-file", "live-daemon", "missing-dir"])
    def test_serve_socket_it_cannot_replace_is_one_line(
        self, bank_dir, tmp_path, capsys, occupant
    ):
        from repro.serve import ScoringServer, ServeApp, ServeClient

        path = tmp_path / "serve.sock"
        live = None
        if occupant == "regular-file":
            path.write_bytes(b"keep me")
        elif occupant == "live-daemon":
            live = ScoringServer(ServeApp([f"bank:{bank_dir}"]), socket_path=str(path))
            live.start()
        else:
            path = tmp_path / "missing" / "serve.sock"
        try:
            message = _one_line_failure(
                ["serve", "--spec", f"bank:{bank_dir}", "--socket", str(path)], capsys
            )
            assert message.startswith(f"cannot serve on {_clip(path)}: ")
            if live is not None:
                with ServeClient(socket_path=str(path)) as client:
                    assert client.request(op="ping")["ok"]
        finally:
            if live is not None:
                live.stop()
        if occupant == "regular-file":
            assert path.read_bytes() == b"keep me"

    @pytest.mark.parametrize(
        "spec",
        [
            "passflow:static?gs=true&gs_scale=nan",
            "passflow:static?gs=true&gs_scale=inf",
            "passflow:static?temperature=nan",
            "passflow:static?temperature=-1",
            "passflow:static?batch=0",
            "markov:3?batch=0",
            "markov:3?smoothing=nan",
            "markov:3?" + "&".join(f"p{i}=1" for i in range(12000)),
            "markov:3?" + "&".join(["a=1"] * 25000),
        ],
        ids=lambda spec: spec if len(spec) < 60 else f"flat-{len(spec)}-chars",
    )
    def test_refused_spec_value_is_one_short_line(
        self, model_file, corpus_file, capsys, spec
    ):
        message = _one_line_failure(
            [
                "attack", "--model", str(model_file), "--corpus", str(corpus_file),
                "--strategy", spec, "--budgets", "100",
            ],
            capsys,
        )
        assert len(message) < 300

    @pytest.mark.parametrize(
        "command, prefix",
        [
            (
                ["attack", "--strategy", "markov:" + "A" * 100000],
                "markov variant must be an integer order",
            ),
            (
                ["attack", "--strategy", "passflow:dynamic?phi=" + "A" * 100000],
                "unknown phi",
            ),
            (
                ["attack", "--strategy", "passflow:" + "A" * 100000],
                "unknown passflow variant",
            ),
            (
                [
                    "serve", "--once", "--spec",
                    "strength?" + "&".join(f"p{i}=1" for i in range(12000)),
                ],
                "unknown parameter(s) p0, p1, p10, p100, p1000 and 11995 more "
                "for serve spec 'strength'",
            ),
            (
                [
                    "serve", "--once", "--spec",
                    "bank:x.bank?" + "&".join(f"p{i}=1" for i in range(12000)),
                ],
                "unknown parameter(s) p0, p1, p10, p100, p1000 and 11995 more "
                "for serve spec 'bank'",
            ),
            (
                ["serve", "--once", "--spec", "A" * 100000],
                "serve spec family must be strength or bank",
            ),
        ],
        ids=[
            "markov-variant",
            "passflow-phi",
            "passflow-variant",
            "serve-strength-params",
            "serve-bank-params",
            "serve-family",
        ],
    )
    def test_long_spec_text_is_clipped(
        self, model_file, corpus_file, capsys, command, prefix
    ):
        if command[0] == "attack":
            command = command + [
                "--model", str(model_file), "--corpus", str(corpus_file),
                "--budgets", "100",
            ]
        message = _one_line_failure(command, capsys)
        assert message.startswith(prefix)
        assert len(message) < 300

    @pytest.mark.parametrize("manifest", sorted(MANIFESTS))
    @pytest.mark.parametrize("command", ["info", "verify", "attack", "serve"])
    def test_malformed_manifest_is_one_line(
        self, bank_dir, corpus_file, tmp_path, capsys, manifest, command
    ):
        import json
        import shutil

        bank = tmp_path / "hostile.bank"
        shutil.copytree(bank_dir, bank)
        good = json.loads((bank / "manifest.json").read_text())
        (bank / "manifest.json").write_text(json.dumps(MANIFESTS[manifest](good)))
        argv = {
            "info": ["bank", "info", str(bank)],
            "verify": ["bank", "verify", str(bank)],
            "attack": [
                "attack", "--bank", str(bank), "--corpus", str(corpus_file),
                "--budgets", "100",
            ],
            "serve": ["serve", "--once", "--spec", f"bank:{bank}"],
        }[command]
        _one_line_failure(argv, capsys)

    @pytest.fixture(scope="class")
    def unusable_corpora(self, tmp_path_factory):
        """Corpora the Sec. IV-D filter empties: no line, and only NULs
        and latin-1 bytes outside every alphabet."""
        root = tmp_path_factory.mktemp("unusable-corpora")
        (root / "empty.txt").write_bytes(b"")
        (root / "nul.txt").write_bytes(b"\xff\xff\n\x00\n\x00\x00\n")
        return root

    @pytest.mark.parametrize("corpus", ["empty.txt", "nul.txt"])
    @pytest.mark.parametrize(
        "command", ["attack", "target", "bank-attack", "train", "bank-build", "strength"]
    )
    def test_unusable_corpus_is_one_line(
        self, unusable_corpora, corpus_file, model_file, bank_dir, tmp_path, capsys,
        corpus, command,
    ):
        bad = str(unusable_corpora / corpus)
        argv = {
            "attack": [
                "attack", "--corpus", bad, "--strategy", "markov:3", "--budgets", "100",
            ],
            "target": [
                "attack", "--corpus", str(corpus_file), "--target-corpus", bad,
                "--strategy", "markov:3", "--budgets", "100",
            ],
            "bank-attack": [
                "attack", "--bank", str(bank_dir), "--corpus", bad, "--budgets", "100",
            ],
            "train": ["train", "--corpus", bad, "--out", str(tmp_path / "m.npz")],
            "bank-build": [
                "bank", "build", "--strategy", "markov:3", "--corpus", bad,
                "--budget", "100", "--out", str(tmp_path / "b.bank"),
            ],
            "strength": [
                "strength", "--model", str(model_file), "--corpus", bad, "love12",
            ],
        }[command]
        message = _one_line_failure(argv, capsys)
        assert message == (
            f"no usable password in {_clip(bad)}: every line is empty, longer than "
            "10 characters or outside the alphabet"
        )

    @pytest.mark.parametrize("artifact", sorted(HOSTILE_BANKS))
    @pytest.mark.parametrize(
        "command", ["info", "verify", "attack", "serve", "lookup"]
    )
    def test_hostile_bank(
        self, bank_dir, corpus_file, tmp_path, capsys, monkeypatch, artifact, command
    ):
        import io
        import json
        import shutil
        import time

        bank = tmp_path / "hostile.bank"
        shutil.copytree(bank_dir, bank)
        damage, error = HOSTILE_BANKS[artifact]
        bank = damage(bank) or bank
        if command == "lookup" and error is not None:
            # an unreadable bank, or directory, is a lookup miss
            error = "no bank for spec='markov:3' seed=9 label='' under "
        good = GuessBank.open(bank_dir)
        first = good.codec.strings_from_keys(np.asarray(good.keys[:1]))[0]
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(json.dumps({"op": "lookup", "password": first}))
        )
        argv = {
            "info": ["bank", "info", str(bank)],
            "verify": ["bank", "verify", str(bank)],
            "attack": [
                "attack", "--bank", str(bank), "--corpus", str(corpus_file),
                "--budgets", "100",
            ],
            "serve": ["serve", "--once", "--spec", f"bank:{bank}"],
            "lookup": [
                "attack", "--corpus", str(corpus_file), "--budgets", "100",
                "--strategy", f"bank?spec=markov:3&seed=9&dir={bank.parent}",
            ],
        }[command]
        if error is not None:
            started = time.perf_counter()
            message = _one_line_failure(argv, capsys)
            assert error in message
            assert len(message.encode()) < 300
            if artifact == "huge-max-length":  # refused before any V ** D
                assert time.perf_counter() - started < 1.0
        elif artifact == "flipped-key-byte" and command == "verify":
            assert main(argv) == 1
            assert capsys.readouterr().out.startswith("FAIL: keys checksum mismatch")
        else:
            assert main(argv) == 0
            out = capsys.readouterr().out
            if command == "verify":
                assert out.startswith("ok: ")
            if command == "serve" and artifact == "stale-segments":
                assert json.loads(out)["rank"] == 1

    @pytest.fixture(scope="class")
    def long_path(self, tmp_path_factory):
        """A missing path of over 3800 characters: 19 components of 200."""
        return str(tmp_path_factory.mktemp("long") / "/".join(["x" * 200] * 19))

    @pytest.mark.parametrize(
        "command",
        [
            "bank-info",
            "attack-corpus",
            "train-corpus",
            "attack-model",
            "strength-model",
            "serve-model",
            "serve-corpus",
            "serve-socket",
        ],
    )
    def test_long_missing_path_is_one_short_line(
        self, long_path, model_file, corpus_file, bank_dir, tmp_path, capsys, command
    ):
        argv = {
            "bank-info": ["bank", "info", long_path],
            "attack-corpus": [
                "attack", "--corpus", long_path, "--strategy", "markov:3",
                "--budgets", "100",
            ],
            "train-corpus": ["train", "--corpus", long_path, "--out", str(tmp_path / "m.npz")],
            "attack-model": [
                "attack", "--model", long_path, "--corpus", str(corpus_file),
                "--strategy", "passflow:static", "--budgets", "100",
            ],
            "strength-model": ["strength", "--model", long_path, "love12"],
            "serve-model": [
                "serve", "--once", "--spec", f"strength?model={long_path}&corpus={corpus_file}",
            ],
            "serve-corpus": [
                "serve", "--once", "--spec", f"strength?model={model_file}&corpus={long_path}",
            ],
            "serve-socket": ["serve", "--spec", f"bank:{bank_dir}", "--socket", long_path],
        }[command]
        message = _one_line_failure(argv, capsys)
        assert message.count(_clip(long_path)) == 1
        assert len(message.encode()) < 300

    @pytest.mark.parametrize("command", ["attack", "train", "bank-build", "synthesize"])
    def test_unwritable_output_is_one_line_before_the_work(
        self, corpus_file, tmp_path, capsys, monkeypatch, command
    ):
        blocker = tmp_path / "corpus.txt"
        blocker.write_text("keep me\n")
        out = str(blocker / "x")

        def work(*args, **kwargs):
            raise AssertionError("the work started before the output was checked")

        monkeypatch.setattr("repro.runtime.run_attack", work)
        monkeypatch.setattr("repro.core.model.PassFlow.fit", work)
        monkeypatch.setattr("repro.bank.build_bank", work)
        argv, what = {
            "attack": (
                [
                    "attack", "--corpus", str(corpus_file), "--strategy", "markov:3",
                    "--budgets", "100", "--report", out,
                ],
                "report",
            ),
            "train": (["train", "--corpus", str(corpus_file), "--out", out], "model"),
            "bank-build": (
                [
                    "bank", "build", "--strategy", "markov:3", "--corpus",
                    str(corpus_file), "--budget", "100", "--out", out,
                ],
                "bank",
            ),
            "synthesize": (["synthesize", "--count", "10", "--out", out], "corpus"),
        }[command]
        message = _one_line_failure(argv, capsys)
        assert message.startswith(f"cannot write {what} to {_clip(out)}: ")
        assert len(message.encode()) < 300
        assert blocker.read_text() == "keep me\n"
