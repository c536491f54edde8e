"""End-to-end daemon tests: sockets, concurrency, and the determinism contract.

The soak test is the PR's acceptance criterion: many concurrent clients
hammering the daemon must each read back *bitwise* the answers serial
:meth:`StrengthEstimator.score` / ``log_prob`` calls produce -- whatever
micro-batch interleaving their requests happened to land in.
"""

from __future__ import annotations

import io
import json
import threading

import numpy as np
import pytest

from repro.core.strength import StrengthEstimator
from repro.serve import (
    ScoringServer,
    ServeApp,
    ServeClient,
    ServeConfigError,
    run_once,
)


@pytest.fixture(scope="module")
def serial_estimator(trained_model, corpus):
    """The reference scorer: same model and calibration as the daemon spec."""
    estimator = StrengthEstimator(trained_model)
    estimator.calibrate(corpus[:500])
    return estimator


@pytest.fixture()
def server(strength_spec, tmp_path):
    app = ServeApp([strength_spec], max_batch=16)
    srv = ScoringServer(app, socket_path=str(tmp_path / "serve.sock")).start()
    yield srv
    srv.stop()


class TestOnceMode:
    """``serve --once``: the socket-free line loop."""

    def run(self, spec, lines):
        app = ServeApp([spec])
        out = io.StringIO()
        assert run_once(app, io.StringIO("\n".join(lines) + "\n"), out) == 0
        return [json.loads(line) for line in out.getvalue().splitlines()]

    def test_smoke(self, strength_spec):
        responses = self.run(
            strength_spec,
            [
                json.dumps({"op": "ping"}),
                json.dumps({"op": "score", "password": "love12", "id": 1}),
                "",  # blank lines are skipped, not answered
                json.dumps({"op": "band", "passwords": ["love12", "zq8kfp"]}),
                json.dumps({"op": "stats"}),
            ],
        )
        assert len(responses) == 4
        ping, score, band, stats = responses
        assert ping == {"ok": True, "op": "ping"}
        assert score["ok"] and score["id"] == 1 and 0 <= score["score"] <= 4
        assert band["ok"] and len(band["bands"]) == 2 and band["count"] == 2
        assert stats["ok"] and stats["requests"] >= 3

    def test_malformed_lines_get_errors_and_never_crash(self, strength_spec):
        responses = self.run(
            strength_spec,
            [
                "garbage {{{",
                json.dumps({"op": "nope"}),
                json.dumps({"op": "score"}),
                json.dumps({"op": "score", "password": "love12"}),
            ],
        )
        assert [r["ok"] for r in responses] == [False, False, False, True]
        assert all("error" in r for r in responses[:3])

    def test_shutdown_request_ends_the_loop(self, strength_spec):
        responses = self.run(
            strength_spec,
            [
                json.dumps({"op": "shutdown"}),
                json.dumps({"op": "ping"}),  # after shutdown: never served
            ],
        )
        assert len(responses) == 1
        assert responses[0] == {"ok": True, "op": "shutdown"}

    def test_unscorable_password_is_a_sentinel_not_an_error(self, strength_spec):
        [response] = self.run(
            strength_spec,
            [json.dumps({"op": "score", "password": "é" * 40})],
        )
        assert response["ok"]
        assert response["score"] == -1
        assert response["band"] == "unscorable"
        assert response["log_prob"] is None


class TestConfig:
    def test_no_specs_is_a_config_error(self):
        with pytest.raises(ServeConfigError, match="at least one"):
            ServeApp([])

    def test_unknown_family_is_a_config_error(self):
        with pytest.raises(ServeConfigError, match="strength or bank"):
            ServeApp(["markov:3"])

    def test_strength_without_model_is_a_config_error(self):
        with pytest.raises(ServeConfigError, match="model="):
            ServeApp(["strength?corpus=x.txt"])

    def test_missing_checkpoint_is_one_line(self, tmp_path):
        with pytest.raises(ServeConfigError, match="cannot load model"):
            ServeApp([f"strength?model={tmp_path}/no.npz&corpus={tmp_path}/no.txt"])

    @pytest.mark.parametrize("param, value", [("sample", "-250"), ("sample", "abc")])
    def test_counts_must_be_positive_integers(self, strength_spec, param, value):
        # strength_spec already sets sample=500; drop it so each case sets its own
        base = strength_spec.replace("&sample=500", "")
        with pytest.raises(ServeConfigError, match=f"{param} must be a positive integer") as info:
            ServeApp([f"{base}&{param}={value}"])
        message = str(info.value)
        assert value in message and "\n" not in message

    @pytest.mark.parametrize("value", ["0", "-3", "abc"])
    def test_unknown_strength_parameter_is_one_line(self, strength_spec, value):
        # the removed batch= knob is unknown whatever its value
        with pytest.raises(ServeConfigError) as info:
            ServeApp([f"{strength_spec}&batch={value}"])
        assert str(info.value) == "unknown parameter(s) batch for serve spec 'strength'"


class TestSocketServer:
    def test_request_response_over_unix_socket(self, server):
        with ServeClient(socket_path=server.address) as client:
            assert client.request(op="ping") == {"ok": True, "op": "ping"}
            response = client.request(op="score", password="love12", id="a")
            assert response["ok"] and response["id"] == "a"

    def test_pipelined_requests_come_back_in_order(self, server):
        with ServeClient(socket_path=server.address) as client:
            for i in range(20):
                client.send({"op": "score", "password": f"pw{i}", "id": i})
            responses = [client.recv() for _ in range(20)]
        assert [r["id"] for r in responses] == list(range(20))
        assert all(r["ok"] for r in responses)

    @pytest.mark.parametrize(
        "line, error",
        [
            ("}{ not json", "not valid JSON"),
            ('{"op":"guess_number","password":"x","sample_size":1e999}',
             "'sample_size' must be a finite number"),
            ('{"op":"guess_number","password":"x","sample_size":NaN}',
             "'sample_size' must be a finite number"),
            ('{"op":"lookup","password":"x","top":Infinity}',
             "'top' must be a finite number"),
            ('{"op":"score","password":"x","deadline_ms":NaN}',
             "'deadline_ms' must be a finite number"),
        ],
    )
    def test_malformed_socket_traffic_never_kills_the_daemon(self, server, line, error):
        with ServeClient(socket_path=server.address) as client:
            # one write: the ping is pipelined behind the bad line
            client._sock.sendall((line + '\n{"op":"ping"}\n').encode())
            response = client.recv()
            assert response["ok"] is False and error in response["error"]
            # the connection and the daemon both survive
            assert client.recv() == {"ok": True, "op": "ping"}
        with ServeClient(socket_path=server.address) as fresh:
            assert fresh.request(op="ping")["ok"]

    def test_stats_reflect_served_requests(self, server):
        with ServeClient(socket_path=server.address) as client:
            for i in range(8):
                client.send({"op": "score", "password": f"pw{i}", "id": i})
            for _ in range(8):
                client.recv()
            stats = client.request(op="stats")
        assert stats["ok"]
        assert stats["passwords"] >= 8
        assert stats["batches"] >= 1
        assert sum(stats["batch_size_histogram"].values()) == stats["batches"]
        assert stats["queue_depth"] == 0  # everything drained
        latency = stats["latency"]
        assert 0 <= latency["p50_ms"] <= latency["p99_ms"] <= latency["max_ms"]

    def test_shutdown_request_stops_the_server(self, server):
        with ServeClient(socket_path=server.address) as client:
            assert client.request(op="shutdown")["ok"]
        assert server.wait(timeout=10.0)


class TestDeterminismSoak:
    """Concurrent batched scoring == serial scoring, bitwise."""

    CLIENTS = 6
    REQUESTS_PER_CLIENT = 25

    def test_batched_answers_are_bitwise_serial(
        self, server, serial_estimator, corpus
    ):
        # distinct password mix per client, drawn from the calibrated corpus
        pools = [
            corpus[i :: self.CLIENTS][: self.REQUESTS_PER_CLIENT]
            for i in range(self.CLIENTS)
        ]
        results: dict = {}
        errors: list = []

        def client_worker(idx: int) -> None:
            try:
                with ServeClient(socket_path=server.address) as client:
                    # pipeline everything: maximizes cross-client batching
                    for j, password in enumerate(pools[idx]):
                        client.send({"op": "score", "password": password, "id": j})
                    results[idx] = [client.recv() for _ in pools[idx]]
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append((idx, exc))

        threads = [
            threading.Thread(target=client_worker, args=(i,))
            for i in range(self.CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors, errors
        assert sorted(results) == list(range(self.CLIENTS))

        for idx, pool in enumerate(pools):
            for j, password in enumerate(pool):
                response = results[idx][j]
                assert response["ok"], response
                assert response["id"] == j
                # bitwise: JSON round-trips Python floats exactly
                assert response["score"] == serial_estimator.score(password)
                assert response["log_prob"] == serial_estimator.log_prob(password)
                assert response["percentile"] == serial_estimator.percentile(password)

        # micro-batching actually happened: with 6 pipelining clients the
        # histogram cannot be all singleton batches
        with ServeClient(socket_path=server.address) as client:
            stats = client.request(op="stats")
        assert stats["requests"] >= self.CLIENTS * self.REQUESTS_PER_CLIENT
        assert stats["batches"] < self.CLIENTS * self.REQUESTS_PER_CLIENT


class TestSocketPath:
    """``socket_path`` replaces only a dead daemon's socket; the paths it
    refuses are one CLI line each (``tests/test_cli.py``)."""

    def test_stale_socket_is_replaced(self, strength_spec, tmp_path):
        import socket

        path = tmp_path / "stale.sock"
        dead = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        dead.bind(str(path))  # bound, never listening: refuses like a killed daemon
        dead.close()
        app = ServeApp([strength_spec], max_batch=16)
        srv = ScoringServer(app, socket_path=str(path)).start()
        try:
            with ServeClient(socket_path=str(path)) as client:
                assert client.request(op="ping") == {"ok": True, "op": "ping"}
        finally:
            srv.stop()
        assert not path.exists()
