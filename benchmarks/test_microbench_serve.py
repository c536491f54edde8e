"""Micro-benchmarks: the serving tier's batched-scoring claim.

The daemon's pitch is that micro-batching amortizes the flow's per-call
fixed costs: one request per flow evaluation (what a naive scoring
service pays, and exactly what the scalar :meth:`StrengthEstimator.score`
path costs) versus up to ``max_batch`` requests per evaluation.  Three
acceptance bars:

* ``test_batched_throughput_floor`` -- ``score_batch`` over a probe set
  must beat the scalar loop by >= 3x wall time (>= 1.5x under ``CI=true``,
  the suite's relaxed-CI convention);
* ``test_stacked_audit_floor`` -- a 1024-password ``log_prob_batch``,
  which stacks its 16 chunks into one flow pass, must beat one flow call
  per 64-row chunk (the loop it replaced) by >= 1.4x (>= 1.15x under
  ``CI=true``);
* ``test_daemon_p99_latency_ceiling`` -- a closed-loop 8-client soak
  through a threaded :class:`ServeApp` must keep p99 request latency
  under a generous ceiling, and must actually batch (fewer flushes than
  requests) -- the regression this catches is a scheduler that degrades
  to one-request batches or parks requests in front of an idle worker.
  Requests that arrive while a flush runs leave together in the next
  one, so eight closed loops batch without any wait timer.

All three run on the in-process scoring path (no sockets): transport cost is
negligible next to flow evaluation and would only add CI noise.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from benchmarks.conftest import assert_speedup, speedup_floor
from repro.core.strength import EVAL_ROWS, StrengthEstimator
from repro.serve import ServeApp

PROBE = 192  # passwords per throughput measurement
AUDIT = 1024  # passwords per audit request (one stacked flow pass)
SOAK_CLIENTS = 8
SOAK_REQUESTS = 40  # per client, closed loop

#: p99 ceiling for single-password requests against a quick-profile model,
#: milliseconds.  A healthy daemon sits far below; the ceiling is a
#: tripwire for scheduler regressions, not a tight latency SLO.
P99_CEILING_MS = 150.0
P99_CEILING_MS_CI = 400.0


@pytest.fixture(scope="module")
def estimator(model, ctx):
    est = StrengthEstimator(model)
    est.calibrate(ctx.corpus[:2000])
    return est


@pytest.fixture(scope="module")
def serve_app(tmp_path_factory, model, ctx):
    tmp = tmp_path_factory.mktemp("serve-bench")
    model_path = tmp / "model.npz"
    model.save(model_path)
    corpus_path = tmp / "reference.txt"
    corpus_path.write_text("\n".join(ctx.corpus[:2000]) + "\n")
    app = ServeApp(
        [f"strength?model={model_path}&corpus={corpus_path}&sample=2000"],
        max_batch=64,
    )
    app.start()
    yield app
    app.close()


def test_batched_throughput_floor(estimator, ctx):
    passwords = ctx.corpus[:PROBE]

    def serial():
        for password in passwords:
            estimator.score(password)

    def batched():
        estimator.score_batch(passwords)

    assert_speedup(
        serial,
        batched,
        speedup_floor(3.0, 1.5),
        f"score_batch vs scalar loop over {PROBE} passwords",
    )


def test_stacked_audit_floor(estimator, ctx):
    passwords = ctx.corpus[:AUDIT]
    model = estimator.model

    def per_chunk():
        out = np.empty(len(passwords))
        for start in range(0, len(passwords), EVAL_ROWS):
            rows = passwords[start : start + EVAL_ROWS]
            padded = rows + [rows[0]] * (EVAL_ROWS - len(rows))
            out[start : start + len(rows)] = model.log_prob(padded)[: len(rows)]
        return out

    assert np.array_equal(estimator.log_prob_batch(passwords), per_chunk())
    assert_speedup(
        per_chunk,
        lambda: estimator.log_prob_batch(passwords),
        speedup_floor(1.4, 1.15),
        f"stacked log_prob_batch vs one flow call per chunk over {AUDIT} passwords",
    )


def test_daemon_p99_latency_ceiling(serve_app, ctx):
    import json

    pools = [
        ctx.corpus[i :: SOAK_CLIENTS][:SOAK_REQUESTS] for i in range(SOAK_CLIENTS)
    ]
    failures: list = []

    def client(idx: int) -> None:
        for password in pools[idx]:
            line = json.dumps({"op": "score", "password": password})
            response = json.loads(serve_app.handle_line(line))
            if not response.get("ok"):
                failures.append(response)

    threads = [
        threading.Thread(target=client, args=(i,)) for i in range(SOAK_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
    assert not failures, failures[:3]

    stats = serve_app.stats_payload()
    served = SOAK_CLIENTS * SOAK_REQUESTS
    assert stats["requests"] >= served
    # micro-batching must actually happen under 8 concurrent closed loops
    assert stats["batches"] < served
    assert stats["mean_batch_size"] > 1.0
    ceiling = speedup_floor(P99_CEILING_MS, P99_CEILING_MS_CI)
    p99 = stats["latency"]["p99_ms"]
    assert p99 <= ceiling, (
        f"p99 request latency {p99:.1f} ms over the {ceiling:.0f} ms ceiling "
        f"(mean batch {stats['mean_batch_size']}, "
        f"histogram {stats['batch_size_histogram']})"
    )
