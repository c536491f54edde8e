"""Threads in the kernel layer: the BLAS pin and the coupling's s/t split.

* Importing :mod:`repro` sets an OpenBLAS numpy to one BLAS thread; a
  library without the known thread-count symbols is left alone.
* The numpy backend's ``mlp_forward_pair`` offers a coupling's scale net
  to a helper thread and runs its translate net in the caller for
  batches of ``SPLIT_ROWS`` rows or more; a caller that finishes before
  the helper starts takes the offer back.  Each network runs the same
  operations on either thread, so the split never moves a bit; an
  exception in the helper re-raises in the caller; a second concurrent
  caller, finding the helper busy, runs both networks itself.

The split is forced on (``_split``) so these run on one-CPU machines too.
Which thread runs an offered network depends on scheduling, so tests
that need the helper to run it hold the caller until it has started.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro import kernels
from repro.core.model import PassFlow, PassFlowConfig
from repro.kernels import blas
from repro.kernels import numpy_backend as nb

SRC = Path(__file__).resolve().parents[2] / "src"
JOIN_TIMEOUT_S = 60.0


def random_model(config: PassFlowConfig) -> PassFlow:
    """An untrained model with non-trivial weights (no fit needed)."""
    model = PassFlow(config)
    rng = np.random.default_rng(config.seed)
    for param in model.flow.parameters():
        param.data[...] = rng.normal(size=param.data.shape) * 0.1
    model.flow.eval()
    return model


@pytest.fixture(scope="module")
def flow():
    return random_model(PassFlowConfig.small(seed=6)).flow


@pytest.fixture
def split_on(monkeypatch):
    monkeypatch.setattr(nb, "_split", True)


@pytest.fixture
def calls(monkeypatch):
    """The thread of every ``mlp_forward`` call, through the module global."""
    seen: list = []
    plain = nb.mlp_forward

    def recording(params, x, num_blocks):
        seen.append(threading.current_thread().name)
        return plain(params, x, num_blocks)

    monkeypatch.setattr(nb, "mlp_forward", recording)
    return seen


def nets(flow):
    coupling = next(b for b in flow.bijectors if hasattr(b, "scale_net"))
    return coupling.scale_net.kernel_params(), coupling.translate_net.kernel_params()


def sequential(fn, monkeypatch):
    monkeypatch.setattr(nb, "_split", False)
    try:
        return fn()
    finally:
        monkeypatch.setattr(nb, "_split", True)


# ----------------------------------------------------------------------
# BLAS
# ----------------------------------------------------------------------
class TestBlasPin:
    def test_import_repro_runs_openblas_at_one_thread(self):
        if "openblas" not in (blas.library_name() or ""):
            pytest.skip("numpy is not built against OpenBLAS here")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            env.pop(name, None)
        script = (
            "import json, repro\n"
            "from repro.kernels import blas\n"
            "print(json.dumps(blas.describe()))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=120, check=True,
        ).stdout
        described = json.loads(out.strip().splitlines()[-1])
        assert described["threads"] == 1, described
        assert described["library"] == blas.library_name()

    def test_set_threads_round_trips(self):
        if blas.threads() is None:
            pytest.skip("no known BLAS thread-count symbol here")
        try:
            assert blas.set_threads(2)
            assert blas.threads() == 2
        finally:
            blas.set_threads(1)
        assert blas.threads() == 1

    def test_library_without_known_symbols_is_not_bound(self):
        libc = ctypes.util.find_library("c")
        if libc is not None:
            assert blas.bind(ctypes.CDLL(libc)) is None
        assert blas.bind(object()) is None

    def test_unmanaged_blas_is_left_alone(self, monkeypatch):
        monkeypatch.setattr(blas, "_binding", lambda: None)
        assert blas.set_threads(1) is False
        assert blas.threads() is None
        assert blas.describe()["threads"] is None


# ----------------------------------------------------------------------
# the s/t split
# ----------------------------------------------------------------------
@pytest.fixture
def offered(monkeypatch):
    """Rows of every network offered to the helper."""
    rows: list = []

    class Recorded(nb._Task):
        __slots__ = ()

        def __init__(self, params, x, num_blocks):
            super().__init__(params, x, num_blocks)
            rows.append(x.size // x.shape[-1])

    monkeypatch.setattr(nb, "_Task", Recorded)
    return rows


def helper_runs_first(monkeypatch, second, on_helper=lambda: None):
    """Hold each caller's ``second`` network until the helper has started
    a network, so a split is never taken back; ``on_helper`` runs on the
    helper first.  Returns the thread name of every network call."""
    plain = nb.mlp_forward
    started = threading.Event()
    names: list = []

    def gated(params, x, num_blocks):
        name = threading.current_thread().name
        names.append(name)
        if name == "mlp-helper":
            started.set()
            on_helper()
        elif params is second:
            assert started.wait(JOIN_TIMEOUT_S)
        return plain(params, x, num_blocks)

    monkeypatch.setattr(nb, "mlp_forward", gated)
    return names


@pytest.mark.usefixtures("split_on")
class TestSplitBits:
    @pytest.mark.parametrize("rows", [511, 512, 2048])
    def test_flow_calls_equal_sequential_calls(
        self, flow, rows, monkeypatch, calls, offered
    ):
        rng = np.random.default_rng(rows)
        z = rng.normal(size=(rows, flow.dim))
        x = rng.uniform(0.05, 0.95, size=(rows, flow.dim))
        with kernels.use_backend("numpy"):
            expected = sequential(
                lambda: (flow.decode(z), flow.encode(x), flow.log_prob(x)), monkeypatch
            )
            calls.clear()
            split = (flow.decode(z), flow.encode(x), flow.log_prob(x))
        for got, want in zip(split, expected):
            assert np.array_equal(got, want)
        if rows >= nb.SPLIT_ROWS:  # every coupling offers its scale net
            assert offered == [rows] * (len(calls) // 2)
        else:
            assert offered == [] and "mlp-helper" not in calls

    def test_stacked_batches_equal_sequential_and_per_slice(
        self, flow, monkeypatch, calls, offered
    ):
        rng = np.random.default_rng(16)
        x = rng.uniform(0.05, 0.95, size=(16, 64, flow.dim))
        with kernels.use_backend("numpy"):
            expected = sequential(lambda: flow.log_prob(x), monkeypatch)
            calls.clear()
            split = flow.log_prob(x)
            alone = np.stack([flow.log_prob(chunk) for chunk in x])
        assert offered[0] == 16 * 64
        assert np.array_equal(split, expected)
        assert np.array_equal(split, alone)

    def test_helper_and_caller_networks_keep_their_bits(self, flow, monkeypatch):
        first, second = nets(flow)
        x = np.random.default_rng(7).normal(size=(2048, flow.dim))
        want = (nb.mlp_forward(first, x, 2), nb.mlp_forward(second, x, 2))
        names = helper_runs_first(monkeypatch, second)
        got = nb.mlp_forward_pair(first, second, x, 2)
        assert names.count("mlp-helper") == 1
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize(
        "backend", ["reference"] + (["numba"] if kernels.numba_available() else [])
    )
    def test_other_backends_stay_sequential(self, flow, backend, calls):
        first, second = nets(flow)
        x = np.random.default_rng(1).normal(size=(1024, flow.dim))
        with kernels.use_backend(backend):
            a, b = kernels.active().mlp_forward_pair(first, second, x, 2)
            assert np.array_equal(a, kernels.active().mlp_forward(first, x, 2))
            assert np.array_equal(b, kernels.active().mlp_forward(second, x, 2))
        assert calls == []  # the numpy backend was never entered


@pytest.mark.usefixtures("split_on")
class TestSplitFailures:
    def test_helper_exception_reraises_in_the_caller(self, flow, monkeypatch):
        first, second = nets(flow)
        x = np.random.default_rng(2).normal(size=(1024, flow.dim))
        want = (nb.mlp_forward(first, x, 2), nb.mlp_forward(second, x, 2))
        plain = nb.mlp_forward

        def fail():
            raise KeyError("helper network failed")

        helper_runs_first(monkeypatch, second, on_helper=fail)
        with pytest.raises(KeyError, match="helper network failed"):
            nb.mlp_forward_pair(first, second, x, 2)
        monkeypatch.setattr(nb, "mlp_forward", plain)
        names = helper_runs_first(monkeypatch, second)
        got = nb.mlp_forward_pair(first, second, x, 2)  # the helper still serves
        assert names.count("mlp-helper") == 1
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_caller_exception_reraises_and_the_next_call_splits(self, flow, monkeypatch):
        first, second = nets(flow)
        x = np.random.default_rng(3).normal(size=(1024, flow.dim))
        want = (nb.mlp_forward(first, x, 2), nb.mlp_forward(second, x, 2))
        plain = nb.mlp_forward

        def failing_on_second(params, x, num_blocks):
            if params is second:
                raise ValueError("caller network failed")
            return plain(params, x, num_blocks)

        monkeypatch.setattr(nb, "mlp_forward", failing_on_second)
        with pytest.raises(ValueError, match="caller network failed"):
            nb.mlp_forward_pair(first, second, x, 2)
        monkeypatch.setattr(nb, "mlp_forward", plain)
        names = helper_runs_first(monkeypatch, second)
        got = nb.mlp_forward_pair(first, second, x, 2)
        assert names.count("mlp-helper") == 1
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_second_concurrent_caller_runs_sequentially(self, flow, monkeypatch):
        first, second = nets(flow)
        x = np.random.default_rng(4).normal(size=(1024, flow.dim))
        want = (nb.mlp_forward(first, x, 2), nb.mlp_forward(second, x, 2))
        release = threading.Event()
        names = helper_runs_first(
            monkeypatch, second, on_helper=lambda: release.wait(JOIN_TIMEOUT_S)
        )
        results: dict = {}

        def first_caller() -> None:
            results["owner"] = nb.mlp_forward_pair(first, second, x, 2)

        owner = threading.Thread(target=first_caller, name="owner", daemon=True)
        owner.start()
        try:
            # the helper is busy with the owner's network, so this caller
            # takes its own offer back and runs both networks itself
            deadline = time.monotonic() + JOIN_TIMEOUT_S
            while "mlp-helper" not in names and time.monotonic() < deadline:
                owner.join(0.01)
            assert "mlp-helper" in names
            results["second"] = nb.mlp_forward_pair(first, second, x, 2)
        finally:
            release.set()
            owner.join(JOIN_TIMEOUT_S)
        assert not owner.is_alive()
        assert names.count(threading.current_thread().name) == 2
        assert names.count("mlp-helper") == 1
        for key in ("owner", "second"):
            assert all(np.array_equal(g, w) for g, w in zip(results[key], want)), key

    def test_below_split_rows_never_hands_off(self, flow, calls, offered):
        first, second = nets(flow)
        x = np.random.default_rng(5).normal(size=(nb.SPLIT_ROWS - 1, flow.dim))
        nb.mlp_forward_pair(first, second, x, 2)
        assert calls == [threading.current_thread().name] * 2
        assert offered == []
