"""The numpy backend's shared MLP workspace: thread safety and memory.

Every residual MLP evaluates on one hidden-width workspace per thread
(``repro.kernels.numpy_backend``).  Two properties keep that sound:

* threads sharing one model never see each other's buffers, however the
  interpreter interleaves them and whatever batch sizes they run, also
  when batches of ``SPLIT_ROWS`` rows or more hand a coupling's scale
  net to the helper thread;
* evaluating a large batch leaves one workspace behind per flow thread
  (the caller and the helper), not a buffer set per module and batch
  shape.

A zero-row batch on a thread that has evaluated nothing yet must also
work on every backend: a fresh workspace holds empty buffers.
"""

from __future__ import annotations

import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from repro import kernels
from repro.autograd import Tensor
from repro.core.model import PassFlow, PassFlowConfig
from repro.core.strength import StrengthEstimator
from repro.data.synthetic import SyntheticConfig, SyntheticRockYou
from repro.kernels import numpy_backend
from repro.nn.module import Module
from repro.nn.residual import ResidualMLP

BACKENDS = ["reference", "numpy"]
THREADS = 8
ROUNDS = 10
DEADLINE_S = 30.0
JOIN_TIMEOUT_S = 120.0


def random_model(config: PassFlowConfig) -> PassFlow:
    """An untrained model with non-trivial weights (no fit needed)."""
    model = PassFlow(config)
    rng = np.random.default_rng(config.seed)
    for param in model.flow.parameters():
        param.data[...] = rng.normal(size=param.data.shape) * 0.1
    model.flow.eval()
    return model


def held_arrays(module: Module):
    """Arrays a module keeps in its own attributes (not weights or children)."""
    stack = [
        value
        for name, value in vars(module).items()
        if name not in ("_parameters", "_buffers", "_modules")
    ]
    while stack:
        value = stack.pop()
        if isinstance(value, (Tensor, Module)):
            continue
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, dict):
            stack.extend(value.values())
        elif isinstance(value, (list, tuple)):
            stack.extend(value)
        else:
            slots = getattr(type(value), "__slots__", ())
            stack.extend(getattr(value, slot, None) for slot in slots)


@kernels.use_backend("numpy")
def test_threads_sharing_a_model_get_serial_bits(monkeypatch):
    model = random_model(PassFlowConfig.tiny(seed=3))
    estimator = StrengthEstimator(model)
    rng = np.random.default_rng(0)
    dim = model.flow.dim
    # each thread runs its own row counts, so workspaces grow at different
    # times; threads 4-7 decode SPLIT_ROWS rows or more, so they contend
    # for the one helper thread
    latents = [rng.normal(size=(5 + 151 * t, dim)) for t in range(THREADS)]
    assert latents[-1].shape[0] > numpy_backend.SPLIT_ROWS
    passwords = [
        model.sample_passwords(1 + 83 * t, rng=rng) for t in range(THREADS)
    ]
    monkeypatch.setattr(numpy_backend, "_split", False)
    decoded = [model.flow.decode(z) for z in latents]
    scored = [estimator.log_prob_batch(p) for p in passwords]
    assert all(np.isfinite(lp).all() for lp in scored)
    monkeypatch.setattr(numpy_backend, "_split", True)

    mismatches: list = []
    errors: list = []
    deadline = time.monotonic() + DEADLINE_S

    def worker(t: int) -> None:
        try:
            for round_ in range(ROUNDS):
                if not np.array_equal(model.flow.decode(latents[t]), decoded[t]):
                    mismatches.append(("decode", t, round_))
                if not np.array_equal(estimator.log_prob_batch(passwords[t]), scored[t]):
                    mismatches.append(("log_prob_batch", t, round_))
                if time.monotonic() > deadline:
                    break
        except BaseException as exc:  # surfaced by the asserts below
            errors.append((t, exc))

    threads = [
        threading.Thread(target=worker, args=(t,), daemon=True) for t in range(THREADS)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # force a thread switch at nearly every bytecode
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=JOIN_TIMEOUT_S)
    finally:
        sys.setswitchinterval(interval)
    assert not [thread.name for thread in threads if thread.is_alive()]
    assert not errors, errors[:3]
    assert not mismatches, mismatches[:5]


@kernels.use_backend("numpy")
def test_calibration_retains_one_workspace_not_a_buffer_set_per_module():
    config = PassFlowConfig.small(seed=4)
    model = random_model(config)
    generator = SyntheticRockYou(np.random.default_rng(1), SyntheticConfig(), model.alphabet)
    reference = generator.generate(4000)
    estimator = StrengthEstimator(model)
    tracemalloc.start()
    try:
        estimator.calibrate(reference)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rows = len(reference)
    # h, a and c in float64 plus the bool ReLU mask, hidden wide per row;
    # one buffer set per module and shape would be 16x this.  Two flow
    # threads: the caller and the helper that runs each coupling's scale
    # net on large batches.
    workspace = rows * config.hidden * (3 * 8 + 1)
    assert retained < 2 * workspace + 2**20, (retained, workspace)
    for module in model.flow.modules():
        for array in held_arrays(module):
            assert config.hidden not in array.shape, (type(module).__name__, array.shape)


@pytest.mark.parametrize("backend", BACKENDS)
def test_zero_rows_on_a_fresh_thread(backend):
    model = random_model(PassFlowConfig.tiny(seed=5))
    flow = model.flow
    mlp = next(m for m in flow.modules() if isinstance(m, ResidualMLP))
    in_features = mlp.input.weight.data.shape[0]
    out_features = mlp.output.weight.data.shape[1]
    results: dict = {}
    errors: list = []

    def worker() -> None:
        # a new thread: its workspace has evaluated nothing yet
        try:
            results["mlp_forward"] = mlp.forward_array(np.empty((0, in_features)))
            results["log_prob"] = flow.log_prob(np.empty((0, flow.dim)))
            results["decode"] = flow.decode(np.empty((0, flow.dim)))
            results["passwords"] = model.log_prob([])
        except Exception as exc:  # surfaced by the asserts below
            errors.append(exc)

    with kernels.use_backend(backend):
        thread = threading.Thread(target=worker, daemon=True)
        thread.start()
        thread.join(timeout=JOIN_TIMEOUT_S)
    assert not thread.is_alive()
    assert not errors, errors
    assert results["mlp_forward"].shape == (0, out_features)
    assert results["log_prob"].shape == (0,)
    assert results["decode"].shape == (0, flow.dim)
    assert results["passwords"].shape == (0,)
