"""Micro-benchmarks: throughput of the flow's hot paths.

These are conventional pytest-benchmark measurements (many rounds): the
forward/inverse/log-prob/sampling costs that dominate guessing attacks.
The ``TestKernelSpeedupFloors`` class additionally pins the fused kernel
layer's speedup over the seed-era composed-Tensor paths as hard asserts
(full bar off-CI, relaxed under ``CI=true``; see ``docs/kernels.md``).
"""

import numpy as np
import pytest

from repro import kernels
from repro.autograd import Tensor, no_grad

from benchmarks.conftest import assert_speedup, speedup_floor

@pytest.fixture(scope="module")
def batch(ctx, model):
    rng = np.random.default_rng(0)
    passwords = ctx.corpus[:512]
    return model.encoder.encode_batch(passwords)


def tensor_decode(flow, z):
    """The pre-kernel decode: the composed-Tensor loop Flow.decode ran."""
    with no_grad():
        x = Tensor(np.atleast_2d(z))
        for bijector in reversed(flow.bijectors):
            x = bijector.inverse(x)
    return x.data


def tensor_encode(flow, x):
    """The pre-kernel encode loop (forward direction)."""
    with no_grad():
        z = Tensor(np.atleast_2d(x))
        for bijector in flow.bijectors:
            z, _ = bijector.forward(z)
    return z.data


def test_encode_throughput(benchmark, model, batch):
    result = benchmark(lambda: model.flow.encode(batch))
    assert result.shape == batch.shape


def test_decode_throughput(benchmark, model, batch):
    latents = model.flow.encode(batch)
    result = benchmark(lambda: model.flow.decode(latents))
    assert result.shape == batch.shape


def test_log_prob_throughput(benchmark, model, batch):
    result = benchmark(lambda: model.flow.log_prob(batch))
    assert np.all(np.isfinite(result))


def test_sample_passwords_throughput(benchmark, model):
    rng = np.random.default_rng(1)
    result = benchmark(lambda: model.sample_passwords(512, rng=rng))
    assert len(result) == 512


def test_roundtrip_exactness(model, batch):
    # correctness guard riding along with the perf suite
    assert model.flow.check_invertibility(batch[:64], atol=1e-7) < 1e-7


class TestKernelSpeedupFloors:
    """Hard speedup asserts for the fused kernel layer.

    Baselines are the seed-era composed-Tensor loops, re-run live so both
    sides see the same machine state.  Results must also stay bitwise
    equal to the baseline -- a fast wrong kernel fails here, not just in
    the parity suite.

    The floors are set for the *warm-allocator* steady state (~1.2x): in a
    long-lived process glibc stops mmapping the baseline's large
    temporaries, which narrows the gap.  A fresh process -- every CLI
    ``attack``/``sample`` invocation -- pays those page faults and sees
    ~1.5-1.7x from the fused numpy backend.
    """

    def test_fused_numpy_decode_floor(self, model, batch):
        flow = model.flow
        latents = flow.encode(batch)

        def fused():
            with kernels.use_backend("numpy"):
                return flow.decode(latents)

        assert np.array_equal(fused(), tensor_decode(flow, latents))
        assert_speedup(
            lambda: tensor_decode(flow, latents),
            fused,
            speedup_floor(full=1.12, relaxed=1.05),
            "fused numpy decode",
        )

    def test_fused_numpy_encode_log_prob_floor(self, model, batch):
        flow = model.flow

        def fused():
            with kernels.use_backend("numpy"):
                return flow.encode(batch)

        assert np.array_equal(fused(), tensor_encode(flow, batch))
        assert_speedup(
            lambda: tensor_encode(flow, batch),
            fused,
            speedup_floor(full=1.1, relaxed=1.05),
            "fused numpy encode",
        )

    def test_fused_numpy_sample_passwords_floor(self, model):
        def baseline_sample():
            latents = model.sample_latents(512, rng=np.random.default_rng(1))
            features = tensor_decode(model.flow, latents)
            return model.encoder.decode_batch(features)

        def fused_sample():
            with kernels.use_backend("numpy"):
                return model.sample_passwords(512, rng=np.random.default_rng(1))

        assert fused_sample() == baseline_sample()
        assert_speedup(
            baseline_sample,
            fused_sample,
            speedup_floor(full=1.12, relaxed=1.05),
            "fused sample_passwords",
        )
