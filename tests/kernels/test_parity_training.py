"""Training parity: Adam trajectories and NLL gradients across backends.

Training dispatches every moment update through the backend ``adam_step``
and every bijector through the fused autograd ops, so reference and
numpy runs must stay bitwise locked to each other step after step.
"""

import numpy as np
import pytest

from repro import kernels
from repro.autograd import Tensor
from repro.flows.actnorm import ActNorm
from repro.flows.coupling import AffineCoupling
from repro.flows.flow import Flow
from repro.flows.logit import LogitTransform
from repro.flows.masks import alternating_masks
from repro.nn.optim.adam import Adam

def build_flow(seed=0, dim=6, couplings=3):
    rng = np.random.default_rng(seed)
    bijectors = [LogitTransform(alpha=0.05)]
    for mask in alternating_masks("char-run-1", dim, couplings):
        bijectors.append(AffineCoupling(mask, hidden=16, num_blocks=2, rng=rng))
        bijectors.append(ActNorm(dim))
    return Flow(bijectors)


def train_steps(backend, steps=6, weight_decay=0.0, clip_norm=5.0, seed=3):
    rng = np.random.default_rng(seed)
    x = rng.random((32, 6)) * 0.9 + 0.05
    with kernels.use_backend(backend):
        flow = build_flow(seed)
        optimizer = Adam(
            flow.parameters(), lr=1e-3, weight_decay=weight_decay, clip_norm=clip_norm
        )
        losses = []
        for _ in range(steps):
            optimizer.zero_grad()
            loss = flow.nll(Tensor(x))
            loss.backward()
            optimizer.step()
            losses.append(float(loss.data))
    return flow, losses


class TestAdamTrajectories:
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_reference_and_numpy_bitwise_locked(self, weight_decay):
        flow_a, losses_a = train_steps("reference", weight_decay=weight_decay)
        flow_b, losses_b = train_steps("numpy", weight_decay=weight_decay)
        assert losses_a == losses_b
        for pa, pb in zip(flow_a.parameters(), flow_b.parameters()):
            assert np.array_equal(pa.data, pb.data)

    def test_adam_step_kernels_bitwise_equal(self):
        rng = np.random.default_rng(5)
        shapes = [(7,), (4, 9), (16, 3)]
        ref = kernels._load("reference")
        fused = kernels._load("numpy")
        for shape in shapes:
            param = rng.normal(size=shape)
            grad = rng.normal(size=shape)
            state_a = (param.copy(), np.zeros(shape), np.zeros(shape))
            state_b = (param.copy(), np.zeros(shape), np.zeros(shape))
            scratch = {}
            for t in range(1, 8):
                c1, c2 = 1.0 - 0.9**t, 1.0 - 0.999**t
                pa, ma, va = state_a
                pb, mb, vb = state_b
                ref.adam_step(pa, grad, ma, va, 1e-3, 0.9, 0.999, 1e-8, c1, c2, {})
                fused.adam_step(pb, grad, mb, vb, 1e-3, 0.9, 0.999, 1e-8, c1, c2, scratch)
                for a, b in zip(state_a, state_b):
                    assert np.array_equal(a, b)

    def test_step_allocates_nothing_once_warm(self):
        flow, _ = train_steps("numpy", steps=2)
        # scratch buffers exist for every parameter after the warm steps
        rng = np.random.default_rng(0)
        x = rng.random((32, 6)) * 0.9 + 0.05
        with kernels.use_backend("numpy"):
            optimizer = Adam(flow.parameters(), lr=1e-3)
            for _ in range(2):
                optimizer.zero_grad()
                flow.nll(Tensor(x)).backward()
                optimizer.step()
            assert all("s1" in s and "s2" in s for s in optimizer._scratch)


class TestNllGradients:
    def test_grads_match_across_backends(self):
        rng = np.random.default_rng(9)
        x = rng.random((24, 6)) * 0.9 + 0.05
        grads = {}
        for backend in ("reference", "numpy"):
            with kernels.use_backend(backend):
                flow = build_flow(2)
                flow.nll(Tensor(x)).backward()
                grads[backend] = {
                    name: p.grad.copy() for name, p in flow.named_parameters()
                }
        for name, g in grads["reference"].items():
            assert np.array_equal(g, grads["numpy"][name]), name
