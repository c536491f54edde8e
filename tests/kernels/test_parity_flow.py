"""Backend parity for the bijector and flow inference kernels.

The contract (see ``docs/kernels.md``): the ``numpy`` backend is
bit-identical to ``reference`` (which is itself a transliteration of the
seed-era Tensor compositions, pinned here by comparing against the live
Tensor graph).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.autograd import Tensor, no_grad
from repro.flows.actnorm import ActNorm
from repro.flows.additive import AdditiveCoupling
from repro.flows.coupling import AffineCoupling
from repro.flows.flow import Flow
from repro.flows.logit import LogitTransform
from repro.flows.masks import alternating_masks

BACKENDS = ["reference", "numpy"]

flow_case = st.tuples(
    st.integers(min_value=4, max_value=8),  # dim
    st.integers(min_value=1, max_value=3),  # couplings
    st.integers(min_value=1, max_value=12),  # batch
    st.integers(min_value=0, max_value=10_000),  # seed
)


def build_flow(dim, couplings, seed, actnorm=True, additive=False):
    rng = np.random.default_rng(seed)
    bijectors = [LogitTransform(alpha=0.05)]
    for i, mask in enumerate(alternating_masks("char-run-1", dim, couplings)):
        if additive and i % 2 == 1:
            coupling = AdditiveCoupling(mask, hidden=12, num_blocks=1, rng=rng)
            coupling.translate_net.output.weight.data[:] = (
                rng.normal(size=(12, dim)) * 0.3
            )
        else:
            coupling = AffineCoupling(mask, hidden=12, num_blocks=2, rng=rng)
            coupling.scale_net.output.weight.data[:] = rng.normal(size=(12, dim)) * 0.3
            coupling.translate_net.output.weight.data[:] = (
                rng.normal(size=(12, dim)) * 0.3
            )
        bijectors.append(coupling)
        if actnorm:
            norm = ActNorm(dim)
            norm.initialize_from(rng.normal(size=(32, dim)))
            bijectors.append(norm)
    flow = Flow(bijectors)
    flow.eval()
    return flow


def mlp_params(rng, dim, hidden, num_blocks=2):
    params = [rng.normal(size=(dim, hidden)) * 0.3, rng.normal(size=hidden)]
    for _ in range(num_blocks):
        params += [
            rng.normal(size=(hidden, hidden)) * 0.3,
            rng.normal(size=hidden),
            rng.normal(size=(hidden, hidden)) * 0.3,
            rng.normal(size=hidden),
        ]
    return params + [rng.normal(size=(hidden, dim)) * 0.3, rng.normal(size=dim)]


def tensor_encode(flow, x):
    """The seed-era composed-Tensor forward, as Flow.encode used to run it."""
    with no_grad():
        z = Tensor(np.atleast_2d(x))
        total = None
        for bijector in flow.bijectors:
            z, log_det = bijector.forward(z)
            total = log_det if total is None else total + log_det
    return z.data, total.data


def tensor_decode(flow, z):
    """The seed-era composed-Tensor inverse, as Flow.decode used to run it."""
    with no_grad():
        x = Tensor(np.atleast_2d(z))
        for bijector in reversed(flow.bijectors):
            x = bijector.inverse(x)
    return x.data


class TestTensorPathIsTheAnchor:
    """reference/numpy array paths == the live Tensor graph, bitwise."""

    @given(flow_case)
    @settings(max_examples=15, deadline=None)
    def test_encode_log_prob_decode_bitwise(self, case):
        dim, couplings, batch, seed = case
        flow = build_flow(dim, couplings, seed)
        rng = np.random.default_rng(seed + 1)
        x = rng.random((batch, dim)) * 0.9 + 0.05
        z_ref, ld_ref = tensor_encode(flow, x)
        lp_ref = flow.prior.log_prob(z_ref) + ld_ref
        for backend in ("reference", "numpy"):
            with kernels.use_backend(backend):
                z = flow.encode(x)
                assert np.array_equal(z, z_ref), backend
                assert np.array_equal(flow.log_prob(x), lp_ref), backend
                assert np.array_equal(flow.decode(z), tensor_decode(flow, z)), backend

    @given(flow_case)
    @settings(max_examples=10, deadline=None)
    def test_additive_variant_bitwise(self, case):
        dim, couplings, batch, seed = case
        flow = build_flow(dim, couplings, seed, additive=True)
        rng = np.random.default_rng(seed + 2)
        x = rng.random((batch, dim)) * 0.9 + 0.05
        z_ref, ld_ref = tensor_encode(flow, x)
        for backend in ("reference", "numpy"):
            with kernels.use_backend(backend):
                assert np.array_equal(flow.encode(x), z_ref), backend
                assert np.array_equal(flow.decode(z_ref), tensor_decode(flow, z_ref))

    def test_roundtrip_stays_exact(self):
        flow = build_flow(6, 3, seed=4)
        x = np.random.default_rng(0).random((64, 6)) * 0.9 + 0.05
        for backend in ("reference", "numpy"):
            with kernels.use_backend(backend):
                assert flow.check_invertibility(x) < 1e-8


class TestKernelLevelParity:
    """numpy backend kernels == reference kernels on raw arrays, bitwise."""

    @given(
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=2, max_value=10),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_coupling_kernels(self, n, d, seed):
        rng = np.random.default_rng(seed)
        mask = (np.arange(d) % 2).astype(np.float64)
        inv_mask = 1.0 - mask
        x = rng.normal(size=(n, d))
        masked = x * mask
        raw = rng.normal(size=(n, d)) * 3.0
        t = rng.normal(size=(n, d))
        ref = kernels._load("reference")
        fused = kernels._load("numpy")
        z_a, ld_a = ref.coupling_forward(x, masked, inv_mask, raw, t, 2.0)
        z_b, ld_b = fused.coupling_forward(x, masked, inv_mask, raw, t, 2.0)
        assert np.array_equal(z_a, z_b)
        assert np.array_equal(ld_a, ld_b)
        assert np.array_equal(
            ref.coupling_inverse(x, masked, inv_mask, raw, t, 2.0),
            fused.coupling_inverse(x, masked, inv_mask, raw, t, 2.0),
        )

    @given(
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_logit_and_actnorm_kernels(self, n, d, seed):
        rng = np.random.default_rng(seed)
        x = rng.random((n, d)) * 0.96 + 0.02
        z = rng.normal(size=(n, d)) * 4.0
        bias = rng.normal(size=d)
        log_scale = rng.normal(size=d) * 0.5
        ref = kernels._load("reference")
        fused = kernels._load("numpy")
        for a, b in zip(ref.logit_forward(x, 0.05), fused.logit_forward(x, 0.05)):
            assert np.array_equal(a, b)
        assert np.array_equal(
            ref.logit_inverse(z, 0.05), fused.logit_inverse(z, 0.05)
        )
        for a, b in zip(
            ref.actnorm_forward(x, bias, log_scale),
            fused.actnorm_forward(x, bias, log_scale),
        ):
            assert np.array_equal(a, b)
        assert np.array_equal(
            ref.actnorm_inverse(z, bias, log_scale),
            fused.actnorm_inverse(z, bias, log_scale),
        )

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=20, deadline=None)
    def test_mlp_forward_matches_reference(self, n, seed):
        rng = np.random.default_rng(seed)
        params = mlp_params(rng, 5, 12)
        x = rng.normal(size=(n, 5))
        ref = kernels._load("reference")
        fused = kernels._load("numpy")
        expected = ref.mlp_forward(params, x, 2)
        first = fused.mlp_forward(params, x, 2)
        assert np.array_equal(first, expected)
        # a second call reuses the thread's workspace and leaves the first
        # call's (fresh) output untouched
        again = fused.mlp_forward(params, x, 2)
        assert np.array_equal(again, expected)
        assert np.array_equal(first, expected)


class TestStackedInputs:
    """The log-prob kernels on a stacked ``(k, 64, D)`` batch.

    Each slice must be bitwise what a 2-D call on that slice alone
    returns -- the property stacked strength scoring rests on -- and the
    numpy backend must stay bitwise equal to ``reference`` when stacked.
    """

    SHAPE = (3, 64, 10)
    KERNELS = (
        "mlp_forward",
        "mlp_forward_3_blocks",
        "coupling_forward",
        "logit_forward",
        "actnorm_forward",
        "additive_forward",
    )

    def stacked_cases(self, seed):
        rng = np.random.default_rng(seed)
        d = self.SHAPE[-1]
        mask = (np.arange(d) % 2).astype(np.float64)
        x = rng.random(self.SHAPE) * 0.9 + 0.05
        raw = rng.normal(size=self.SHAPE) * 3.0
        t = rng.normal(size=self.SHAPE)
        bias, log_scale = rng.normal(size=d), rng.normal(size=d) * 0.5
        return {
            "mlp_forward": (
                lambda b, x, p: b.mlp_forward(p, x, 2),
                (x, mlp_params(rng, d, 48)),
            ),
            "mlp_forward_3_blocks": (
                lambda b, x, p: b.mlp_forward(p, x, 3),
                (x, mlp_params(rng, d, 16, num_blocks=3)),
            ),
            "coupling_forward": (
                lambda b, x, raw, t: b.coupling_forward(
                    x, x * mask, 1.0 - mask, raw, t, 2.0
                ),
                (x, raw, t),
            ),
            "logit_forward": (lambda b, x: b.logit_forward(x, 0.05), (x,)),
            "actnorm_forward": (
                lambda b, x: b.actnorm_forward(x, bias, log_scale),
                (x,),
            ),
            "additive_forward": (
                lambda b, x, t: b.additive_forward(x, x * mask, 1.0 - mask, t),
                (x, t),
            ),
        }

    @staticmethod
    def outputs(result):
        return result if isinstance(result, tuple) else (result,)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_each_slice_equals_its_2d_call(self, backend, kernel):
        call, args = self.stacked_cases(seed=21)[kernel]
        module = kernels._load(backend)
        stacked = self.outputs(call(module, *args))
        k = self.SHAPE[0]
        for i in range(k):
            sliced = [a[i] if isinstance(a, np.ndarray) else a for a in args]
            alone = self.outputs(call(module, *sliced))
            for got, want in zip(stacked, alone):
                assert got.shape[1:] == want.shape
                assert np.array_equal(got[i], want), (backend, kernel, i)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_numpy_matches_reference_stacked(self, kernel):
        call, args = self.stacked_cases(seed=22)[kernel]
        ref = self.outputs(call(kernels._load("reference"), *args))
        fused = self.outputs(call(kernels._load("numpy"), *args))
        for a, b in zip(ref, fused):
            assert np.array_equal(a, b), kernel
