"""Residual MLP blocks.

Sec. III-A: "we implement s and t as two residual block-based neural
networks due to the impressive generalization performance of these
architectures", and Sec. IV-D fixes "2 residual blocks with a hidden size of
256 units".  :class:`ResidualMLP` is exactly that shape (configurable widths
so tests and CI-scale experiments can shrink it).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro import kernels
from repro.autograd import Tensor
from repro.nn.linear import Linear
from repro.nn.module import Module


class ResidualBlock(Module):
    """Two linear layers with ReLU and an identity skip: ``x + F(x)``."""

    def __init__(self, width: int, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.fc1 = Linear(width, width, rng=rng)
        self.fc2 = Linear(width, width, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        hidden = self.fc1(x).relu()
        return x + self.fc2(hidden).relu()


class ResidualMLP(Module):
    """Input projection, ``n`` residual blocks, zero-initialized output head.

    The zero-initialized head makes a freshly constructed coupling layer an
    identity transform, which stabilizes early NLL optimization.
    """

    def __init__(
        self,
        in_features: int,
        hidden: int,
        out_features: int,
        num_blocks: int = 2,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if num_blocks < 1:
            raise ValueError("ResidualMLP needs at least one residual block")
        rng = rng if rng is not None else np.random.default_rng()
        self.input = Linear(in_features, hidden, rng=rng)
        self.num_blocks = num_blocks
        for i in range(num_blocks):
            self.add_module(f"block{i}", ResidualBlock(hidden, rng=rng))
        self.output = Linear(hidden, out_features, init="zeros", rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        hidden = self.input(x).relu()
        for i in range(self.num_blocks):
            hidden = self._modules[f"block{i}"](hidden)
        return self.output(hidden)

    def kernel_params(self) -> List[np.ndarray]:
        """The flat weight list the kernels' ``mlp_forward`` takes:
        ``[W_in, b_in, (W1, b1, W2, b2) per block..., W_out, b_out]``."""
        params = [self.input.weight.data, self.input.bias.data]
        for i in range(self.num_blocks):
            block = self._modules[f"block{i}"]
            params.extend(
                (
                    block.fc1.weight.data,
                    block.fc1.bias.data,
                    block.fc2.weight.data,
                    block.fc2.bias.data,
                )
            )
        params.extend((self.output.weight.data, self.output.bias.data))
        return params

    def forward_array(self, x: np.ndarray) -> np.ndarray:
        """Kernel-dispatched forward on a raw batch (no Tensor graph).

        ``x`` is ``(N, in_features)`` or a stack ``(..., N, in_features)``
        of such batches.  The hidden activations live in the backend's
        per-thread workspace; the returned array is fresh and the
        caller's to keep.
        """
        return kernels.active().mlp_forward(self.kernel_params(), x, self.num_blocks)
