"""Activation normalization (ActNorm, from Glow).

An optional extension over the paper's architecture: a per-coordinate affine
``z = (x - bias) * exp(log_scale)`` whose parameters are data-dependently
initialized on the first batch so activations start zero-mean/unit-variance.
Ablation benchmarks measure its effect on NLL convergence.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro import kernels
from repro.autograd import Tensor, fused_actnorm
from repro.flows.bijector import Bijector
from repro.nn.module import Parameter


class ActNorm(Bijector):
    """Per-dimension affine bijector with data-dependent initialization."""

    def __init__(self, dim: int) -> None:
        super().__init__()
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = dim
        self.log_scale = Parameter(np.zeros(dim), name="log_scale")
        self.bias = Parameter(np.zeros(dim), name="bias")
        self._initialized = False

    def initialize_from(self, batch: np.ndarray) -> None:
        """Set bias/scale so this batch maps to zero mean, unit variance."""
        batch = np.asarray(batch, dtype=np.float64)
        batch = batch.reshape(-1, batch.shape[-1])  # stacked batches pool their rows
        mean = batch.mean(axis=0)
        std = batch.std(axis=0) + 1e-6
        self.bias.data = mean
        self.log_scale.data = -np.log(std)
        self._initialized = True

    def forward(self, x: Tensor) -> Tuple[Tensor, Tensor]:
        if not self._initialized and self.training:
            self.initialize_from(x.data)
        if x.ndim > 1:
            return fused_actnorm(x, self.bias, self.log_scale)
        z = (x - self.bias) * self.log_scale.exp()
        log_det = self.log_scale.sum() * Tensor(np.ones(1))
        return z, log_det

    def inverse(self, z: Tensor) -> Tensor:
        return z * (-self.log_scale).exp() + self.bias

    def forward_array(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        if not self._initialized and self.training:
            self.initialize_from(x)
        return kernels.active().actnorm_forward(x, self.bias.data, self.log_scale.data)

    def inverse_array(self, z: np.ndarray) -> np.ndarray:
        return kernels.active().actnorm_inverse(z, self.bias.data, self.log_scale.data)
