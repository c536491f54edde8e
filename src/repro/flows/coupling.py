"""Affine coupling layer (Dinh et al. RealNVP, Eqs. 9-13 of the paper).

Masked formulation (Eq. 13):

    z = b*x + (1-b) * (x * exp(s(b*x)) + t(b*x))

with ``s``/``t`` residual-block networks (Sec. III-A).  The Jacobian is
triangular, so

    log|det J| = sum_j [(1-b) * s(b*x)]_j        (Eq. 12)

and the inverse is closed-form because ``b*z = b*x``:

    x = b*z + (1-b) * (z - t(b*z)) * exp(-s(b*z))

The raw scale output is squashed with ``clamp * tanh(s/clamp)``: an exact,
invertible reparameterization that bounds |s| and keeps exp(s) from
overflowing early in training (standard in RealNVP/Glow implementations).

Hot-path dispatch: the training ``forward`` routes the combine + log-det
through :func:`repro.autograd.fused_affine_coupling` (one tape node instead
of ~ten), and the ``*_array`` inference paths call the active kernel
backend directly, evaluating ``s`` and ``t`` in one ``mlp_forward_pair``
call (on two threads for large batches on the numpy backend).
``inverse`` keeps the seed-era Tensor composition -- it is off the
training path, and doubles as the pre-kernel baseline the benchmarks
measure speedups against.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro import kernels
from repro.autograd import Tensor, fused_affine_coupling
from repro.flows.bijector import Bijector
from repro.nn.residual import ResidualMLP


class AffineCoupling(Bijector):
    """One coupling step with learnable scale/translation networks.

    Parameters
    ----------
    mask:
        Binary vector ``b`` of length D.  Coordinates with ``b=1`` pass
        through unchanged and condition the rest.
    hidden:
        Width of the s/t residual MLPs (paper: 256).
    num_blocks:
        Residual blocks per network (paper: 2).
    scale_clamp:
        Bound on |s| via tanh squashing.
    rng:
        Init generator.
    """

    def __init__(
        self,
        mask: np.ndarray,
        hidden: int = 256,
        num_blocks: int = 2,
        scale_clamp: float = 2.0,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        mask = np.asarray(mask, dtype=np.float64)
        if mask.ndim != 1:
            raise ValueError("mask must be 1-D")
        if not np.all((mask == 0.0) | (mask == 1.0)):
            raise ValueError("mask must be binary")
        if mask.sum() == 0 or mask.sum() == mask.size:
            raise ValueError("mask must have both zeros and ones")
        if scale_clamp <= 0:
            raise ValueError("scale_clamp must be positive")
        rng = rng if rng is not None else np.random.default_rng()
        dim = mask.size
        self.dim = dim
        self.scale_clamp = float(scale_clamp)
        self.register_buffer("mask", mask)
        self.scale_net = ResidualMLP(dim, hidden, dim, num_blocks=num_blocks, rng=rng)
        self.translate_net = ResidualMLP(dim, hidden, dim, num_blocks=num_blocks, rng=rng)

    def _scale_translate(self, masked: Tensor) -> Tuple[Tensor, Tensor]:
        raw_scale = self.scale_net(masked)
        scale = (raw_scale * (1.0 / self.scale_clamp)).tanh() * self.scale_clamp
        translate = self.translate_net(masked)
        return scale, translate

    def forward(self, x: Tensor) -> Tuple[Tensor, Tensor]:
        masked = x * Tensor(self.mask)
        raw_scale = self.scale_net(masked)
        translate = self.translate_net(masked)
        return fused_affine_coupling(
            x,
            raw_scale,
            translate,
            self.mask,
            1.0 - self.mask,
            self.scale_clamp,
            masked.data,
        )

    def inverse(self, z: Tensor) -> Tensor:
        mask = Tensor(self.mask)
        inv_mask = Tensor(1.0 - self.mask)
        masked = z * mask
        scale, translate = self._scale_translate(masked)
        return masked + inv_mask * ((z - translate) * (-scale).exp())

    def _scale_translate_array(self, backend, masked: np.ndarray):
        """Raw ``s`` and ``t`` outputs (two threads on large numpy batches)."""
        return backend.mlp_forward_pair(
            self.scale_net.kernel_params(),
            self.translate_net.kernel_params(),
            masked,
            self.scale_net.num_blocks,
        )

    def forward_array(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        backend = kernels.active()
        masked = x * self.mask
        raw_scale, translate = self._scale_translate_array(backend, masked)
        return backend.coupling_forward(
            x, masked, 1.0 - self.mask, raw_scale, translate, self.scale_clamp
        )

    def inverse_array(self, z: np.ndarray) -> np.ndarray:
        backend = kernels.active()
        masked = z * self.mask
        raw_scale, translate = self._scale_translate_array(backend, masked)
        return backend.coupling_inverse(
            z, masked, 1.0 - self.mask, raw_scale, translate, self.scale_clamp
        )
