"""Flow composition: exact log-likelihood and bidirectional numpy paths.

Implements Eqs. 1-8: a stack of bijectors ``f_k o ... o f_1`` with

    log p_theta(x) = log p_z(f(x)) + sum_i log|det J_i|

and the sampling direction ``x = f^{-1}(z)``, ``z ~ p_z``.  The sampling
prior is an argument (defaulting to the training prior) so Dynamic Sampling
can swap in the Eq. 14 mixture without touching the trained bijectors.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.autograd import Tensor
from repro.flows.bijector import Bijector
from repro.flows.priors import Prior, StandardNormalPrior
from repro.nn.module import Module


class Flow(Module):
    """A composed invertible model with exact density evaluation.

    Parameters
    ----------
    bijectors:
        Ordered transforms; ``forward`` applies them first-to-last
        (data -> latent), ``inverse`` last-to-first.
    prior:
        Latent prior used for training NLL (default standard normal).
    """

    def __init__(self, bijectors: Sequence[Bijector], prior: Optional[Prior] = None) -> None:
        super().__init__()
        if not bijectors:
            raise ValueError("Flow needs at least one bijector")
        self._count = len(bijectors)
        for i, bijector in enumerate(bijectors):
            self.add_module(f"bijector{i}", bijector)
        dims = [getattr(b, "dim", None) for b in bijectors]
        known = [d for d in dims if d is not None]
        self.dim = known[0] if known else None
        self.prior = prior if prior is not None else StandardNormalPrior(self.dim or 1)

    @property
    def bijectors(self) -> List[Bijector]:
        return [self._modules[f"bijector{i}"] for i in range(self._count)]

    # ------------------------------------------------------------------
    # differentiable direction (training)
    # ------------------------------------------------------------------
    def forward(self, x: Tensor) -> Tuple[Tensor, Tensor]:
        """Data -> latent with total log|det J| (shape (N,))."""
        z = x
        total: Optional[Tensor] = None
        for bijector in self.bijectors:
            z, log_det = bijector(z)
            total = log_det if total is None else total + log_det
        return z, total

    def log_prob_tensor(self, x: Tensor) -> Tensor:
        """Differentiable log p_theta(x) (Eq. 5)."""
        z, log_det = self.forward(x)
        return self.prior.log_prob_tensor(z) + log_det

    def nll(self, x: Tensor) -> Tensor:
        """Mean negative log-likelihood (Eq. 7), the training loss."""
        return -self.log_prob_tensor(x).mean()

    # ------------------------------------------------------------------
    # numpy fast paths (inference / guessing) -- kernel-dispatched, see
    # repro.kernels; no Tensor graph is ever built on these routes.
    # ------------------------------------------------------------------
    def encode(self, x: np.ndarray) -> np.ndarray:
        """Data -> latent without building a graph."""
        z = np.atleast_2d(np.asarray(x, dtype=np.float64))
        for bijector in self.bijectors:
            z, _ = bijector.forward_array(z)
        return z

    def decode(self, z: np.ndarray) -> np.ndarray:
        """Latent -> data (the preimage f^{-1}(z), Eq. 2)."""
        x = np.atleast_2d(np.asarray(z, dtype=np.float64))
        for bijector in reversed(self.bijectors):
            x = bijector.inverse_array(x)
        return x

    def log_prob(self, x: np.ndarray) -> np.ndarray:
        """log p_theta(x) without building a graph.

        ``x`` is ``(N, D)`` or a stack ``(..., N, D)`` of batches (the
        result is then ``(..., N)``); each stacked batch gets the bits it
        would get alone, since the kernels run one gemm per ``(N, D)`` slice.
        """
        z = np.atleast_2d(np.asarray(x, dtype=np.float64))
        total: Optional[np.ndarray] = None
        for bijector in self.bijectors:
            z, log_det = bijector.forward_array(z)
            total = log_det if total is None else np.add(total, log_det, out=total)
        return self.prior.log_prob(z) + total

    def sample(
        self,
        count: int,
        rng: np.random.Generator,
        prior: Optional[Prior] = None,
    ) -> np.ndarray:
        """Draw ``count`` data-space samples from ``prior`` (default: trained).

        This is the generative process of Sec. II: draw z ~ p_z, return
        f^{-1}(z).  Passing a :class:`GaussianMixturePrior` here is exactly
        the Dynamic Sampling prior swap of Sec. III-B.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        source = prior if prior is not None else self.prior
        z = source.sample(count, rng)
        return self.decode(z)

    def check_invertibility(self, x: np.ndarray, atol: float = 1e-8) -> float:
        """Max |x - f^{-1}(f(x))| over a batch; used by tests and sanity checks."""
        error = np.max(np.abs(self.decode(self.encode(x)) - np.atleast_2d(x)))
        if error > atol:
            raise AssertionError(f"flow is not invertible to {atol}: error={error}")
        return float(error)
