"""Data-space Gaussian Smoothing (Sec. III-C).

The flow maps the continuous latent space onto a discrete password space, so
distinct latents frequently decode to the same string (collisions) --
especially under Dynamic Sampling with small sigma.  GS breaks collisions by
incrementally adding small Gaussian perturbations *in data space* to samples
that collide with an already-generated guess, re-binning after each
perturbation.  The noise scale is kept on the order of one encoding bin so
the perturbed password stays in the neighbourhood of the original.

A collision is a fact about the binned index row, so the smoother works on
rows and their packed keys (:meth:`~repro.data.encoding.PasswordEncoder.pack_indices`)
and never decodes a string.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.guesser import _sorted_contains, insert_sorted
from repro.data.encoding import PasswordEncoder


class GaussianSmoother:
    """Collision-breaking perturbation in data space.

    Parameters
    ----------
    encoder:
        The password codec (provides bin geometry and key packing).
    sigma_scale:
        Noise std as a multiple of the encoding bin width.  The paper keeps
        "the variance of the Gaussian small" so samples remain neighbours.
    max_attempts:
        How many incremental perturbations to try per colliding sample.
    """

    def __init__(
        self,
        encoder: PasswordEncoder,
        sigma_scale: float = 0.75,
        max_attempts: int = 4,
    ) -> None:
        # non-finite noise bins to garbage indices, and those would be packed
        if not (np.isfinite(sigma_scale) and sigma_scale > 0):
            raise ValueError(f"sigma_scale must be positive and finite: {sigma_scale}")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.encoder = encoder
        self.sigma = sigma_scale * encoder.bin_width
        self.max_attempts = max_attempts

    def smooth(
        self,
        rows: np.ndarray,
        features: np.ndarray,
        seen: Callable[[np.ndarray], np.ndarray],
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Return ``rows`` with collisions perturbed away where possible.

        ``rows`` are the (N, D) index rows binned from ``features``, the
        pre-binning data-space floats; ``seen(keys)`` is the boolean mask
        of the packed keys generated before this batch.  A row collides
        when its key is 0 (the empty password), is seen, or repeats an
        earlier row of the batch.  Each attempt perturbs the features of
        every still-colliding row (one ``rng.normal`` block) and re-bins
        them; a row keeps its first fresh candidate, or its original
        value when every attempt collides.  ``rows`` and ``features`` are
        left unmodified.
        """
        rows = np.array(rows, dtype=np.int64)
        features = np.array(features, dtype=np.float64)
        if features.shape != rows.shape:
            raise ValueError("features/rows shape mismatch")
        pending = np.arange(len(rows))
        candidates = rows
        accepted = np.empty(0, dtype=np.uint64)  # sorted keys of this batch
        for attempt in range(self.max_attempts + 1):
            if attempt:
                features[pending] += rng.normal(
                    0.0, self.sigma, size=(len(pending), features.shape[1])
                )
                candidates = self.encoder.floats_to_indices(features[pending])
            keys = self.encoder.pack_indices(candidates)
            # the first row of each distinct key is the only one that can
            # be fresh, so ``seen`` is asked about distinct keys only
            distinct, first = np.unique(keys, return_index=True)
            fresh = (distinct != 0) & ~_sorted_contains(accepted, distinct)
            fresh[fresh] = ~seen(distinct[fresh])
            taken = first[fresh]
            rows[pending[taken]] = candidates[taken]
            accepted = insert_sorted(accepted, distinct[fresh])
            pending = np.delete(pending, taken)
            if not pending.size:
                break
        return rows
