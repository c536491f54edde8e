"""Data-space Gaussian Smoothing (Sec. III-C).

The flow maps the continuous latent space onto a discrete password space, so
distinct latents frequently decode to the same string (collisions) --
especially under Dynamic Sampling with small sigma.  GS breaks collisions by
incrementally adding small Gaussian perturbations *in data space* to samples
that collide with an already-generated guess, re-binning after each
perturbation.  The noise scale is kept on the order of one encoding bin so
the perturbed password stays in the neighbourhood of the original.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set

import numpy as np

from repro.data.encoding import PasswordEncoder


class GaussianSmoother:
    """Collision-breaking perturbation in data space.

    Parameters
    ----------
    encoder:
        The password codec (provides bin geometry and decoding).
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
        if sigma_scale <= 0:
            raise ValueError("sigma_scale must be positive")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.encoder = encoder
        self.sigma = sigma_scale * encoder.bin_width
        self.max_attempts = max_attempts

    def smooth(
        self,
        passwords: Sequence[str],
        features: Optional[np.ndarray],
        seen: Set[str],
        rng: np.random.Generator,
    ) -> List[str]:
        """Return passwords with collisions perturbed away where possible.

        ``features`` are the pre-binning data-space floats the passwords
        were decoded from; when ``None`` (string-only generators) the bin
        centers of the passwords are used as the starting point.
        """
        passwords = list(passwords)
        if features is None:
            features = self.encoder.encode_batch(passwords)
        features = np.array(np.atleast_2d(features), dtype=np.float64, copy=True)
        if features.shape[0] != len(passwords):
            raise ValueError("features/passwords length mismatch")

        # Collisions are duplicates against everything generated so far,
        # *including earlier samples of this batch*.  ``seen`` grows with
        # the attack, so it is read in place, never copied.
        batch: Set[str] = set()
        colliding: List[int] = []
        for i, password in enumerate(passwords):
            if password and password not in seen and password not in batch:
                batch.add(password)
            else:
                colliding.append(i)
        if not colliding:
            return passwords

        for _ in range(self.max_attempts):
            if not colliding:
                break
            idx = np.array(colliding)
            noise = rng.normal(0.0, self.sigma, size=(len(idx), features.shape[1]))
            features[idx] += noise
            decoded = self.encoder.decode_batch(features[idx])
            still: List[int] = []
            for j, candidate in zip(idx, decoded):
                if candidate and candidate not in seen and candidate not in batch:
                    batch.add(candidate)
                    passwords[j] = candidate
                else:
                    still.append(int(j))
            colliding = still
        return passwords
