"""Conditional password guessing (Sec. VII future work, implemented).

The paper notes PassFlow cannot directly do conditional guessing ("given
'jimmy**', guess 'jimmy91'") because plain flows model the joint density
only.  We implement the extension via *latent evolutionary search*: treat
the known characters as a constraint, search the latent space for
high-density points whose decodings satisfy it.

The procedure:

1. seed a population by encoding random completions of the template,
2. iterate: perturb latents with Gaussian noise, decode, discard candidates
   that violate the fixed positions, rank survivors by exact model
   log-density (a capability GANs cannot offer), keep the elite,
3. return the distinct feasible decodings, highest density first.

This leans on the two properties the paper proves: latent smoothness
(neighbours of feasible points are near-feasible) and exact density
evaluation (ranking).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:
    from repro.core.model import PassFlow

WILDCARD = "*"


def matches_template(password: str, template: str) -> bool:
    """Whether ``password`` satisfies the template's fixed characters."""
    if len(password) != len(template):
        return False
    return all(t == WILDCARD or p == t for p, t in zip(password, template))


class ConditionalGuesser:
    """Template-constrained guessing over a trained PassFlow model."""

    def __init__(
        self,
        model: PassFlow,
        population: int = 128,
        elite_fraction: float = 0.25,
        noise_scale: float = 0.15,
    ) -> None:
        if population < 4:
            raise ValueError("population must be >= 4")
        if not 0.0 < elite_fraction <= 1.0:
            raise ValueError("elite_fraction must be in (0, 1]")
        if noise_scale <= 0:
            raise ValueError("noise_scale must be positive")
        self.model = model
        self.population = population
        self.elite = max(1, int(population * elite_fraction))
        self.noise_scale = noise_scale

    # ------------------------------------------------------------------
    def _random_completions(self, template: str, count: int, rng) -> List[str]:
        chars = self.model.alphabet.chars
        out = []
        for _ in range(count):
            filled = [
                ch if ch != WILDCARD else chars[int(rng.integers(0, len(chars)))]
                for ch in template
            ]
            out.append("".join(filled))
        return out

    def _feasible_scores(self, passwords: List[str], template: str) -> Tuple[List[str], np.ndarray]:
        feasible = [p for p in passwords if matches_template(p, template)]
        if not feasible:
            return [], np.empty(0)
        return feasible, self.model.log_prob(feasible)

    # ------------------------------------------------------------------
    def guess(
        self,
        template: str,
        rounds: int = 8,
        top_k: int = 10,
        rng: Optional[np.random.Generator] = None,
    ) -> List[str]:
        """Return up to ``top_k`` completions, highest model density first."""
        if WILDCARD not in template:
            return [template]
        if len(template) > self.model.encoder.max_length:
            raise ValueError("template longer than model max_length")
        if not all(
            ch == WILDCARD or ch in self.model.alphabet for ch in template
        ):
            raise ValueError("template contains characters outside the alphabet")
        rng = rng if rng is not None else self.model.rng_streams.get("conditional")

        seeds = self._random_completions(template, self.population, rng)
        latents = self.model.encode_passwords(seeds)
        best: Dict[str, float] = {}

        for _ in range(rounds):
            noise = rng.normal(0.0, self.noise_scale, size=latents.shape)
            candidates = latents + noise
            decoded = self.model.decode_latents(candidates)
            feasible, scores = self._feasible_scores(decoded, template)
            for password, score in zip(feasible, scores):
                previous = best.get(password)
                if previous is None or score > previous:
                    best[password] = float(score)
            if best:
                elite_passwords = [
                    p for p, _ in sorted(best.items(), key=lambda kv: -kv[1])[: self.elite]
                ]
                elite_latents = self.model.encode_passwords(elite_passwords)
                repeats = int(np.ceil(self.population / len(elite_latents)))
                latents = np.tile(elite_latents, (repeats, 1))[: self.population]
            # else keep wandering from the current population

        ranked = sorted(best.items(), key=lambda kv: -kv[1])
        return [password for password, _ in ranked[:top_k]]
