"""Dynamic Sampling with Penalization (Algorithm 1, Sec. III-B / IV-A/B).

The sampler starts from the trained prior.  Once more than ``alpha`` test
passwords have been matched, the sampling prior becomes the Eq. 14 mixture
of Gaussians centered on the latents of matched passwords, each weighted by
phi of its usage count.  phi drives exploration: a component that has
conditioned the prior for gamma batches is dropped (step phi), pushing the
search into fresher high-density regions.

The streaming implementation (batching notes included) lives in
:class:`repro.strategies.passflow.DynamicStrategy`, driven by the
:class:`repro.strategies.AttackEngine`; this module keeps the Algorithm 1
configuration and the Table I schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.penalization import PhiFunction, StepPenalization


@dataclass
class DynamicSamplingConfig:
    """Algorithm 1 parameters (Table I)."""

    alpha: int = 5
    sigma: float = 0.12
    phi: PhiFunction = field(default_factory=lambda: StepPenalization(gamma=2))
    batch_size: int = 2048
    max_components: int = 512

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_components < 1:
            raise ValueError("max_components must be >= 1")


#: Table I — "the dynamic sampling parameters used to obtain the number of
#: matches reported in Table III", keyed by guess budget.
PAPER_SCHEDULE = {
    10**4: {"alpha": 1, "sigma": 0.12, "gamma": 2},
    10**5: {"alpha": 1, "sigma": 0.12, "gamma": 2},
    10**6: {"alpha": 5, "sigma": 0.12, "gamma": 2},
    10**7: {"alpha": 50, "sigma": 0.12, "gamma": 10},
    10**8: {"alpha": 50, "sigma": 0.15, "gamma": 10},
}


def paper_schedule(num_guesses: int, batch_size: int = 2048) -> DynamicSamplingConfig:
    """Table I parameters for a guess budget (nearest bucket at or below).

    Budgets below 10^4 reuse the 10^4 row, matching the paper's smallest
    reported scale.
    """
    if num_guesses < 1:
        raise ValueError("num_guesses must be >= 1")
    eligible = [b for b in sorted(PAPER_SCHEDULE) if b <= num_guesses]
    bucket = eligible[-1] if eligible else min(PAPER_SCHEDULE)
    row = PAPER_SCHEDULE[bucket]
    return DynamicSamplingConfig(
        alpha=row["alpha"],
        sigma=row["sigma"],
        phi=StepPenalization(gamma=row["gamma"]),
        batch_size=batch_size,
    )
