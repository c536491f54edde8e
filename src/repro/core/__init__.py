"""PassFlow: the paper's primary contribution.

* :mod:`repro.core.model` -- the PassFlow model (flow over encoded
  passwords) and its NLL training loop (Sec. III, IV-D),
* :mod:`repro.core.penalization` -- the phi functions of Sec. III-B/IV-B
  (step function plus the decay variants proposed as future work),
* :mod:`repro.core.dynamic` -- Dynamic Sampling with Penalization
  (Algorithm 1 configuration, Table I parameters),
* :mod:`repro.core.smoothing` -- data-space Gaussian Smoothing (Sec. III-C),
* :mod:`repro.core.interpolation` -- latent interpolation (Algorithm 2),
* :mod:`repro.core.conditional` -- conditional guessing extension
  (Sec. VII future work),
* :mod:`repro.core.guesser` -- guess accounting and reports.

The sampling strategies themselves (PassFlow-Static, Algorithm 1) live
behind the unified :mod:`repro.strategies` API (protocol + spec-string
registry + streaming engine).
"""

from repro.core.model import PassFlow, PassFlowConfig, TrainingHistory
from repro.core.penalization import (
    ExponentialDecayPenalization,
    LinearDecayPenalization,
    NoPenalization,
    PhiFunction,
    StepPenalization,
)
from repro.core.dynamic import DynamicSamplingConfig, paper_schedule
from repro.core.smoothing import GaussianSmoother
from repro.core.interpolation import interpolate
from repro.core.conditional import ConditionalGuesser
from repro.core.guesser import GuessingReport
from repro.core.strength import StrengthEstimator

__all__ = [
    "PassFlow",
    "PassFlowConfig",
    "TrainingHistory",
    "PhiFunction",
    "StepPenalization",
    "LinearDecayPenalization",
    "ExponentialDecayPenalization",
    "NoPenalization",
    "DynamicSamplingConfig",
    "paper_schedule",
    "GaussianSmoother",
    "interpolate",
    "ConditionalGuesser",
    "GuessingReport",
    "StrengthEstimator",
]
