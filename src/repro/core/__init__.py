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

Names load on first use (:mod:`repro.utils.lazy`): no model code at import.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".model": ["PassFlow", "PassFlowConfig", "TrainingHistory"],
        ".penalization": [
            "PhiFunction",
            "StepPenalization",
            "LinearDecayPenalization",
            "ExponentialDecayPenalization",
            "NoPenalization",
        ],
        ".dynamic": ["DynamicSamplingConfig", "paper_schedule"],
        ".smoothing": ["GaussianSmoother"],
        ".interpolation": ["interpolate"],
        ".conditional": ["ConditionalGuesser"],
        ".guesser": ["GuessingReport"],
        ".strength": ["StrengthEstimator"],
    },
)
