"""Generative flows (Sec. II and III of the paper).

* :mod:`repro.flows.bijector` -- the invertible-transform interface,
* :mod:`repro.flows.masks` -- binary masking strategies for coupling layers
  (horizontal and char-run m, Sec. III-A.1 and V-C),
* :mod:`repro.flows.coupling` -- affine coupling layers (Eqs. 9-13),
* :mod:`repro.flows.logit` -- dequantization-to-logit preprocessing bijector,
* :mod:`repro.flows.actnorm` -- activation normalization (Glow-style
  extension; ablatable),
* :mod:`repro.flows.flow` -- composition with exact log-likelihood
  (Eqs. 5-8) and numpy fast paths for sampling,
* :mod:`repro.flows.priors` -- the factorized standard-normal prior and the
  penalized Gaussian-mixture posterior of Eq. 14.

Names load their submodule on first use (:mod:`repro.utils.lazy`).
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".bijector": ["Bijector"],
        ".masks": ["horizontal_mask", "char_run_mask", "alternating_masks"],
        ".coupling": ["AffineCoupling"],
        ".additive": ["AdditiveCoupling"],
        ".permutation": ["Permutation"],
        ".logit": ["LogitTransform"],
        ".actnorm": ["ActNorm"],
        ".flow": ["Flow"],
        ".priors": ["Prior", "StandardNormalPrior", "GaussianMixturePrior"],
    },
)
