"""Baselines the paper compares against (Sec. V-A, VI).

* :mod:`repro.baselines.gan` -- PassGAN-style Wasserstein GAN (Sec. VI-A/B),
* :mod:`repro.baselines.cwae` -- Context Wasserstein Autoencoder
  (Sec. VI-C),
* :mod:`repro.baselines.markov` -- n-gram Markov model (JTR Markov mode,
  ref [2]),
* :mod:`repro.baselines.pcfg` -- Weir-style probabilistic context-free
  grammar [43],
* :mod:`repro.baselines.rules` -- HashCat/JTR-style wordlist mangling.

Every baseline exposes ``fit(passwords)`` and
``sample_passwords(count, rng)`` so the guessing harness treats them
uniformly with PassFlow.

Names load on first use (:mod:`repro.utils.lazy`): a Markov attack loads no
neural baseline.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".markov": ["MarkovModel"],
        ".pcfg": ["PCFGModel"],
        ".rules": ["RuleBasedGuesser"],
        ".gan": ["PassGAN", "PassGANConfig"],
        ".cwae": ["CWAE", "CWAEConfig"],
    },
)
