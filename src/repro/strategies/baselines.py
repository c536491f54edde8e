"""The five baseline guessers adapted onto the GuessingStrategy protocol.

* ``passgan``            -- PassGAN-style Wasserstein GAN (Sec. VI-A/B),
* ``cwae``               -- Context Wasserstein Autoencoder (Sec. VI-C),
* ``markov[:order]``     -- character n-gram model (JTR Markov mode),
* ``pcfg``               -- Weir-style probabilistic context-free grammar,
* ``rules``              -- HashCat/JTR-style wordlist mangling.

Each factory accepts either a pre-fitted model instance (``model=``) or a
training ``corpus=`` to fit one on demand; the neural baselines
additionally honour training knobs in the spec (``passgan?iterations=300``)
so even they are constructible from a bare string.

Each factory imports its model when it runs, so registering the five
families loads none of them (``docs/strategies.md``).
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

import numpy as np

from repro.strategies.base import DEFAULT_BATCH, GuessBatch, GuessingStrategy
from repro.strategies.registry import (
    BuildResources,
    ParamReader,
    SpecError,
    StrategySpec,
    format_spec,
    register,
)
from repro.utils.text import _clip


def _batch_param(reader: ParamReader) -> int:
    """The shared ``batch`` parameter every baseline factory honours."""
    return reader.take("batch", DEFAULT_BATCH, cast=int)


def _spec_params(reader: ParamReader, fitted_anew: bool) -> dict:
    """Params to record in the canonical spec.

    Training knobs only describe the strategy when the factory actually
    trained the model; with a pre-fitted instance they were no-ops and
    recording them would misrepresent the configuration.
    """
    if fitted_anew:
        return dict(reader.used)
    return {k: v for k, v in reader.used.items() if k == "batch"}


class SampledModelStrategy(GuessingStrategy):
    """Any generator with ``sample_passwords(count, rng)`` as a strategy.

    Covers all five baselines (and any future model with the common
    sampling interface); the guess stream is the model's i.i.d. sampler,
    one ``sample_passwords`` call per batch, each call capped at the
    remaining budget.
    """

    #: The stream is feedback-free i.i.d. sampling: a pure function of
    #: ``(model, rng)``, so it can be banked and replayed bit-identically.
    replayable = True

    def __init__(
        self,
        model: Any,
        name: str,
        batch_size: int = DEFAULT_BATCH,
        spec: Optional[str] = None,
    ) -> None:
        if not hasattr(model, "sample_passwords"):
            raise TypeError(f"{type(model).__name__} has no sample_passwords()")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        super().__init__(spec=spec)
        self.model = model
        self.name = name
        self.batch_size = batch_size

    def iter_guesses(self, rng: np.random.Generator) -> Iterator[GuessBatch]:
        while True:
            count = self.context.next_count(self.batch_size)
            if count < 1:
                return
            yield GuessBatch(list(self.model.sample_passwords(count, rng)))


def _alphabet_chars(resources: BuildResources) -> Optional[str]:
    alphabet = resources.alphabet
    return getattr(alphabet, "chars", None) if alphabet is not None else None


def _need_corpus(spec: StrategySpec, resources: BuildResources):
    if not resources.corpus:
        raise SpecError(
            f"spec {_clip(spec.canonical())!r} needs either a fitted model instance "
            "(model=...) or a training corpus (corpus=...)"
        )
    return resources.corpus


# ----------------------------------------------------------------------
@register(
    "markov",
    "order-k character n-gram baseline; variant = order (markov:3)",
    bankable="yes (feedback-free sampler)",
)
def _build_markov(spec: StrategySpec, resources: BuildResources) -> GuessingStrategy:
    from repro.baselines.markov import MarkovModel

    reader = ParamReader(spec)
    if spec.variant:
        try:
            order = int(spec.variant)
        except ValueError:
            raise SpecError(
                f"markov variant must be an integer order, got {_clip(spec.variant)!r}"
            ) from None
    else:
        order = 3
    smoothing = reader.take("smoothing", 0.01, cast=float)
    batch = _batch_param(reader)
    reader.finish()
    model = resources.model
    fitted_anew = not isinstance(model, MarkovModel)
    if not fitted_anew:
        if spec.variant and model.order != order:
            raise SpecError(
                f"spec asks for markov:{order} but the supplied model has "
                f"order {model.order}"
            )
    else:
        model = MarkovModel(order=order, smoothing=smoothing)
        model.fit(_need_corpus(spec, resources))
    return SampledModelStrategy(
        model,
        name=f"Markov-{model.order}",
        batch_size=batch,
        spec=format_spec("markov", str(model.order), _spec_params(reader, fitted_anew)),
    )


@register(
    "pcfg",
    "Weir-style PCFG baseline (structure + terminal sampling)",
    bankable="yes (feedback-free sampler)",
)
def _build_pcfg(spec: StrategySpec, resources: BuildResources) -> GuessingStrategy:
    from repro.baselines.pcfg import PCFGModel

    if spec.variant:
        raise SpecError("pcfg takes no variant")
    reader = ParamReader(spec)
    batch = _batch_param(reader)
    reader.finish()
    model = resources.model
    fitted_anew = not isinstance(model, PCFGModel)
    if fitted_anew:
        model = PCFGModel().fit(_need_corpus(spec, resources))
    return SampledModelStrategy(
        model,
        name="PCFG",
        batch_size=batch,
        spec=format_spec("pcfg", None, _spec_params(reader, fitted_anew)),
    )


@register(
    "rules",
    "wordlist + mangling-rule baseline (rules?wordlist=300)",
    bankable="yes (feedback-free sampler)",
)
def _build_rules(spec: StrategySpec, resources: BuildResources) -> GuessingStrategy:
    from repro.baselines.rules import RuleBasedGuesser

    if spec.variant:
        raise SpecError("rules takes no variant")
    reader = ParamReader(spec)
    wordlist = reader.take("wordlist", 200, cast=int)
    batch = _batch_param(reader)
    reader.finish()
    model = resources.model
    fitted_anew = not isinstance(model, RuleBasedGuesser)
    if fitted_anew:
        model = RuleBasedGuesser(wordlist_size=wordlist)
        model.fit(_need_corpus(spec, resources))
    return SampledModelStrategy(
        model,
        name="Rules",
        batch_size=batch,
        spec=format_spec("rules", None, _spec_params(reader, fitted_anew)),
    )


@register(
    "passgan",
    "PassGAN-style WGAN baseline (trains on demand: passgan?iterations=300)",
    bankable="yes (feedback-free sampler)",
)
def _build_passgan(spec: StrategySpec, resources: BuildResources) -> GuessingStrategy:
    from repro.baselines.gan import PassGAN, PassGANConfig

    if spec.variant:
        raise SpecError("passgan takes no variant")
    reader = ParamReader(spec)
    iterations = reader.take("iterations", 300, cast=int)
    hidden = reader.take("hidden", 64, cast=int)
    encoding = reader.take("encoding", "numeric", cast=str)
    seed = reader.take("seed", 0, cast=int)
    batch = _batch_param(reader)
    reader.finish()
    model = resources.model
    fitted_anew = not isinstance(model, PassGAN)
    if fitted_anew:
        config = PassGANConfig(
            alphabet_chars=_alphabet_chars(resources),
            hidden=hidden,
            iterations=iterations,
            encoding=encoding,
            seed=seed,
        )
        model = PassGAN(config)
        model.fit(_need_corpus(spec, resources))
    return SampledModelStrategy(
        model,
        name="PassGAN",
        batch_size=batch,
        spec=format_spec("passgan", None, _spec_params(reader, fitted_anew)),
    )


@register(
    "cwae",
    "Context Wasserstein Autoencoder baseline (trains on demand: cwae?epochs=20)",
    bankable="yes (feedback-free sampler)",
)
def _build_cwae(spec: StrategySpec, resources: BuildResources) -> GuessingStrategy:
    from repro.baselines.cwae import CWAE, CWAEConfig

    if spec.variant:
        raise SpecError("cwae takes no variant")
    reader = ParamReader(spec)
    epochs = reader.take("epochs", 20, cast=int)
    hidden = reader.take("hidden", 64, cast=int)
    latent = reader.take("latent", 32, cast=int)
    seed = reader.take("seed", 0, cast=int)
    batch = _batch_param(reader)
    reader.finish()
    model = resources.model
    fitted_anew = not isinstance(model, CWAE)
    if fitted_anew:
        config = CWAEConfig(
            alphabet_chars=_alphabet_chars(resources),
            latent_dim=latent,
            hidden=hidden,
            epochs=epochs,
            seed=seed,
        )
        model = CWAE(config)
        model.fit(_need_corpus(spec, resources))
    return SampledModelStrategy(
        model,
        name="CWAE",
        batch_size=batch,
        spec=format_spec("cwae", None, _spec_params(reader, fitted_anew)),
    )
