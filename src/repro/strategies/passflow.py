"""The four PassFlow guessing strategies on the GuessingStrategy protocol.

* ``passflow:static``        -- fixed-prior sampling (PassFlow-Static),
* ``passflow:dynamic``       -- Dynamic Sampling with Penalization
  (Algorithm 1),
* ``passflow:dynamic+gs``    -- Dynamic Sampling + Gaussian Smoothing,
* ``passflow:conditional``   -- template-constrained latent search
  (Sec. VII extension; requires ``template=``).

Static also accepts ``gs=true`` (``passflow:static?gs=true``) for the
smoothed-static arm of Table V-style ablations.

The streaming loops here are RNG-faithful ports of the seed-era eager
static and Algorithm 1 attack loops: driven by an
:class:`~repro.strategies.engine.AttackEngine` over the same budgets they
reproduce those loops' reports exactly.  Every static and dynamic batch,
smoothed or not, is an index matrix: Gaussian Smoothing breaks collisions
on the rows' packed keys, so no guess string is decoded to make it.

These loops spend their time in latent decodes, which run on the fused
``numpy`` kernel backend (:mod:`repro.kernels`) and yield the same guess
stream as the ``reference`` anchor for a fixed ``(seed, spec)``.

The model, its priors and its flows load where they are used, not when
the registry imports this module (``docs/strategies.md``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.conditional import WILDCARD, matches_template
from repro.core.dynamic import DynamicSamplingConfig
from repro.core.penalization import (
    ExponentialDecayPenalization,
    LinearDecayPenalization,
    NoPenalization,
    PhiFunction,
    StepPenalization,
)
from repro.core.smoothing import GaussianSmoother
from repro.strategies.base import DEFAULT_BATCH, GuessBatch, GuessingStrategy
from repro.strategies.registry import (
    BuildResources,
    ParamReader,
    SpecError,
    StrategySpec,
    _clip,
    format_spec,
    parse_bool,
    register,
)

if TYPE_CHECKING:
    from repro.core.model import PassFlow
    from repro.flows.priors import GaussianMixturePrior, Prior

DEFAULT_GS_SCALE = 0.75  # mirrors GaussianSmoother's sigma_scale default


def _smoother_scale(smoother: Optional[GaussianSmoother]) -> Optional[float]:
    """Recover a smoother's sigma_scale for spec round-tripping."""
    if smoother is None:
        return None
    return round(smoother.sigma / smoother.encoder.bin_width, 6)


class StaticStrategy(GuessingStrategy):
    """Fixed-prior guess stream over a trained PassFlow model."""

    def __init__(
        self,
        model: PassFlow,
        prior: Optional[Prior] = None,
        temperature: Optional[float] = None,
        smoother: Optional[GaussianSmoother] = None,
        batch_size: int = DEFAULT_BATCH,
        name: str = "PassFlow-Static",
        spec: Optional[str] = None,
    ) -> None:
        from repro.flows.priors import StandardNormalPrior

        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if spec is None:
            params: Dict[str, object] = {}
            # best effort: a StandardNormalPrior is spec-expressible as a
            # temperature; other custom priors have no spec form
            effective_temperature = temperature
            if effective_temperature is None and isinstance(prior, StandardNormalPrior):
                effective_temperature = prior.sigma
            if effective_temperature is not None:
                params["temperature"] = float(effective_temperature)
            if batch_size != DEFAULT_BATCH:
                params["batch"] = batch_size
            if smoother is not None:
                params["gs"] = True
                gs_scale = _smoother_scale(smoother)
                if gs_scale != DEFAULT_GS_SCALE:
                    params["gs_scale"] = gs_scale
            spec = format_spec("passflow", "static", params)
        super().__init__(spec=spec)
        self.model = model
        if prior is None and temperature is not None:
            prior = StandardNormalPrior(model.config.max_length, sigma=temperature)
        self.prior = prior
        self.smoother = smoother
        self.batch_size = batch_size
        self.name = name
        # Smoothing asks the context which keys it has seen (collision
        # breaking), which depends on the whole attack so far -- only an
        # unsmoothed stream is a pure function of (spec, seed, budget).
        self.replayable = smoother is None

    def iter_guesses(self, rng: np.random.Generator) -> Iterator[GuessBatch]:
        while True:
            count = self.context.next_count(self.batch_size)
            if count < 1:
                return
            latents = self.model.sample_latents(count, rng=rng, prior=self.prior)
            yield _keyed_batch(self, latents, rng)


def _keyed_batch(strategy, latents: np.ndarray, rng: np.random.Generator) -> GuessBatch:
    """Decode ``latents`` to one index-matrix batch.

    The decoded features are binned to index rows; a strategy with a
    smoother then breaks the rows' collisions in key space against the
    guesses its context has seen.
    """
    encoder = strategy.model.encoder
    features = strategy.model.decode_latents_to_features(latents)
    rows = encoder.floats_to_indices(features)
    if strategy.smoother is not None:
        context = strategy.context
        rows = strategy.smoother.smooth(
            rows, features, lambda keys: context.seen_mask(keys, encoder), rng
        )
    return GuessBatch(None, latents=latents, index_matrix=rows, codec=encoder)


class DynamicStrategy(GuessingStrategy):
    """Algorithm 1 as a feedback-driven guess stream.

    The engine notifies fresh matches through :meth:`on_matches`; the
    matched latents (set M) and usage counts (Mh) condition the Eq. 14
    mixture prior (:meth:`mixture_prior`).
    """

    def __init__(
        self,
        model: PassFlow,
        config: Optional[DynamicSamplingConfig] = None,
        smoother: Optional[GaussianSmoother] = None,
        name: Optional[str] = None,
        spec: Optional[str] = None,
    ) -> None:
        config = config or DynamicSamplingConfig()
        if spec is None:
            variant = "dynamic+gs" if smoother is not None else "dynamic"
            params: Dict[str, object] = {
                "alpha": config.alpha,
                "sigma": config.sigma,
            }
            params.update(_phi_spec_params(config.phi))
            if config.batch_size != DEFAULT_BATCH:
                params["batch"] = config.batch_size
            if config.max_components != DynamicSamplingConfig().max_components:
                params["components"] = config.max_components
            if smoother is not None:
                gs_scale = _smoother_scale(smoother)
                if gs_scale != DEFAULT_GS_SCALE:
                    params["gs_scale"] = gs_scale
            spec = format_spec("passflow", variant, params)
        super().__init__(spec=spec)
        if name is None:
            name = "PassFlow-Dynamic+GS" if smoother is not None else "PassFlow-Dynamic"
        self.model = model
        self.config = config
        self.smoother = smoother
        self.name = name
        # The sets M and Mh of Algorithm 1.
        self.matched_latents: List[np.ndarray] = []
        self.usage_counts: List[int] = []
        self._active_window: Tuple[int, np.ndarray] = (0, np.empty(0, dtype=bool))

    # ------------------------------------------------------------------
    # prior construction (Eq. 14)
    # ------------------------------------------------------------------
    def mixture_prior(self) -> Optional[GaussianMixturePrior]:
        from repro.flows.priors import GaussianMixturePrior

        if len(self.matched_latents) <= self.config.alpha:
            return None
        start = max(0, len(self.matched_latents) - self.config.max_components)
        latents = np.stack(self.matched_latents[start:])
        counts = np.asarray(self.usage_counts[start:], dtype=np.float64)
        weights = self.config.phi(counts)
        if weights.sum() <= 0.0:
            return None  # everything penalized: fall back to base prior
        self._active_window = (start, weights > 0.0)
        return GaussianMixturePrior(latents, self.config.sigma, weights)

    def _note_usage(self) -> None:
        start, active = self._active_window
        for offset, is_active in enumerate(active):
            if is_active:
                self.usage_counts[start + offset] += 1

    # ------------------------------------------------------------------
    def iter_guesses(self, rng: np.random.Generator) -> Iterator[GuessBatch]:
        while True:
            count = self.context.next_count(self.config.batch_size)
            if count < 1:
                return
            prior = self.mixture_prior()
            latents = self.model.sample_latents(count, rng=rng, prior=prior)
            if prior is not None:
                self._note_usage()
            yield _keyed_batch(self, latents, rng)

    def on_matches(self, batch: GuessBatch, indices: Sequence[int]) -> None:
        if batch.latents is None:
            return
        for index in indices:
            self.matched_latents.append(batch.latents[index])
            self.usage_counts.append(0)


class ConditionalStrategy(GuessingStrategy):
    """Streaming template-constrained guessing (``'love**'``-style).

    Evolutionary latent search as in
    :class:`~repro.core.conditional.ConditionalGuesser`, recast as an
    endless guess stream: each round perturbs the population, yields the
    feasible decodings, and re-seeds the population from the
    highest-density completions found so far.  Rounds with no feasible
    decoding fall back to random completions of the template so the attack
    always makes guess-budget progress.
    """

    name = "PassFlow-Conditional"

    #: The evolutionary search never reads attack feedback or the seen
    #: set: the stream is a pure function of (template, model, rng).
    replayable = True

    def __init__(
        self,
        model: PassFlow,
        template: str,
        population: int = 128,
        elite_fraction: float = 0.25,
        noise_scale: float = 0.15,
        spec: Optional[str] = None,
    ) -> None:
        if population < 4:
            raise ValueError("population must be >= 4")
        if not 0.0 < elite_fraction <= 1.0:
            raise ValueError("elite_fraction must be in (0, 1]")
        if noise_scale <= 0:
            raise ValueError("noise_scale must be positive")
        if not template:
            raise ValueError("template must be non-empty")
        if len(template) > model.encoder.max_length:
            raise ValueError("template longer than model max_length")
        if not all(ch == WILDCARD or ch in model.alphabet for ch in template):
            raise ValueError("template contains characters outside the alphabet")
        if spec is None:
            params: Dict[str, object] = {"template": template}
            if population != 128:
                params["population"] = population
            spec = format_spec("passflow", "conditional", params)
        super().__init__(spec=spec)
        self.model = model
        self.template = template
        self.population = population
        self.elite = max(1, int(population * elite_fraction))
        self.noise_scale = noise_scale

    def _random_completions(self, count: int, rng: np.random.Generator) -> List[str]:
        chars = self.model.alphabet.chars
        out = []
        for _ in range(count):
            filled = [
                ch if ch != WILDCARD else chars[int(rng.integers(0, len(chars)))]
                for ch in self.template
            ]
            out.append("".join(filled))
        return out

    def iter_guesses(self, rng: np.random.Generator) -> Iterator[GuessBatch]:
        if WILDCARD not in self.template:
            yield GuessBatch([self.template])
            return
        seeds = self._random_completions(self.population, rng)
        latents = self.model.encode_passwords(seeds)
        best: Dict[str, float] = {}
        while True:
            noise = rng.normal(0.0, self.noise_scale, size=latents.shape)
            decoded = self.model.decode_latents(latents + noise)
            feasible = [p for p in decoded if matches_template(p, self.template)]
            if not feasible:
                yield GuessBatch(self._random_completions(self.population, rng))
                continue
            scores = self.model.log_prob(feasible)
            for password, score in zip(feasible, scores):
                previous = best.get(password)
                if previous is None or score > previous:
                    best[password] = float(score)
            ranked = sorted(best.items(), key=lambda kv: -kv[1])
            # bound the memory of the elite archive
            if len(ranked) > 4 * self.population:
                ranked = ranked[: 4 * self.population]
                best = dict(ranked)
            elite_latents = self.model.encode_passwords(
                [password for password, _ in ranked[: self.elite]]
            )
            repeats = int(np.ceil(self.population / len(elite_latents)))
            latents = np.tile(elite_latents, (repeats, 1))[: self.population]
            yield GuessBatch(feasible)


# ----------------------------------------------------------------------
# registry factory
# ----------------------------------------------------------------------
_PHI_BUILDERS = {
    "step": lambda gamma: StepPenalization(gamma),
    "none": lambda gamma: NoPenalization(),
    "linear": lambda gamma: LinearDecayPenalization(gamma),
    "exponential": lambda gamma: ExponentialDecayPenalization(),
}


def _phi_spec_params(phi: PhiFunction) -> Dict[str, object]:
    """Spec parameters that rebuild ``phi`` (best effort for custom phis)."""
    if isinstance(phi, StepPenalization):
        return {"gamma": phi.gamma}  # phi=step is the spec default
    if isinstance(phi, NoPenalization):
        return {"phi": "none"}
    if isinstance(phi, LinearDecayPenalization):
        return {"gamma": phi.horizon, "phi": "linear"}
    if isinstance(phi, ExponentialDecayPenalization):
        return {"phi": "exponential"}
    return {}  # custom phi objects have no spec form


@register(
    "passflow",
    "PassFlow latent-space strategies: static[+gs], dynamic[+gs], conditional",
    bankable="static/conditional only (dynamic and +gs read attack feedback)",
)
def _build_passflow(spec: StrategySpec, resources: BuildResources) -> GuessingStrategy:
    from repro.core.model import PassFlow

    model = resources.model
    if not isinstance(model, PassFlow):
        raise SpecError(
            "passflow specs need model=<trained repro.core.model.PassFlow>"
        )
    variant = spec.variant or "static"
    reader = ParamReader(spec)

    if variant in ("static", "static+gs"):
        temperature = reader.take("temperature", cast=float)
        batch = reader.take("batch", DEFAULT_BATCH, cast=int)
        smoothed = reader.take("gs", variant == "static+gs", cast=parse_bool)
        gs_scale = (
            reader.take("gs_scale", DEFAULT_GS_SCALE, cast=float) if smoothed else None
        )
        reader.finish()
        smoother = (
            GaussianSmoother(model.encoder, sigma_scale=gs_scale) if smoothed else None
        )
        return StaticStrategy(
            model,
            temperature=temperature,
            smoother=smoother,
            batch_size=batch,
            name="PassFlow-Static+GS" if smoothed else "PassFlow-Static",
            spec=reader.canonical(),
        )

    if variant in ("dynamic", "dynamic+gs"):
        defaults = DynamicSamplingConfig()
        alpha = reader.take("alpha", defaults.alpha, cast=int)
        sigma = reader.take("sigma", defaults.sigma, cast=float)
        phi_name = reader.take("phi", "step", cast=str)
        gamma = reader.take("gamma", 2, cast=int)
        batch = reader.take("batch", DEFAULT_BATCH, cast=int)
        max_components = reader.take("components", defaults.max_components, cast=int)
        smoothed = variant == "dynamic+gs"
        gs_scale = (
            reader.take("gs_scale", DEFAULT_GS_SCALE, cast=float) if smoothed else None
        )
        reader.finish()
        phi_builder = _PHI_BUILDERS.get(phi_name)
        if phi_builder is None:
            raise SpecError(
                f"unknown phi {_clip(phi_name)!r} (options: {sorted(_PHI_BUILDERS)})"
            )
        config = DynamicSamplingConfig(
            alpha=alpha,
            sigma=sigma,
            phi=phi_builder(gamma),
            batch_size=batch,
            max_components=max_components,
        )
        smoother = (
            GaussianSmoother(model.encoder, sigma_scale=gs_scale) if smoothed else None
        )
        return DynamicStrategy(model, config, smoother=smoother, spec=reader.canonical())

    if variant == "conditional":
        template = reader.take("template", cast=str)
        if not template:
            raise SpecError("passflow:conditional needs template=<pattern> (* = unknown)")
        population = reader.take("population", 128, cast=int)
        elite = reader.take("elite", 0.25, cast=float)
        noise = reader.take("noise", 0.15, cast=float)
        reader.finish()
        return ConditionalStrategy(
            model,
            template,
            population=population,
            elite_fraction=elite,
            noise_scale=noise,
            spec=reader.canonical(),
        )

    raise SpecError(
        f"unknown passflow variant {_clip(variant)!r} "
        "(options: static, static+gs, dynamic, dynamic+gs, conditional)"
    )
