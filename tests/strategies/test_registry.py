"""Spec parsing and the strategy registry (build/describe round-trips)."""

import numpy as np
import pytest

from repro.strategies import (
    SpecError,
    StrategySpec,
    available_strategies,
    build,
    format_spec,
    parse_spec,
    unwrap_spec,
)
from repro.strategies.baselines import SampledModelStrategy
from repro.strategies.passflow import (
    ConditionalStrategy,
    DynamicStrategy,
    StaticStrategy,
)
from repro.strategies.registry import MAX_SPEC_DEPTH


class TestParseSpec:
    def test_bare_family(self):
        spec = parse_spec("pcfg")
        assert spec.family == "pcfg"
        assert spec.variant is None
        assert spec.params == ()

    def test_variant(self):
        spec = parse_spec("markov:3")
        assert (spec.family, spec.variant) == ("markov", "3")

    def test_params_typed(self):
        spec = parse_spec("passflow:dynamic+gs?alpha=1&sigma=0.12&gs=true&phi=step")
        params = spec.param_dict
        assert params["alpha"] == 1 and isinstance(params["alpha"], int)
        assert params["sigma"] == 0.12 and isinstance(params["sigma"], float)
        assert params["gs"] == "true"  # booleans coerce at build time
        assert params["phi"] == "step"

    def test_structural_chars_escape_in_values(self):
        # '&' and '=' are in the default alphabet, so templates may contain
        # them; format/parse must round-trip via percent-escapes
        spec = format_spec("passflow", "conditional", {"template": "a&b=c%d*"})
        assert parse_spec(spec).param_dict["template"] == "a&b=c%d*"
        assert parse_spec(spec).canonical() == spec

    @pytest.mark.parametrize("text", ["007", "1_000", "1e4", "+1", "0.10"])
    def test_lossy_numeric_text_stays_string(self, text):
        # values whose numeric coercion would not round-trip must survive
        # verbatim (e.g. conditional templates made of digits)
        params = parse_spec(f"passflow:conditional?template={text}").param_dict
        assert params["template"] == text
        assert isinstance(params["template"], str)

    def test_canonical_sorts_params(self):
        spec = parse_spec("passflow:dynamic?sigma=0.12&alpha=1")
        assert spec.canonical() == "passflow:dynamic?alpha=1&sigma=0.12"

    def test_parse_equality_is_order_insensitive(self):
        assert parse_spec("markov:3?batch=64&smoothing=0.5") == parse_spec(
            "markov:3?smoothing=0.5&batch=64"
        )

    @pytest.mark.parametrize("bad", ["", "   ", "?alpha=1", "passflow?alpha", "markov?a=1&a=2"])
    def test_malformed_specs_raise(self, bad):
        with pytest.raises(SpecError):
            parse_spec(bad)

    def test_format_spec_round_trips(self):
        spec = format_spec("passflow", "dynamic", {"alpha": 1, "sigma": 0.12})
        assert spec == "passflow:dynamic?alpha=1&sigma=0.12"
        assert parse_spec(spec).canonical() == spec


def _nested(depth):
    spec = "markov:3"
    for _ in range(depth):
        spec = f"policy({spec})?min_len=1"
    return spec


class TestSpecDepth:
    def test_deepest_allowed_nesting_parses(self):
        assert unwrap_spec(_nested(MAX_SPEC_DEPTH)) == parse_spec("markov:3")

    @pytest.mark.parametrize("depth", [MAX_SPEC_DEPTH + 1, 1200])
    def test_deeper_nesting_is_one_spec_error(self, depth):
        with pytest.raises(SpecError, match=f"more than {MAX_SPEC_DEPTH} deep") as info:
            unwrap_spec(_nested(depth))
        assert "\n" not in str(info.value)


class TestRegistry:
    def test_all_families_registered(self):
        families = available_strategies()
        assert {"passflow", "passgan", "cwae", "markov", "pcfg", "rules"} <= set(families)
        assert all(families.values())  # every family has a summary

    def test_unknown_family_raises(self):
        with pytest.raises(SpecError, match="unknown strategy family"):
            build("quantum", corpus=["a"])

    def test_unknown_param_raises(self, trained_model):
        with pytest.raises(SpecError, match="unknown parameter"):
            build("passflow:static?temprature=0.7", model=trained_model)

    def test_unknown_variant_raises(self, trained_model):
        with pytest.raises(SpecError, match="variant"):
            build("passflow:quantum", model=trained_model)

    def test_passflow_without_model_raises(self):
        with pytest.raises(SpecError, match="model"):
            build("passflow:static")

    def test_baseline_without_model_or_corpus_raises(self):
        with pytest.raises(SpecError, match="corpus"):
            build("markov:3")

    def test_bad_phi_raises(self, trained_model):
        with pytest.raises(SpecError, match="phi"):
            build("passflow:dynamic?phi=quadratic", model=trained_model)


ALL_NINE = (
    # (spec, expected report-method name)
    ("passflow:static?temperature=0.75", "PassFlow-Static"),
    ("passflow:dynamic?alpha=1&sigma=0.12", "PassFlow-Dynamic"),
    ("passflow:dynamic+gs?alpha=1&sigma=0.12", "PassFlow-Dynamic+GS"),
    ("passflow:conditional?template=love**", "PassFlow-Conditional"),
    ("passgan?hidden=8&iterations=2", "PassGAN"),
    ("cwae?epochs=1&hidden=8&latent=4", "CWAE"),
    ("markov:3", "Markov-3"),
    ("pcfg", "PCFG"),
    ("rules?wordlist=50", "Rules"),
)


class TestBuildAllStrategies:
    @pytest.fixture(scope="class")
    def strategies(self, trained_model, corpus):
        # neural baselines get a tiny corpus + tiny configs so the
        # train-on-demand path stays fast
        return {
            spec: build(
                spec,
                model=trained_model,
                corpus=corpus[:300],
                alphabet=trained_model.alphabet,
            )
            for spec, _ in ALL_NINE
        }

    @pytest.mark.parametrize("spec,name", ALL_NINE)
    def test_spec_resolves_with_expected_name(self, strategies, spec, name):
        assert strategies[spec].name == name

    @pytest.mark.parametrize("spec,name", ALL_NINE)
    def test_describe_round_trips(self, strategies, spec, name):
        described = strategies[spec].describe()
        assert described == spec
        assert parse_spec(described) == parse_spec(spec)

    @pytest.mark.parametrize("spec,name", ALL_NINE)
    def test_all_strategies_stream_guesses(self, strategies, spec, name, rng):
        batch = next(strategies[spec].iter_guesses(rng))
        assert len(batch) >= 1
        assert all(isinstance(p, str) for p in batch)

    def test_rebuild_from_describe(self, strategies, trained_model, corpus):
        for spec, _ in ALL_NINE:
            rebuilt = build(
                strategies[spec].describe(),
                model=trained_model,
                corpus=corpus[:300],
                alphabet=trained_model.alphabet,
            )
            assert rebuilt.describe() == strategies[spec].describe()


class TestResourceDispatch:
    def test_prefitted_baseline_reused(self, corpus, rng):
        from repro.baselines import MarkovModel

        fitted = MarkovModel(order=2).fit(corpus[:200])
        strategy = build("markov:2", model=fitted)
        assert strategy.model is fitted
        assert strategy.describe() == "markov:2"

    def test_prefitted_baseline_drops_ignored_training_params(self, corpus):
        from repro.baselines import MarkovModel

        fitted = MarkovModel(order=3).fit(corpus[:200])
        # smoothing=0.9 was never applied (the model is pre-fitted), so the
        # canonical spec must not attest to it; batch is a runtime param
        strategy = build("markov:3?batch=64&smoothing=0.9", model=fitted)
        assert strategy.describe() == "markov:3?batch=64"

    def test_order_mismatch_raises(self, corpus):
        from repro.baselines import MarkovModel

        fitted = MarkovModel(order=2).fit(corpus[:200])
        with pytest.raises(SpecError, match="order"):
            build("markov:4", model=fitted)

    def test_non_integer_markov_variant_is_spec_error(self, corpus):
        with pytest.raises(SpecError, match="integer order"):
            build("markov:x", corpus=corpus[:200])

    def test_wrong_model_type_falls_back_to_corpus(self, trained_model, corpus):
        # a PassFlow model is not a MarkovModel; the factory must fit anew
        strategy = build("markov:3", model=trained_model, corpus=corpus[:200])
        assert isinstance(strategy, SampledModelStrategy)
        assert strategy.model is not trained_model

    def test_only_build_gives_a_spec(self, trained_model, tmp_path, rng):
        """The factory's canonical string is the one spec a PassFlow
        strategy has; one constructed directly has none, and still runs."""
        from repro.bank import build_bank
        from repro.strategies import take

        direct = DynamicStrategy(trained_model)
        with pytest.raises(NotImplementedError, match="has no spec"):
            direct.describe()
        built = build("passflow:dynamic?alpha=5", model=trained_model)
        assert built.describe() == "passflow:dynamic?alpha=5"
        for config in (direct.config, built.config):
            assert (config.alpha, config.sigma, config.phi.gamma) == (5, 0.12, 2)
        assert len(take(direct, 50, rng)) == 50
        static = StaticStrategy(trained_model, temperature=0.5)
        bank = build_bank(static, 100, tmp_path / "direct.bank")
        assert bank.spec == "<unspecified:PassFlow-Static>"

    def test_numeric_template_round_trips_through_build(self, trained_model):
        strategy = build("passflow:conditional?template=123456*", model=trained_model)
        assert strategy.template == "123456*"
        assert strategy.describe() == "passflow:conditional?template=123456*"

    def test_conditional_requires_template(self, trained_model):
        with pytest.raises(SpecError, match="template"):
            build("passflow:conditional", model=trained_model)

    def test_conditional_validates_template(self, trained_model):
        with pytest.raises(ValueError):
            ConditionalStrategy(trained_model, "x" * 99)
