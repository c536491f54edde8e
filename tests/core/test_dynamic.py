"""Dynamic Sampling with Penalization (Algorithm 1)."""

import numpy as np
import pytest

from repro.core.dynamic import PAPER_SCHEDULE, DynamicSamplingConfig, paper_schedule
from repro.core.penalization import NoPenalization, StepPenalization
from repro.core.smoothing import GaussianSmoother
from repro.flows.priors import GaussianMixturePrior
from repro.strategies import AttackEngine
from repro.strategies.passflow import DynamicStrategy


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            DynamicSamplingConfig(alpha=-1)
        with pytest.raises(ValueError):
            DynamicSamplingConfig(sigma=0.0)
        with pytest.raises(ValueError):
            DynamicSamplingConfig(batch_size=0)
        with pytest.raises(ValueError):
            DynamicSamplingConfig(max_components=0)


class TestPaperSchedule:
    def test_table1_values(self):
        assert PAPER_SCHEDULE[10**4] == {"alpha": 1, "sigma": 0.12, "gamma": 2}
        assert PAPER_SCHEDULE[10**8] == {"alpha": 50, "sigma": 0.15, "gamma": 10}

    def test_exact_budget(self):
        config = paper_schedule(10**7)
        assert config.alpha == 50 and config.sigma == 0.12
        assert isinstance(config.phi, StepPenalization) and config.phi.gamma == 10

    def test_intermediate_budget_uses_lower_bucket(self):
        assert paper_schedule(5 * 10**6).alpha == 5

    def test_small_budget_uses_smallest_bucket(self):
        assert paper_schedule(100).alpha == 1

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            paper_schedule(0)


class TestMixtureConstruction:
    def _strategy(self, trained_model, alpha=1, phi=None):
        config = DynamicSamplingConfig(
            alpha=alpha, sigma=0.1, phi=phi or StepPenalization(2), batch_size=64
        )
        return DynamicStrategy(trained_model, config)

    def test_no_mixture_before_alpha(self, trained_model):
        strategy = self._strategy(trained_model, alpha=2)
        strategy.matched_latents = [np.zeros(10), np.ones(10)]
        strategy.usage_counts = [0, 0]
        assert strategy.mixture_prior() is None  # len == alpha, needs >

    def test_mixture_after_alpha(self, trained_model):
        strategy = self._strategy(trained_model, alpha=1)
        strategy.matched_latents = [np.zeros(10), np.ones(10)]
        strategy.usage_counts = [0, 0]
        prior = strategy.mixture_prior()
        assert isinstance(prior, GaussianMixturePrior)
        assert prior.num_components == 2

    def test_fully_penalized_falls_back(self, trained_model):
        strategy = self._strategy(trained_model, alpha=0)
        strategy.matched_latents = [np.zeros(10)]
        strategy.usage_counts = [99]  # beyond gamma=2
        assert strategy.mixture_prior() is None

    def test_usage_counting(self, trained_model):
        strategy = self._strategy(trained_model, alpha=0)
        strategy.matched_latents = [np.zeros(10), np.ones(10)]
        strategy.usage_counts = [0, 5]  # second already penalized out
        prior = strategy.mixture_prior()
        assert prior.num_components == 2  # built over window, weight 0 for idx 1
        strategy._note_usage()
        assert strategy.usage_counts == [1, 5]  # only active component charged

    def test_max_components_window(self, trained_model):
        config = DynamicSamplingConfig(
            alpha=0, sigma=0.1, phi=NoPenalization(), batch_size=8, max_components=3
        )
        strategy = DynamicStrategy(trained_model, config)
        strategy.matched_latents = [np.full(10, float(i)) for i in range(10)]
        strategy.usage_counts = [0] * 10
        prior = strategy.mixture_prior()
        assert prior.num_components == 3
        assert np.allclose(prior.means[0], 7.0)  # most recent window


class TestAttack:
    def test_attack_produces_report(self, trained_model, trained_dataset):
        config = DynamicSamplingConfig(alpha=1, sigma=0.12, batch_size=128)
        report = AttackEngine(trained_dataset.test_set, [128, 512]).run(
            DynamicStrategy(trained_model, config), np.random.default_rng(0)
        )
        assert [r.guesses for r in report.rows] == [128, 512]
        assert report.method == "PassFlow-Dynamic"

    def test_matches_recorded_in_latent_memory(self, trained_model, trained_dataset):
        config = DynamicSamplingConfig(alpha=1, sigma=0.12, batch_size=256)
        strategy = DynamicStrategy(trained_model, config)
        report = AttackEngine(trained_dataset.test_set, [2048]).run(
            strategy, np.random.default_rng(3)
        )
        assert len(strategy.matched_latents) == report.final().matched
        assert len(strategy.usage_counts) == len(strategy.matched_latents)

    def test_attack_with_smoother_runs(self, trained_model, trained_dataset):
        config = DynamicSamplingConfig(alpha=1, sigma=0.12, batch_size=128)
        strategy = DynamicStrategy(
            trained_model, config, smoother=GaussianSmoother(trained_model.encoder)
        )
        report = AttackEngine(trained_dataset.test_set, [512]).run(
            strategy, np.random.default_rng(1)
        )
        assert report.final().guesses == 512
        assert report.method == "PassFlow-Dynamic+GS"

    def test_rows_monotone(self, trained_model, trained_dataset):
        config = DynamicSamplingConfig(alpha=1, sigma=0.15, batch_size=128)
        report = AttackEngine(trained_dataset.test_set, [128, 256, 512]).run(
            DynamicStrategy(trained_model, config), np.random.default_rng(2)
        )
        uniques = [r.unique for r in report.rows]
        matches = [r.matched for r in report.rows]
        assert uniques == sorted(uniques)
        assert matches == sorted(matches)
