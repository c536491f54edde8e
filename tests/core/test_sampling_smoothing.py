"""Static sampling strategy and Gaussian Smoothing."""

import numpy as np
import pytest

from repro.core.smoothing import GaussianSmoother
from repro.strategies import AttackEngine
from repro.strategies.passflow import StaticStrategy


def attack(test_set, budgets, strategy, seed):
    return AttackEngine(test_set, budgets).run(strategy, np.random.default_rng(seed))


class TestStaticStrategy:
    def test_validation(self, trained_model):
        with pytest.raises(ValueError):
            StaticStrategy(trained_model, batch_size=0)

    def test_attack_report_shape(self, trained_model, trained_dataset):
        strategy = StaticStrategy(trained_model, batch_size=128)
        report = attack(trained_dataset.test_set, [100, 400], strategy, seed=0)
        assert [r.guesses for r in report.rows] == [100, 400]
        assert report.method == "PassFlow-Static"

    def test_total_guesses_exact(self, trained_model, trained_dataset):
        strategy = StaticStrategy(trained_model, batch_size=77)  # non-divisor batch
        report = attack(trained_dataset.test_set, [200], strategy, seed=0)
        assert report.final().guesses == 200

    def test_concentrated_prior_causes_collisions(self, trained_model, trained_dataset):
        # sampling a tight ball around one latent point is the collision
        # regime of Sec. III-C: unique count must crater
        from repro.flows.priors import GaussianMixturePrior

        center = trained_model.encode_passwords(["love12"])
        tight = GaussianMixturePrior(center, sigmas=0.02)
        report = attack(
            trained_dataset.test_set,
            [1000],
            StaticStrategy(trained_model, prior=tight),
            seed=1,
        )
        assert report.final().unique < 500

    def test_smoother_increases_uniqueness_in_collision_regime(
        self, trained_model, trained_dataset
    ):
        from repro.flows.priors import GaussianMixturePrior

        center = trained_model.encode_passwords(["love12"])
        tight = GaussianMixturePrior(center, sigmas=0.02)
        plain = attack(
            trained_dataset.test_set,
            [1000],
            StaticStrategy(trained_model, prior=tight),
            seed=2,
        )
        smoothed = attack(
            trained_dataset.test_set,
            [1000],
            StaticStrategy(
                trained_model,
                prior=tight,
                smoother=GaussianSmoother(trained_model.encoder),
            ),
            seed=2,
        )
        assert smoothed.final().unique > plain.final().unique


class TestGaussianSmoother:
    def test_validation(self, trained_model):
        with pytest.raises(ValueError):
            GaussianSmoother(trained_model.encoder, sigma_scale=0.0)
        with pytest.raises(ValueError):
            GaussianSmoother(trained_model.encoder, max_attempts=0)

    def test_non_colliding_untouched(self, trained_model):
        smoother = GaussianSmoother(trained_model.encoder)
        passwords = ["love12", "maria9"]
        out = smoother.smooth(passwords, None, set(), np.random.default_rng(0))
        assert out == passwords

    def test_collisions_perturbed(self, trained_model):
        smoother = GaussianSmoother(trained_model.encoder, max_attempts=8)
        seen = {"love12"}
        out = smoother.smooth(["love12"], None, seen, np.random.default_rng(0))
        assert out[0] != "love12" or out[0] in seen  # either broken or gave up
        # with 8 attempts at bin-scale noise a change is essentially certain
        assert out[0] != "love12"

    def test_perturbed_stays_similar(self, trained_model):
        from repro.analysis.neighborhood import edit_distance

        smoother = GaussianSmoother(trained_model.encoder, sigma_scale=0.5, max_attempts=4)
        out = smoother.smooth(["love12"], None, {"love12"}, np.random.default_rng(1))
        assert edit_distance("love12", out[0]) <= 3

    def test_features_length_mismatch_raises(self, trained_model):
        smoother = GaussianSmoother(trained_model.encoder)
        with pytest.raises(ValueError):
            smoother.smooth(["a", "b"], np.zeros((1, 10)), set(), np.random.default_rng(0))

    def test_batch_with_mixed_collisions(self, trained_model):
        smoother = GaussianSmoother(trained_model.encoder, max_attempts=6)
        seen = {"love12", "magic7"}
        passwords = ["love12", "fresh1", "magic7"]
        out = smoother.smooth(passwords, None, seen, np.random.default_rng(2))
        assert out[1] == "fresh1"
        assert out[0] not in seen and out[2] not in seen
