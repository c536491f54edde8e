"""Static sampling strategy and Gaussian Smoothing."""

from typing import List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.smoothing import GaussianSmoother
from repro.data.alphabet import Alphabet
from repro.data.encoding import PasswordEncoder
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


def copying_smooth(smoother, passwords, features, seen, rng) -> List[str]:
    """The smoother as it was before it stopped copying ``seen``: the
    stream oracle for the in-place membership test."""
    passwords = list(passwords)
    if features is None:
        features = smoother.encoder.encode_batch(passwords)
    features = np.array(np.atleast_2d(features), dtype=np.float64, copy=True)
    working = set(seen)
    colliding = []
    for i, password in enumerate(passwords):
        if password and password not in working:
            working.add(password)
        else:
            colliding.append(i)
    if not colliding:
        return passwords
    for _ in range(smoother.max_attempts):
        if not colliding:
            break
        idx = np.array(colliding)
        noise = rng.normal(0.0, smoother.sigma, size=(len(idx), features.shape[1]))
        features[idx] += noise
        decoded = smoother.encoder.decode_batch(features[idx])
        still = []
        for j, candidate in zip(idx, decoded):
            if candidate and candidate not in working:
                working.add(candidate)
                passwords[j] = candidate
            else:
                still.append(int(j))
        colliding = still
    return passwords


class NoIteration:
    """A seen set that answers membership but fails if anything copies it."""

    def __init__(self, items):
        self._items = frozenset(items)

    def __contains__(self, item):
        return item in self._items

    def __len__(self):
        return len(self._items)

    def __iter__(self):
        raise AssertionError("the smoother iterated (copied) the seen set")


# a 2-symbol alphabet at length 3 has 15 passwords, so perturbed
# candidates collide with ``seen`` and with each other all the time
TINY_ENCODER = PasswordEncoder(Alphabet("ab"), max_length=3)
TINY_WORDS = ["", "a", "b", "aa", "ab", "ba", "bb", "aab", "bba", "aba"]


class TestCopyFreeSmoother:
    @given(
        batch=st.lists(st.sampled_from(TINY_WORDS), max_size=24),
        seen=st.sets(st.sampled_from(TINY_WORDS[1:]), max_size=8),
        with_features=st.booleans(),
        sigma_scale=st.sampled_from([0.25, 0.75, 2.0]),
        attempts=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=200, deadline=None)
    def test_stream_and_rng_match_the_copying_oracle(
        self, batch, seen, with_features, sigma_scale, attempts, seed
    ):
        smoother = GaussianSmoother(
            TINY_ENCODER, sigma_scale=sigma_scale, max_attempts=attempts
        )
        features = None
        if with_features and batch:
            jitter = np.random.default_rng(seed).normal(0.0, 0.01, (len(batch), 3))
            features = TINY_ENCODER.encode_batch(batch) + jitter
        rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
        seen_before = set(seen)
        out = smoother.smooth(batch, features, seen, rng_new)
        expected = copying_smooth(smoother, batch, features, seen, rng_old)
        assert out == expected
        assert rng_new.bit_generator.state == rng_old.bit_generator.state
        assert seen == seen_before  # read, never written

    def test_seen_is_never_iterated(self):
        smoother = GaussianSmoother(TINY_ENCODER, max_attempts=4)
        seen = NoIteration({"a", "ab", "bb"})
        batch = ["a", "ab", "ba", "ba", "", "aab"]
        out = smoother.smooth(batch, None, seen, np.random.default_rng(7))
        expected = copying_smooth(
            smoother, batch, None, set(seen._items), np.random.default_rng(7)
        )
        assert out == expected
