"""Static sampling strategy and Gaussian Smoothing."""

from typing import List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.smoothing import GaussianSmoother
from repro.data.alphabet import Alphabet
from repro.data.encoding import PasswordEncoder
from repro.strategies import AttackEngine, build, take
from repro.strategies.base import GuessBatch, GuessingStrategy
from repro.strategies.passflow import DynamicStrategy, StaticStrategy


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


class KeyQuery:
    """A ``seen`` query over a set of strings that checks what it is asked:
    every call passes a 1-d uint64 array of distinct packed keys."""

    def __init__(self, encoder, strings):
        self.keys = np.sort(encoder.pack_passwords(sorted(strings)))
        self.calls = 0

    def __call__(self, keys):
        assert isinstance(keys, np.ndarray) and keys.dtype == np.uint64
        assert keys.ndim == 1 and np.unique(keys).size == keys.size
        self.calls += 1
        return np.isin(keys, self.keys)


def smooth_strings(smoother, passwords, seen, rng) -> List[str]:
    """The keyed smoother on strings: bin the passwords' bin centres,
    smooth the rows against ``seen``, decode."""
    encoder = smoother.encoder
    features = encoder.encode_batch(passwords)
    rows = encoder.floats_to_indices(features)
    out = smoother.smooth(rows, features, KeyQuery(encoder, seen), rng)
    return encoder.strings_from_indices(out)


class TestGaussianSmoother:
    @pytest.mark.parametrize("scale", [0.0, -1.0, float("nan"), float("inf")])
    def test_validation(self, trained_model, scale):
        with pytest.raises(ValueError):
            GaussianSmoother(trained_model.encoder, sigma_scale=scale)
        with pytest.raises(ValueError):
            GaussianSmoother(trained_model.encoder, max_attempts=0)

    def test_non_colliding_untouched(self, trained_model):
        smoother = GaussianSmoother(trained_model.encoder)
        passwords = ["love12", "maria9"]
        out = smooth_strings(smoother, passwords, set(), np.random.default_rng(0))
        assert out == passwords

    def test_collisions_perturbed(self, trained_model):
        smoother = GaussianSmoother(trained_model.encoder, max_attempts=8)
        seen = {"love12"}
        out = smooth_strings(smoother, ["love12"], seen, np.random.default_rng(0))
        # with 8 attempts at bin-scale noise a change is essentially certain
        assert out[0] != "love12"

    def test_perturbed_stays_similar(self, trained_model):
        from repro.analysis.neighborhood import edit_distance

        smoother = GaussianSmoother(trained_model.encoder, sigma_scale=0.5, max_attempts=4)
        out = smooth_strings(smoother, ["love12"], {"love12"}, np.random.default_rng(1))
        assert edit_distance("love12", out[0]) <= 3

    def test_features_shape_mismatch_raises(self, trained_model):
        encoder = trained_model.encoder
        smoother = GaussianSmoother(encoder)
        rows = encoder.indices_from_strings(["a", "b"])
        with pytest.raises(ValueError):
            smoother.smooth(
                rows, np.zeros((1, 10)), KeyQuery(encoder, set()), np.random.default_rng(0)
            )

    def test_batch_with_mixed_collisions(self, trained_model):
        smoother = GaussianSmoother(trained_model.encoder, max_attempts=6)
        seen = {"love12", "magic7"}
        passwords = ["love12", "fresh1", "magic7"]
        out = smooth_strings(smoother, passwords, seen, np.random.default_rng(2))
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


# a 2-symbol alphabet at length 3 has 15 passwords, so perturbed
# candidates collide with ``seen`` and with each other all the time
TINY_ENCODER = PasswordEncoder(Alphabet("ab"), max_length=3)
TINY_WORDS = ["", "a", "b", "aa", "ab", "ba", "bb", "aab", "bba", "aba"]


class TestKeyedSmoother:
    """The key-space smoother reproduces the copying string oracle."""

    @given(
        batch=st.lists(st.sampled_from(TINY_WORDS), max_size=24),
        seen=st.sets(st.sampled_from(TINY_WORDS[1:]), max_size=8),
        with_features=st.booleans(),
        sigma_scale=st.sampled_from([0.25, 0.75, 2.0]),
        attempts=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=200, deadline=None)
    def test_rows_and_rng_match_the_copying_oracle(
        self, batch, seen, with_features, sigma_scale, attempts, seed
    ):
        smoother = GaussianSmoother(
            TINY_ENCODER, sigma_scale=sigma_scale, max_attempts=attempts
        )
        # bin centres, or off-centre features as a flow decodes them
        features = TINY_ENCODER.encode_batch(batch)
        if with_features and batch:
            jitter = np.random.default_rng(seed).normal(0.0, 0.01, (len(batch), 3))
            features = features + jitter
        rows = TINY_ENCODER.floats_to_indices(features)
        rows_before, features_before = rows.copy(), features.copy()
        rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
        out = smoother.smooth(rows, features, KeyQuery(TINY_ENCODER, seen), rng_new)
        expected = copying_smooth(
            smoother, TINY_ENCODER.strings_from_indices(rows), features, seen, rng_old
        )
        assert TINY_ENCODER.strings_from_indices(out) == expected
        assert rng_new.bit_generator.state == rng_old.bit_generator.state
        # read, never written
        assert (rows == rows_before).all() and (features == features_before).all()

    def test_seen_is_asked_about_distinct_keys_only(self):
        smoother = GaussianSmoother(TINY_ENCODER, max_attempts=4)
        seen = {"a", "ab", "bb"}
        batch = ["a", "ab", "ba", "ba", "", "aab"]
        query = KeyQuery(TINY_ENCODER, seen)
        features = TINY_ENCODER.encode_batch(batch)
        rows = TINY_ENCODER.floats_to_indices(features)
        out = smoother.smooth(rows, features, query, np.random.default_rng(7))
        expected = copying_smooth(
            smoother, batch, None, seen, np.random.default_rng(7)
        )
        assert TINY_ENCODER.strings_from_indices(out) == expected
        assert query.calls >= 2  # the batch's rows, then each attempt's


def _held_strings(context):
    """The strings a context holds: its string accounting's unique set,
    or what ``take`` noted."""
    accounting = context._accounting
    return accounting.unique if accounting is not None else context._seen


class StringLoop(GuessingStrategy):
    """PassFlow's smoothed stream as a string loop: decode every row, then
    smooth the strings with :func:`copying_smooth` against the strings the
    context holds, and yield string batches.  The reference the keyed
    ``static?gs=true`` and ``dynamic+gs`` streams must reproduce."""

    def __init__(self, keyed):
        super().__init__(spec=keyed.describe())
        self.keyed = keyed
        self.name = keyed.name

    def on_matches(self, batch, indices):
        self.keyed.on_matches(batch, indices)

    def iter_guesses(self, rng):
        keyed, model = self.keyed, self.keyed.model
        dynamic = isinstance(keyed, DynamicStrategy)
        batch_size = keyed.config.batch_size if dynamic else keyed.batch_size
        while True:
            count = self.context.next_count(batch_size)
            if count < 1:
                return
            prior = keyed.mixture_prior() if dynamic else keyed.prior
            latents = model.sample_latents(count, rng=rng, prior=prior)
            if dynamic and prior is not None:
                keyed._note_usage()
            features = model.decode_latents_to_features(latents)
            passwords = copying_smooth(
                keyed.smoother,
                model.encoder.decode_batch(features),
                features,
                _held_strings(self.context),
                rng,
            )
            yield GuessBatch(passwords, latents=latents)


DYNAMIC_GS = "passflow:dynamic+gs?alpha=1&sigma=0.12&batch=128"
STATIC_GS = "passflow:static?gs=true&batch=128"
GS_BUDGETS = [400, 2000]


@pytest.fixture(scope="module")
def own_guesses(trained_model):
    """A test set of the model's own samples, so attacks match often and
    Dynamic Sampling's mixture prior takes over."""
    return set(trained_model.sample_passwords(3000, rng=np.random.default_rng(9)))


def report_bytes(report):
    rows = [(r.guesses, r.unique, r.matched, r.match_percent) for r in report.rows]
    return rows, report.matched_samples, report.non_matched_samples


class TestKeyedStreamParity:
    """Keyed ``+gs`` streams equal the string loop they replaced."""

    @pytest.mark.parametrize("spec", [DYNAMIC_GS, STATIC_GS])
    def test_serial_report(self, trained_model, own_guesses, spec):
        keyed_strategy = build(spec, model=trained_model)
        keyed = attack(own_guesses, GS_BUDGETS, keyed_strategy, seed=4)
        reference = StringLoop(build(spec, model=trained_model))
        expected = attack(own_guesses, GS_BUDGETS, reference, seed=4)
        assert report_bytes(keyed) == report_bytes(expected)
        assert keyed.final().unique < keyed.final().guesses  # collisions happened
        if isinstance(keyed_strategy, DynamicStrategy):
            # the mixture prior of matched latents drove the stream
            assert len(keyed_strategy.matched_latents) > keyed_strategy.config.alpha

    def test_take(self, trained_model):
        keyed = take(build(DYNAMIC_GS, model=trained_model), 700, np.random.default_rng(5))
        reference = StringLoop(build(DYNAMIC_GS, model=trained_model))
        assert keyed == take(reference, 700, np.random.default_rng(5))

    @pytest.mark.parametrize(
        "wrapper", ["mangle({})?rules=leet,capitalize", "policy({})?max_len=8"]
    )
    def test_wrapped_report(self, trained_model, own_guesses, wrapper):
        spec = wrapper.format(DYNAMIC_GS)
        keyed = attack(own_guesses, GS_BUDGETS, build(spec, model=trained_model), seed=6)
        reference = build(spec, model=trained_model)
        reference.inner = StringLoop(reference.inner)
        expected = attack(own_guesses, GS_BUDGETS, reference, seed=6)
        assert report_bytes(keyed) == report_bytes(expected)
        assert keyed.final().matched > 0

    def test_attack_accounts_keys_only(self, trained_model, own_guesses):
        engine = AttackEngine(own_guesses, GS_BUDGETS)
        state = engine.begin()
        engine.run(build(DYNAMIC_GS, model=trained_model), np.random.default_rng(0), state=state)
        assert state.accounting.unique == set()
        assert state.accounting.rows[-1].unique > 0
