"""Markov n-gram baseline."""

import hashlib
import json

import numpy as np
import pytest

from repro.baselines.categorical import BLOCK
from repro.baselines.markov import END, START, MarkovModel

#: passwords for the golden stream; the last five carry the start and
#: end symbols, which reach ``fit`` unfiltered from corpus lines
GOLDEN_CORPUS = [
    "love12", "password", "iloveyou", "123456", "monkey1", "dragon",
    "sunshine99", "qwerty", "abc123", "letmein", "football7", "shadow",
    "hello123", "princess", "welcome1", "jordan23", "batman!", "trustno1",
    "star99", "moon12", "p@ssw0rd", "summer2020", "a", "zz", "ninja$$",
    "ab\x03cd", "\x02\x02", "x\x03", "\x03", "q\x02\x03z",
]

#: SHA-256 of :func:`golden_payload` for MarkovModel(order=3), computed
#: with the ``rng.choice`` sampler the oracle below keeps
GOLDEN_SHA256 = "fd9a209bedee7b2a98195a17320210d264452a0cc269d0236595a334417aba8f"


def sample_oracle(model, count, rng):
    """The reference sampler: one ``rng.choice(p=...)`` per symbol.

    ``MarkovModel.sample_passwords`` must return the same passwords and
    leave ``rng`` in the same state.
    """
    out = []
    for _ in range(count):
        context = START * model.order
        chars = []
        while len(chars) < model.max_length:
            symbols, probs = model._distribution(context)
            symbol = symbols[int(rng.choice(len(symbols), p=probs))]
            if symbol == END:
                break
            chars.append(symbol)
            context = context[1:] + symbol
        out.append("".join(chars))
    return out


def golden_payload(sample):
    """3000 passwords from ``sample(count, rng)`` at a fixed seed, then the
    next uniform, which pins how far the generator was advanced."""
    rng = np.random.default_rng(20220628)
    stream = sample(3000, rng)
    return json.dumps([stream, rng.random().hex()]).encode()


@pytest.fixture
def fitted(corpus):
    return MarkovModel(order=2).fit(corpus)


class TestFit:
    def test_empty_corpus_raises(self):
        with pytest.raises(ValueError):
            MarkovModel().fit([])

    def test_invalid_order_raises(self):
        with pytest.raises(ValueError):
            MarkovModel(order=0)

    def test_sample_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            MarkovModel().sample_passwords(1, np.random.default_rng(0))


class TestSampling:
    def test_count_and_length(self, fitted):
        samples = fitted.sample_passwords(50, np.random.default_rng(0))
        assert len(samples) == 50
        assert all(len(s) <= 10 for s in samples)

    def test_samples_use_corpus_alphabet(self, fitted, corpus):
        corpus_chars = set("".join(corpus))
        sample_chars = set("".join(fitted.sample_passwords(100, np.random.default_rng(1))))
        assert sample_chars <= corpus_chars

    def test_deterministic_given_rng(self, fitted):
        a = fitted.sample_passwords(20, np.random.default_rng(3))
        b = fitted.sample_passwords(20, np.random.default_rng(3))
        assert a == b


class TestLogProb:
    def test_train_password_likelier_than_noise(self, fitted, corpus):
        real = corpus[0]
        assert fitted.log_prob(real) > fitted.log_prob("zqxjwvkpfy"[: len(real)])

    def test_out_of_alphabet_char(self, fitted):
        assert fitted.log_prob("love☃") == float("-inf")

    def test_log_prob_is_negative(self, fitted):
        assert fitted.log_prob("love12") < 0

    def test_memorizes_single_password_corpus(self):
        model = MarkovModel(order=1, smoothing=1e-6).fit(["ababab"] * 10)
        samples = model.sample_passwords(20, np.random.default_rng(0))
        # order-1 chain on pure "ab" alternation stays in {a, b}
        assert all(set(s) <= {"a", "b"} for s in samples if s)


class TestTableSampler:
    """``sample_passwords`` against the ``rng.choice`` oracle."""

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    @pytest.mark.parametrize("smoothing, max_length", [(0.01, 10), (1e-6, 4), (2.5, 16)])
    def test_stream_and_state_match_oracle(self, corpus, order, smoothing, max_length):
        model = MarkovModel(order, smoothing, max_length).fit(corpus[:600] + GOLDEN_CORPUS)
        fast_rng = np.random.default_rng(order)
        oracle_rng = np.random.default_rng(order)
        for count in (0, 1, 777, BLOCK + 1):
            fast = model.sample_passwords(count, fast_rng)
            assert fast == sample_oracle(model, count, oracle_rng)
            assert fast_rng.bit_generator.state == oracle_rng.bit_generator.state
            # END is found by symbol: the corpus copy of "\x03" ends too
            assert not any(END in password for password in fast)

    def test_golden_stream(self):
        model = MarkovModel(order=3).fit(GOLDEN_CORPUS)
        for sample in (model.sample_passwords, lambda n, rng: sample_oracle(model, n, rng)):
            assert hashlib.sha256(golden_payload(sample)).hexdigest() == GOLDEN_SHA256


class TestRefit:
    def test_refit_equals_fresh_model(self):
        model = MarkovModel().fit(["ab"] * 50)
        model.sample_passwords(20, np.random.default_rng(0))
        model.log_prob("ab")
        model.fit(["ba"] * 50)
        fresh = MarkovModel().fit(["ba"] * 50)
        assert model.sample_passwords(50, np.random.default_rng(1)) == fresh.sample_passwords(
            50, np.random.default_rng(1)
        )
        assert model.log_prob("ba") == fresh.log_prob("ba")
        assert model.top_guesses(3) == fresh.top_guesses(3)
