"""Markov n-gram baseline."""

import hashlib
import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import categorical
from repro.baselines import markov as markov_module
from repro.baselines.categorical import BLOCK, choice_cdf
from repro.baselines.markov import END, START, MarkovModel
from repro.data.alphabet import default_alphabet
from repro.runtime import StrategySource, run_attack

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


def seed_probs(model, counts):
    """The seed-era row of one context: add-``delta`` smoothed
    probabilities over the alphabet, one list entry per position."""
    weights = np.array(
        [counts.get(s, 0) + model.smoothing for s in model._alphabet], dtype=np.float64
    )
    return weights / weights.sum()


def drawable(model):
    """Every password the sampler can draw, with its exact probability.

    One factor per draw, from :func:`seed_probs`: a password ends at an
    END draw, or after ``max_length`` symbols with no END drawn.
    """
    out = Counter()

    def walk(prefix, context, p):
        probs = seed_probs(model, model._counts.get(context, Counter()))
        for symbol, q in zip(model._alphabet, probs):
            if symbol == END:
                out[prefix] += p * q
            elif len(prefix) + 1 == model.max_length:
                out[prefix + symbol] += p * q
            else:
                walk(prefix + symbol, context[1:] + symbol, p * q)

    walk("", START * model.order, 1.0)
    return out


def refuse_cdf_builds(monkeypatch):
    """Make every cdf builder raise, where the model imports it and at
    its source; forked workers inherit the patch."""

    def refuse(*args, **kwargs):
        raise AssertionError("a cdf was built after fit")

    for module in (markov_module, categorical):
        for name in ("choice_cdf", "choice_cdf_table"):
            monkeypatch.setattr(module, name, refuse, raising=False)


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

    def test_refit_replaces_the_tables(self):
        model = MarkovModel(order=2).fit(["ab"] * 50)
        model.sample_passwords(20, np.random.default_rng(0))
        model.fit(["ba", "xyz"] * 25)
        fresh = MarkovModel(order=2).fit(["ba", "xyz"] * 25)
        assert model._rows == fresh._rows
        assert model._prob_table.tolist() == fresh._prob_table.tolist()
        assert model._cdf_table.tolist() == fresh._cdf_table.tolist()
        assert model._cdfs == {}


#: every symbol of the default alphabet, in lines ``fit`` keeps whole
DEFAULT_SYMBOL_LINES = [
    default_alphabet().chars[i : i + 10]
    for i in range(0, len(default_alphabet().chars), 10)
]


class TestTables:
    """``fit`` builds every row the sampler and the scorers read."""

    @settings(max_examples=40, deadline=None)
    @given(
        lines=st.lists(
            st.text(default_alphabet().chars[:12] + START + END, max_size=12),
            min_size=1,
            max_size=30,
        ),
        order=st.integers(1, 4),
        smoothing=st.sampled_from([1e-6, 0.01, 2.5]),
        every_symbol=st.booleans(),
    )
    def test_rows_equal_the_per_context_oracle(
        self, lines, order, smoothing, every_symbol
    ):
        corpus = lines + DEFAULT_SYMBOL_LINES if every_symbol else lines
        model = MarkovModel(order, smoothing).fit(corpus)
        if every_symbol:
            assert len(model._alphabet) >= 75
        assert len(model._rows) == len(model._counts) == len(model._prob_table) - 1
        for context, row in model._rows.items():
            probs = seed_probs(model, model._counts[context])
            assert model._prob_table[row].tobytes() == probs.tobytes()
            assert model._cdf_table[row].tolist() == choice_cdf(probs)
        unseen = seed_probs(model, Counter())
        assert model._prob_table[-1].tobytes() == unseen.tobytes()
        assert model._unseen_cdf == choice_cdf(unseen)

    def test_sampling_builds_no_cdf(self, corpus, monkeypatch):
        train = corpus[:600] + GOLDEN_CORPUS
        expected = MarkovModel(order=3).fit(train).sample_passwords(
            BLOCK + 1, np.random.default_rng(4)
        )
        model = MarkovModel(order=3).fit(train)
        refuse_cdf_builds(monkeypatch)
        assert model.sample_passwords(BLOCK + 1, np.random.default_rng(4)) == expected
        # unseen contexts were visited too, through the one shared list
        assert any(context not in model._rows for context in model._cdfs)

    def test_forked_shards_build_no_cdf(self, corpus, monkeypatch):
        train, test_set = corpus[:1500], set(corpus[1500:])
        source = StrategySource("markov:3", corpus=train)
        source.pin(source.build())  # fitted in the parent, as the CLI does
        refuse_cdf_builds(monkeypatch)
        reports = {
            executor: run_attack(
                source,
                test_set,
                [500, 3000],
                seed=5,
                workers=2,
                schedule="elastic",
                executor=executor,
            ).as_dict()
            for executor in ("processpool", "local")
        }
        assert reports["processpool"] == reports["local"]
        assert "shard_errors" not in reports["local"]
        assert reports["local"]["rows"][-1]["guesses"] == 3000


class TestMaxLength:
    """``log_prob`` and ``top_guesses`` score what the sampler draws: a
    password of ``max_length`` symbols ends without an END draw."""

    TOYS = {
        "mixed": ["ab", "a", "bb", "ba", "b"],
        "a-then-b": ["ab"] * 3 + ["b"] * 2,
        # END in a corpus line: it holds two alphabet positions
        "end-in-corpus": ["ab", "a" + END, "b"],
    }

    @pytest.fixture(params=sorted(TOYS))
    def model(self, request):
        toy = self.TOYS[request.param]
        return MarkovModel(order=1, smoothing=0.5, max_length=2).fit(toy)

    def test_drawable_passwords_sum_to_one(self, model):
        exact = drawable(model)
        assert len(exact) == 7
        assert math.fsum(math.exp(model.log_prob(w)) for w in exact) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_each_password_scores_its_draw_probability(self, model):
        for word, p in drawable(model).items():
            assert math.exp(model.log_prob(word)) == pytest.approx(p, rel=1e-12, abs=0)

    def test_hand_computed_probability(self):
        toy = self.TOYS["mixed"]
        model = MarkovModel(order=1, smoothing=0.5, max_length=2).fit(toy)
        # P(a | start) * P(b | a), with no END factor after max_length
        assert math.exp(model.log_prob("ab")) == pytest.approx(2.5 / 6.5 * 1.5 / 4.5)

    def test_sampler_frequencies_agree(self, model):
        n = 100_000
        exact = drawable(model)
        counts = Counter(model.sample_passwords(n, np.random.default_rng(0)))
        assert set(counts) <= set(exact)
        for word, p in exact.items():
            assert abs(counts[word] / n - p) < 5 * math.sqrt(p * (1 - p) / n), word

    def test_longer_passwords_are_never_drawn(self, model):
        assert model.log_prob("aba") == float("-inf")
        assert model.log_prob("abab") == float("-inf")

    def test_end_in_corpus_scores_what_the_sampler_draws(self):
        """END's draw is charged both its positions, and a password
        holding END, which the sampler stops on, is never drawn."""
        model = MarkovModel(order=1, smoothing=0.5, max_length=2).fit(
            self.TOYS["end-in-corpus"]
        )
        n = 200_000
        freq = Counter(model.sample_passwords(n, np.random.default_rng(1)))["a"] / n
        p = math.exp(model.log_prob("a"))
        assert abs(freq - p) < 5 * math.sqrt(p * (1 - p) / n)
        assert model.log_prob("a" + END) == float("-inf")
        assert model.log_prob(END) == float("-inf")

    def test_top_guesses_rank_by_draw_probability(self, model):
        exact = drawable(model)
        guesses = model.top_guesses(10)
        assert set(guesses) == set(exact) - {""}
        ranked = [exact[g] for g in guesses]
        assert all(a >= b * (1 - 1e-12) for a, b in zip(ranked, ranked[1:]))
