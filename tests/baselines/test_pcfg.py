"""Weir-style PCFG baseline."""

import hashlib
import json

import numpy as np
import pytest

from repro.baselines.categorical import BLOCK
from repro.baselines.pcfg import PCFGModel, segment, structure_of

GOLDEN_CORPUS = [
    "love12", "password", "iloveyou", "123456", "monkey1", "dragon",
    "sunshine99", "qwerty", "abc123", "letmein", "football7", "shadow",
    "hello123", "princess", "welcome1", "jordan23", "batman!", "trustno1",
    "star99", "moon12", "p@ssw0rd", "summer2020", "a", "zz", "ninja$$",
    "1q2w3e4r", "love!!12", "$money$", "x1y2z3", "2020love",
]

#: SHA-256 of :func:`golden_payload` for PCFGModel(), computed with the
#: ``rng.choice`` sampler the oracle below keeps
GOLDEN_SHA256 = "a5bd236c9a00897ddb7b44f56f3d93d58c57a71942ec24bd5c2eae27178df82d"


def sample_oracle(model, count, rng):
    """The reference sampler: one ``rng.choice(p=...)`` per structure and
    per terminal.  ``PCFGModel.sample_passwords`` must return the same
    passwords and leave ``rng`` in the same state."""
    out = []
    n_struct = len(model._structure_items)
    for _ in range(count):
        template = model._structure_items[int(rng.choice(n_struct, p=model._structure_probs))]
        pieces = []
        for token in template.split(" "):
            runs, probs = model._terminal_dists[token]
            pieces.append(runs[int(rng.choice(len(runs), p=probs))])
        out.append("".join(pieces))
    return out


def golden_payload(sample):
    """3000 passwords from ``sample(count, rng)`` at a fixed seed, then the
    next uniform, which pins how far the generator was advanced."""
    rng = np.random.default_rng(20220628)
    stream = sample(3000, rng)
    return json.dumps([stream, rng.random().hex()]).encode()


class TestSegmentation:
    def test_word_digits(self):
        assert segment("love12") == [("L", "love"), ("D", "12")]

    def test_symbols(self):
        assert segment("ab!cd") == [("L", "ab"), ("S", "!"), ("L", "cd")]

    def test_structure_string(self):
        assert structure_of("love12!") == "L4 D2 S1"

    def test_empty(self):
        assert segment("") == []


class TestModel:
    def test_empty_corpus_raises(self):
        with pytest.raises(ValueError):
            PCFGModel().fit([])

    def test_sample_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            PCFGModel().sample_passwords(1, np.random.default_rng(0))

    def test_samples_follow_learned_structures(self, corpus):
        model = PCFGModel().fit(corpus)
        learned = set(model._structures)
        for password in model.sample_passwords(100, np.random.default_rng(0)):
            assert structure_of(password) in learned

    def test_recombination_generates_novel_passwords(self):
        # the whole point of PCFG: novel terminal combinations
        model = PCFGModel().fit(["love12", "star99", "moon12"])
        samples = set(model.sample_passwords(300, np.random.default_rng(1)))
        novel = samples - {"love12", "star99", "moon12"}
        assert "love99" in samples or "star12" in samples or novel

    def test_log_prob_of_training_password(self, corpus):
        model = PCFGModel().fit(corpus)
        assert np.isfinite(model.log_prob(corpus[0]))

    def test_log_prob_unknown_structure(self, corpus):
        model = PCFGModel().fit(["love12"])
        assert model.log_prob("!!!!!!!!") == float("-inf")

    def test_log_prob_unknown_terminal(self):
        model = PCFGModel().fit(["love12"])
        assert model.log_prob("hate34") == float("-inf")

    def test_deterministic_sampling(self, corpus):
        model = PCFGModel().fit(corpus)
        a = model.sample_passwords(30, np.random.default_rng(5))
        b = model.sample_passwords(30, np.random.default_rng(5))
        assert a == b


class TestTableSampler:
    """``sample_passwords`` against the ``rng.choice`` oracle."""

    @pytest.mark.parametrize("seed", range(5))
    def test_stream_and_state_match_oracle(self, corpus, seed):
        model = PCFGModel().fit(corpus[:1500] + GOLDEN_CORPUS)
        fast_rng = np.random.default_rng(seed)
        oracle_rng = np.random.default_rng(seed)
        for count in (0, 1, 777, BLOCK + 1):
            assert model.sample_passwords(count, fast_rng) == sample_oracle(
                model, count, oracle_rng
            )
            assert fast_rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_golden_stream(self):
        model = PCFGModel().fit(GOLDEN_CORPUS)
        for sample in (model.sample_passwords, lambda n, rng: sample_oracle(model, n, rng)):
            assert hashlib.sha256(golden_payload(sample)).hexdigest() == GOLDEN_SHA256


class TestRefit:
    def test_refit_equals_fresh_model(self):
        model = PCFGModel().fit(["love12"] * 50)
        model.sample_passwords(20, np.random.default_rng(0))
        model.fit(["star99!"] * 50)
        fresh = PCFGModel().fit(["star99!"] * 50)
        assert model.sample_passwords(50, np.random.default_rng(1)) == fresh.sample_passwords(
            50, np.random.default_rng(1)
        )
        assert model.log_prob("star99!") == fresh.log_prob("star99!")
        assert model.top_guesses(5) == fresh.top_guesses(5)
