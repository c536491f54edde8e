"""Micro-benchmark: table-driven Markov sampler vs the ``rng.choice`` loop.

``MarkovModel.sample_passwords`` draws each symbol with ``bisect_right``
on a cached per-context cdf over uniforms drawn in bulk
(:mod:`repro.baselines.categorical`).  The reference it replaced, one
``rng.choice(p=...)`` per symbol, lives on as the oracle in
``tests/baselines/test_markov.py``.  On the ``markov:3`` model at attack
scale (2000 synthetic passwords):

* ``test_stream_and_state_match_oracle`` -- precondition: both samplers
  return the same passwords and leave the generator in the same state,
* ``test_sampler_speedup`` -- acceptance bar: the table sampler is
  >= 5x the oracle (>= 2x under ``CI=true``).  Serially on a 2-vCPU
  Xeon VM the oracle ran at 7.9k-8.7k guesses/s and the table sampler
  at 150k-152k, 17-19x (best of three, 4000 guesses, warm tables).
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import assert_speedup, speedup_floor
from repro.baselines.markov import MarkovModel
from repro.data.alphabet import compact_alphabet
from repro.data.synthetic import SyntheticConfig, SyntheticRockYou
from tests.baselines.test_markov import sample_oracle

COUNT = 4000


@pytest.fixture(scope="module")
def model():
    corpus = SyntheticRockYou(
        np.random.default_rng(5), SyntheticConfig(), compact_alphabet()
    ).generate(4000)
    return MarkovModel(order=3).fit(corpus[:2000])


def test_stream_and_state_match_oracle(model):
    fast_rng = np.random.default_rng(9)
    oracle_rng = np.random.default_rng(9)
    assert model.sample_passwords(COUNT, fast_rng) == sample_oracle(model, COUNT, oracle_rng)
    assert fast_rng.bit_generator.state == oracle_rng.bit_generator.state


def test_sampler_speedup(model):
    """Acceptance bar: the table sampler >= 5x the ``rng.choice`` loop."""
    assert_speedup(
        lambda: sample_oracle(model, COUNT, np.random.default_rng(1)),
        lambda: model.sample_passwords(COUNT, np.random.default_rng(1)),
        floor=speedup_floor(5.0, 2.0),
        label=f"markov:3 sampling of {COUNT:,} guesses",
    )
