"""Bulk categorical draws against ``Generator.choice`` and ``Generator.random``."""

from bisect import bisect_right

import numpy as np
import pytest

from repro.baselines.categorical import ATOL, BLOCK, UniformDraws, choice_cdf

BIT_GENERATORS = [np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64]


def same_state(a, b):
    """Equal bit-generator states; MT19937 and Philox hold arrays."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
def test_bulk_random_equals_single_draws(bit_generator):
    bulk = np.random.Generator(bit_generator(3))
    single = np.random.Generator(bit_generator(3))
    assert bulk.random(1000).tolist() == [single.random() for _ in range(1000)]
    assert same_state(bulk.bit_generator.state, single.bit_generator.state)


@pytest.mark.parametrize(
    "p, draws",
    [
        (np.array([3.0, 0.01, 0.01, 7.0, 0.01, 1.0]) / 11.03, 100_000),
        (np.array([0.0, 0.5, 0.0, 0.5, 0.0]), 5_000),
        (np.array([1.0]), 5_000),
        (np.full(97, 1 / 97), 5_000),
    ],
)
def test_bisect_on_cdf_equals_choice(p, draws):
    cdf = choice_cdf(p)
    fast = np.random.default_rng(11)
    choice = np.random.default_rng(11)
    assert [bisect_right(cdf, fast.random()) for _ in range(draws)] == [
        int(choice.choice(len(p), p=p)) for _ in range(draws)
    ]
    assert fast.bit_generator.state == choice.bit_generator.state


@pytest.mark.parametrize(
    "p",
    [
        [],
        [[0.5, 0.5]],
        [np.nan, 1.0],
        [np.inf, 0.0],
        [-0.1, 1.1],
        [0.5, 0.4],
        [0.5, 0.5 + 2 * ATOL],
    ],
)
def test_rejects_what_choice_rejects(p):
    p = np.asarray(p, dtype=np.float64)
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(max(len(p), 1), p=p)
    with pytest.raises(ValueError):
        choice_cdf(p)


def test_accepts_sums_within_tolerance():
    p = np.array([0.5, 0.5 + ATOL / 2])
    np.random.default_rng(0).choice(2, p=p)
    assert choice_cdf(p)[-1] == 1.0


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
@pytest.mark.parametrize("taken", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
def test_exit_leaves_the_single_draw_state(bit_generator, taken):
    rng = np.random.Generator(bit_generator(5))
    reference = np.random.Generator(bit_generator(5))
    with UniformDraws(rng, 3 * BLOCK) as draws:
        values = [next(draws) for _ in range(taken)]
    assert values == [reference.random() for _ in range(taken)]
    assert same_state(rng.bit_generator.state, reference.bit_generator.state)
    assert rng.random() == reference.random()


def test_limit_caps_the_draws():
    rng = np.random.default_rng(0)
    reference = np.random.default_rng(0)
    with UniformDraws(rng, 3) as draws:
        assert list(draws) == reference.random(3).tolist()
    assert rng.bit_generator.state == reference.bit_generator.state
