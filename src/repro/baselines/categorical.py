"""Categorical draws that reproduce ``rng.choice(n, p=p)`` bit for bit.

For one draw, ``Generator.choice`` checks ``p``, builds
``cdf = p.cumsum(); cdf /= cdf[-1]``, takes one ``rng.random()`` and
returns ``cdf.searchsorted(u, side="right")``.  The count-based baselines
draw millions of symbols from a few thousand fixed distributions, so
repeating the checks and the cdf on every call is nearly all of their
cost.  This module splits the draw so each part is paid once:

* :func:`choice_cdf` runs choice's checks and builds the same cdf, once
  per distribution, as a list for :func:`bisect.bisect_right`;
  :func:`choice_cdf_table` does the same for every row of a table at once;
* :class:`UniformDraws` hands out the ``rng.random()`` values one at a
  time from bulk blocks, and leaves ``rng`` in the state the single calls
  would have left it in.

``bisect_right(cdf, next(draws))`` is then the index ``rng.choice`` would
have returned, and a sampler built on it keeps the stream and the final
generator state of one ``rng.choice`` call per symbol.
"""

from __future__ import annotations

import operator
from itertools import chain
from typing import Iterator, List, Sequence

import numpy as np

#: uniforms drawn per block: the buffer stays this small whatever the count
BLOCK = 4096

#: choice's tolerance on ``|sum(p) - 1|`` for float64 probabilities
ATOL = float(np.sqrt(np.finfo(np.float64).eps))


def _kahan_sum(values: Sequence[float]) -> float:
    """Compensated sum in the order numpy's ``choice`` checks ``sum(p)``.

    Given the columns of a table (``p.T``) it sums every row at once.
    """
    total = values[0]
    carry = 0.0
    for value in values[1:]:
        y = value - carry
        t = total + y
        carry = (t - total) - y
        total = t
    return total


def choice_cdf(p: np.ndarray) -> List[float]:
    """The cdf ``rng.choice(len(p), p=p)`` searches, for float64 ``p``.

    Raises :class:`ValueError` where ``choice`` would: ``p`` empty or not
    one-dimensional, containing NaN or a negative value, or with a sum
    further than ``ATOL`` from 1 (an infinity included).
    """
    p = np.ascontiguousarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("probabilities must be a non-empty 1-d array")
    _check(p, _kahan_sum(p.tolist()))
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def choice_cdf_table(p: np.ndarray) -> np.ndarray:
    """:func:`choice_cdf` of every row of a 2-d float64 ``p``, as an array.

    ``choice_cdf_table(p)[i].tolist() == choice_cdf(p[i])`` for every row,
    and it raises if ``choice_cdf`` would raise on any row.
    """
    _check(p, _kahan_sum(p.T))
    cdf = p.cumsum(axis=1)
    return cdf / cdf[:, -1:]


def _check(p: np.ndarray, total) -> None:
    """Raise where ``choice`` would, given the Kahan sum(s) of ``p``."""
    if np.isnan(total).any():
        raise ValueError("probabilities contain NaN")
    if (p < 0).any():
        raise ValueError("probabilities are not non-negative")
    if (np.abs(total - 1.0) > ATOL).any():
        raise ValueError("probabilities do not sum to 1")


class UniformDraws:
    """``rng.random()`` values handed out one at a time from bulk blocks.

    ``with UniformDraws(rng, limit) as draws:`` gives an iterator whose
    ``next(draws)`` values are those successive ``rng.random()`` calls
    would return, at most ``limit`` of them.  They are drawn ``BLOCK`` at a
    time.  On exit the generator is restored to its state before the last
    block and only the part of that block that was taken is drawn again, so
    ``rng`` ends as if each value taken had been drawn on its own.
    """

    def __init__(self, rng: np.random.Generator, limit: int) -> None:
        self._rng = rng
        self._limit = limit
        self._snapshot: dict = {}
        self._size = 0
        self._block: Iterator[float] = iter(())

    def _blocks(self) -> Iterator[Iterator[float]]:
        remaining = self._limit
        while remaining > 0:
            self._size = min(BLOCK, remaining)
            remaining -= self._size
            self._snapshot = self._rng.bit_generator.state
            self._block = iter(self._rng.random(self._size).tolist())
            yield self._block

    def __enter__(self) -> Iterator[float]:
        # chain moves to the next block only once the current one is
        # exhausted, so every block but the last is taken whole
        return chain.from_iterable(self._blocks())

    def __exit__(self, *exc_info) -> None:
        taken = self._size - operator.length_hint(self._block)
        if taken < self._size:
            self._rng.bit_generator.state = self._snapshot
            self._rng.random(taken)
