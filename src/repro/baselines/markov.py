"""Character-level Markov model baseline.

The classic password-guessing baseline (John the Ripper's Markov mode,
ref [2] of the paper; also the reference point of Melicher et al. [30]):
an order-``k`` character model with add-``delta`` smoothing and explicit
start/end symbols, supporting both sampling and exact sequence probability.

``fit`` builds the probability and cdf row of every seen context, plus
one row all unseen contexts share, so forked workers inherit warm tables.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter, defaultdict
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.baselines.categorical import UniformDraws, choice_cdf_table

START = "\x02"
END = "\x03"


class MarkovModel:
    """Order-k char n-gram model over passwords."""

    def __init__(self, order: int = 3, smoothing: float = 0.01, max_length: int = 10) -> None:
        if order < 1:
            raise ValueError("order must be >= 1")
        if smoothing <= 0:
            raise ValueError("smoothing must be positive")
        self.order = order
        self.smoothing = float(smoothing)
        self.max_length = max_length
        self._counts: Dict[str, Counter] = {}
        self._alphabet: List[str] = []
        # symbol -> its alphabet positions: END holds two when a corpus
        # line contains it, and the sampler stops on either
        self._columns: Dict[str, List[int]] = {}
        self._fitted = False
        # seen context -> its row of the tables; every other context reads
        # the last row, the smoothed-uniform one
        self._rows: Dict[str, int] = {}
        self._prob_table = np.empty((0, 0))
        self._cdf_table = np.empty((0, 0))
        # context -> its cdf row as a list, filled as sampling visits it;
        # contexts absent from the corpus all share one list
        self._cdfs: Dict[str, List[float]] = {}
        self._unseen_cdf: List[float] = []

    # ------------------------------------------------------------------
    def fit(self, passwords: Sequence[str]) -> "MarkovModel":
        """Count order-k transitions over the corpus."""
        if not passwords:
            raise ValueError("cannot fit on an empty corpus")
        counts: Dict[str, Counter] = defaultdict(Counter)
        symbols = set()
        for password in passwords:
            padded = START * self.order + password[: self.max_length] + END
            symbols.update(password[: self.max_length])
            for i in range(self.order, len(padded)):
                context = padded[i - self.order : i]
                counts[context][padded[i]] += 1
        self._counts = counts
        self._alphabet = sorted(symbols) + [END]
        self._rows = {context: row for row, context in enumerate(counts)}
        # a count fills every alphabet position its symbol holds
        positions = defaultdict(list)
        for column, symbol in enumerate(self._alphabet):
            positions[symbol].append(column)
        self._columns = dict(positions)
        rows, columns, values = zip(*(
            (row, column, count)
            for row, context_counts in enumerate(counts.values())
            for symbol, count in context_counts.items()
            for column in positions[symbol]
        ))
        weights = np.zeros((len(counts) + 1, len(self._alphabet)))
        weights[rows, columns] = values
        weights += self.smoothing
        self._prob_table = weights / weights.sum(axis=1, keepdims=True)
        self._cdf_table = choice_cdf_table(self._prob_table)
        self._cdfs = {}
        self._unseen_cdf = self._cdf_table[-1].tolist()
        self._fitted = True
        return self

    def _distribution(self, context: str) -> Tuple[List[str], np.ndarray]:
        """Smoothed next-symbol distribution for a context."""
        return self._alphabet, self._prob_table[self._rows.get(context, -1)]

    def _cdf(self, context: str) -> List[float]:
        """The cdf ``rng.choice`` builds from ``context``'s distribution (cached)."""
        row = self._rows.get(context)
        cdf = self._unseen_cdf if row is None else self._cdf_table[row].tolist()
        self._cdfs[context] = cdf
        return cdf

    # ------------------------------------------------------------------
    def sample_passwords(self, count: int, rng: np.random.Generator) -> List[str]:
        """Draw ``count`` passwords by ancestral sampling.

        The passwords, and the state ``rng`` is left in, are those of
        drawing each symbol with ``rng.choice(len(symbols), p=probs)``;
        the draws go through :mod:`repro.baselines.categorical` instead,
        one cached cdf per context and uniforms drawn in bulk.
        """
        if not self._fitted:
            raise RuntimeError("fit() the model first")
        cdfs = self._cdfs
        symbols = self._alphabet
        start = START * self.order
        max_length = self.max_length
        out: List[str] = []
        # each symbol drawn either ends the password or lengthens it
        with UniformDraws(rng, count * max_length) as draws:
            for _ in range(count):
                context = start
                password = ""
                for _ in range(max_length):
                    cdf = cdfs.get(context) or self._cdf(context)
                    symbol = symbols[bisect_right(cdf, next(draws))]
                    if symbol == END:
                        break
                    password += symbol
                    context = context[1:] + symbol
                out.append(password)
        return out

    def log_prob(self, password: str) -> float:
        """Exact log-probability that ``sample_passwords`` draws ``password``.

        Like the sampler, a password of ``max_length`` symbols ends without
        an END draw, and a longer one, or one containing END, is never
        drawn (``-inf``).  The END draw is charged every position END
        holds.
        """
        if not self._fitted:
            raise RuntimeError("fit() the model first")
        if len(password) > self.max_length or END in password:
            return float("-inf")
        padded = START * self.order + password
        if len(password) < self.max_length:
            padded += END
        total = 0.0
        for i in range(self.order, len(padded)):
            columns = self._columns.get(padded[i])
            if columns is None:
                return float("-inf")
            _, probs = self._distribution(padded[i - self.order : i])
            total += float(np.log(sum(probs[column] for column in columns)))
        return total

    # ------------------------------------------------------------------
    # approximate highest-probability enumeration
    # ------------------------------------------------------------------
    def top_guesses(self, count: int, beam_width: int = 512) -> List[str]:
        """Approximately the ``count`` most probable passwords (beam search).

        Expands prefix hypotheses breadth-first keeping the ``beam_width``
        most probable at each length; completed passwords (END emitted, or
        ``max_length`` symbols long) accumulate, scored as :meth:`log_prob`
        scores them, and the best ``count`` are returned.  This is the
        enumeration mode a cracking session would use, complementing
        ``sample_passwords``.
        """
        if not self._fitted:
            raise RuntimeError("fit() the model first")
        if count < 0:
            raise ValueError("count must be non-negative")
        if beam_width < 1:
            raise ValueError("beam_width must be >= 1")

        beam = [(0.0, "", START * self.order)]
        completed: List[tuple] = []
        for _ in range(self.max_length + 1):
            expansions: List[tuple] = []
            for log_p, prefix, context in beam:
                if len(prefix) == self.max_length:
                    completed.append((log_p, prefix))
                    continue
                symbols, probs = self._distribution(context)
                end = sum(probs[column] for column in self._columns[END])
                completed.append((log_p + float(np.log(end)), prefix))
                for symbol, prob in zip(symbols, probs):
                    if symbol != END and prob > 0:
                        score = log_p + float(np.log(prob))
                        expansions.append((score, prefix + symbol, context[1:] + symbol))
            expansions.sort(key=lambda e: -e[0])
            beam = expansions[:beam_width]
            if not beam:
                break
        completed.sort(key=lambda e: -e[0])
        unique: List[str] = []
        seen = set()
        for _, password in completed:
            if password and password not in seen:
                seen.add(password)
                unique.append(password)
            if len(unique) >= count:
                break
        return unique
