"""Character-level Markov model baseline.

The classic password-guessing baseline (John the Ripper's Markov mode,
ref [2] of the paper; also the reference point of Melicher et al. [30]):
an order-``k`` character model with add-``delta`` smoothing and explicit
start/end symbols, supporting both sampling and exact sequence probability.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter, defaultdict
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.baselines.categorical import UniformDraws, choice_cdf

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
        self._fitted = False
        # context -> (symbols, probabilities), for log_prob and top_guesses
        self._dist_cache: Dict[str, Tuple[List[str], np.ndarray]] = {}
        # context -> sampling cdf; contexts absent from the corpus all share
        # one smoothed-uniform cdf, so they cost a dict entry, not a table
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
        self._dist_cache = {}
        self._cdfs = {}
        self._unseen_cdf = choice_cdf(self._probs(Counter()))
        self._fitted = True
        return self

    def _probs(self, counts: Counter) -> np.ndarray:
        """Add-``delta`` smoothed next-symbol probabilities over the alphabet."""
        weights = np.array(
            [counts.get(s, 0) + self.smoothing for s in self._alphabet], dtype=np.float64
        )
        return weights / weights.sum()

    def _distribution(self, context: str) -> Tuple[List[str], np.ndarray]:
        """Smoothed next-symbol distribution for a context (cached)."""
        cached = self._dist_cache.get(context)
        if cached is not None:
            return cached
        entry = (self._alphabet, self._probs(self._counts.get(context, Counter())))
        self._dist_cache[context] = entry
        return entry

    def _cdf(self, context: str) -> List[float]:
        """The cdf ``rng.choice`` builds from ``context``'s distribution (cached)."""
        counts = self._counts.get(context)
        cdf = self._unseen_cdf if counts is None else choice_cdf(self._probs(counts))
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
        """Exact log-probability of ``password`` under the model."""
        if not self._fitted:
            raise RuntimeError("fit() the model first")
        padded = START * self.order + password[: self.max_length] + END
        total = 0.0
        for i in range(self.order, len(padded)):
            context = padded[i - self.order : i]
            symbols, probs = self._distribution(context)
            try:
                idx = symbols.index(padded[i])
            except ValueError:
                return float("-inf")
            total += float(np.log(probs[idx]))
        return total


    # ------------------------------------------------------------------
    # approximate highest-probability enumeration
    # ------------------------------------------------------------------
    def top_guesses(self, count: int, beam_width: int = 512) -> List[str]:
        """Approximately the ``count`` most probable passwords (beam search).

        Expands prefix hypotheses breadth-first keeping the ``beam_width``
        most probable at each length; completed passwords (END emitted)
        accumulate and the best ``count`` are returned.  This is the
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
                symbols, probs = self._distribution(context)
                for symbol, prob in zip(symbols, probs):
                    if prob <= 0:
                        continue
                    score = log_p + float(np.log(prob))
                    if symbol == END:
                        completed.append((score, prefix))
                    elif len(prefix) < self.max_length:
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
