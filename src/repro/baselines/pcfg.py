"""Weir-style probabilistic context-free grammar baseline [43].

Passwords are segmented into runs of letters (L_n), digits (D_n) and
symbols (S_n); the model learns (a) the distribution over structure
templates like ``L5 D2`` and (b) per-segment-class terminal distributions.
Guesses are generated by sampling a structure, then terminals.  This is the
pre-neural state of the art the related-work section builds on.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter, defaultdict
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.baselines.categorical import UniformDraws, choice_cdf


def segment(password: str) -> List[Tuple[str, str]]:
    """Split a password into (class, run) pieces; classes are L, D, S."""
    pieces: List[Tuple[str, str]] = []
    current_class = ""
    current_run = ""
    for ch in password:
        if ch.isalpha():
            klass = "L"
        elif ch.isdigit():
            klass = "D"
        else:
            klass = "S"
        if klass == current_class:
            current_run += ch
        else:
            if current_run:
                pieces.append((current_class, current_run))
            current_class, current_run = klass, ch
    if current_run:
        pieces.append((current_class, current_run))
    return pieces


def structure_of(password: str) -> str:
    """Structure template, e.g. 'love12' -> 'L4 D2'."""
    return " ".join(f"{klass}{len(run)}" for klass, run in segment(password))


class PCFGModel:
    """Learned structure + terminal distributions with sampling."""

    def __init__(self, max_length: int = 10) -> None:
        self.max_length = max_length
        self._structures: Counter = Counter()
        self._fitted = False
        self._structure_items: List[str] = []
        self._structure_probs: np.ndarray | None = None
        # token (e.g. "L4") -> (runs, probabilities)
        self._terminal_dists: Dict[str, Tuple[List[str], np.ndarray]] = {}
        # sampling tables: the structure cdf and, per structure, the
        # (runs, cdf) pair of each of its tokens
        self._structure_cdf: List[float] = []
        self._structure_tokens: List[List[Tuple[List[str], List[float]]]] = []

    def fit(self, passwords: Sequence[str]) -> "PCFGModel":
        """Learn structures and terminals from a corpus."""
        if not passwords:
            raise ValueError("cannot fit on an empty corpus")
        structures: Counter = Counter()
        terminals: Dict[str, Counter] = defaultdict(Counter)
        for password in passwords:
            password = password[: self.max_length]
            if not password:
                continue
            pieces = segment(password)
            template = " ".join(f"{k}{len(r)}" for k, r in pieces)
            structures[template] += 1
            for klass, run in pieces:
                terminals[f"{klass}{len(run)}"][run] += 1
        if not structures:
            raise ValueError("corpus produced no structures")
        self._structures = structures
        self._structure_items = list(structures)
        counts = np.array([structures[s] for s in self._structure_items], dtype=np.float64)
        self._structure_probs = counts / counts.sum()
        self._terminal_dists = {}
        for token, counter in terminals.items():
            runs = list(counter)
            weights = np.array([counter[r] for r in runs], dtype=np.float64)
            self._terminal_dists[token] = (runs, weights / weights.sum())
        token_cdfs = {
            token: (runs, choice_cdf(probs))
            for token, (runs, probs) in self._terminal_dists.items()
        }
        self._structure_cdf = choice_cdf(self._structure_probs)
        self._structure_tokens = [
            [token_cdfs[token] for token in template.split(" ")]
            for template in self._structure_items
        ]
        self._fitted = True
        return self

    def sample_passwords(self, count: int, rng: np.random.Generator) -> List[str]:
        """Sample structures then terminals, independently per guess.

        The passwords, and the state ``rng`` is left in, are those of one
        ``rng.choice(n, p=probs)`` per structure and per terminal; the
        draws go through :mod:`repro.baselines.categorical` instead.
        """
        if not self._fitted:
            raise RuntimeError("fit() the model first")
        structure_cdf = self._structure_cdf
        structures = self._structure_tokens
        # one draw for the structure, then one per token
        limit = count * (1 + max(map(len, structures)))
        out: List[str] = []
        with UniformDraws(rng, limit) as draws:
            for _ in range(count):
                tokens = structures[bisect_right(structure_cdf, next(draws))]
                out.append(
                    "".join([runs[bisect_right(cdf, next(draws))] for runs, cdf in tokens])
                )
        return out

    def log_prob(self, password: str) -> float:
        """Log-probability under the independence assumptions of the PCFG."""
        if not self._fitted:
            raise RuntimeError("fit() the model first")
        template = structure_of(password[: self.max_length])
        if template not in self._structures:
            return float("-inf")
        idx = self._structure_items.index(template)
        total = float(np.log(self._structure_probs[idx]))
        for klass_run, token in zip(segment(password), template.split(" ")):
            runs, probs = self._terminal_dists[token]
            try:
                total += float(np.log(probs[runs.index(klass_run[1])]))
            except ValueError:
                return float("-inf")
        return total


    # ------------------------------------------------------------------
    # deterministic enumeration (the actual Weir et al. algorithm)
    # ------------------------------------------------------------------
    def enumerate_guesses(self, count: int):
        """Yield guesses in (approximately exact) decreasing probability.

        This is the "next" function of Weir et al. [43]: a max-heap over
        partially-expanded structures, where each popped guess pushes its
        successors (one terminal index advanced per segment).  Sampling
        (``sample_passwords``) trades this exactness for speed; the
        enumerator is the faithful original and is what a real cracking
        session would feed to a hash-cracker.
        """
        import heapq

        if not self._fitted:
            raise RuntimeError("fit() the model first")
        if count < 0:
            raise ValueError("count must be non-negative")

        # per-token terminals sorted by descending probability
        sorted_terminals = {}
        for token, (runs, probs) in self._terminal_dists.items():
            order = sorted(range(len(runs)), key=lambda i: -probs[i])
            sorted_terminals[token] = (
                [runs[i] for i in order], [float(probs[i]) for i in order]
            )

        heap = []
        counter = 0  # tie-breaker to keep heap entries orderable
        for s_index, template in enumerate(self._structure_items):
            tokens = template.split(" ")
            base = float(self._structure_probs[s_index])
            prob = base
            for token in tokens:
                prob *= sorted_terminals[token][1][0]
            heapq.heappush(heap, (-prob, counter, template, (0,) * len(tokens)))
            counter += 1

        seen_states = set()
        emitted = 0
        while heap and emitted < count:
            neg_prob, _, template, indices = heapq.heappop(heap)
            tokens = template.split(" ")
            yield "".join(
                sorted_terminals[token][0][i] for token, i in zip(tokens, indices)
            )
            emitted += 1
            # successors: advance one segment's terminal index at a time
            for position in range(len(tokens)):
                token = tokens[position]
                next_index = indices[position] + 1
                if next_index >= len(sorted_terminals[token][0]):
                    continue
                successor = indices[:position] + (next_index,) + indices[position + 1 :]
                state = (template, successor)
                if state in seen_states:
                    continue
                seen_states.add(state)
                probs = sorted_terminals[token][1]
                ratio = probs[next_index] / probs[indices[position]]
                heapq.heappush(
                    heap, (neg_prob * ratio, counter, template, successor)
                )
                counter += 1

    def top_guesses(self, count: int):
        """The ``count`` highest-probability guesses as a list."""
        return list(self.enumerate_guesses(count))
