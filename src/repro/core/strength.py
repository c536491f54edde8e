"""Password-strength estimation from the flow's exact density.

The defensive application of this model family (Melicher et al., USENIX
Security '16, discussed in the paper's related work): a guessing model
doubles as a strength meter, because a password's guessability is monotone
in the model's probability of generating it.

PassFlow offers something GANs cannot -- exact log p(x) -- so strength
estimation is a single forward pass:

* :meth:`StrengthEstimator.log_prob` -- exact per-password log-density,
* :meth:`StrengthEstimator.guess_rank` -- Monte-Carlo estimate of the
  expected number of guesses before the password is generated,
* :meth:`StrengthEstimator.score` -- a calibrated 0..4 strength band
  (percentile against a reference corpus, zxcvbn-style bands).

Serving-tier hot path: the scalar methods cost one flow evaluation *per
password*, which is what a request-per-call service would pay.  The
``*_batch`` methods (:meth:`StrengthEstimator.log_prob_batch`,
:meth:`StrengthEstimator.percentile_batch`,
:meth:`StrengthEstimator.score_batch`) push a whole batch through the
vectorized encoder and lay it out as stacked ``EVAL_ROWS``-row chunks,
up to :data:`MAX_STACKED_CHUNKS` of them per flow pass, so the flow's
per-call overhead is paid once per 1024 rows instead of once per 64.

Bitwise determinism (the contract the micro-batching daemon in
:mod:`repro.serve` is built on): BLAS picks different accumulation
orders for different matrix shapes, so the *same* password can come back
with different low bits depending on how many rows share its evaluation.
The estimator therefore pads **every** chunk -- scalar and batched -- to
exactly :data:`EVAL_ROWS` rows, and stacks chunks as a ``(k, EVAL_ROWS,
D)`` array rather than concatenating them: ``np.matmul`` runs one gemm
per stacked slice, so each chunk is still computed at one canonical gemm
shape.  A password's result is then bitwise identical whether it was
scored alone, in a CLI batch, or in whatever micro-batch interleaving the
daemon happened to flush (per-row results are independent of the other
rows' contents and positions; the padded rows are discarded).

Unencodable passwords (over-length, out-of-alphabet) raise in the scalar
methods; the batch methods mark them with defined sentinels instead
(:data:`UNSCORABLE_SCORE` / ``nan`` log-probs), so one bad request in a
micro-batch cannot take down its neighbors.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.model import PassFlow

BAND_LABELS = ("very weak", "weak", "fair", "strong", "very strong")

#: Fixed row count of every strength chunk.  Short chunks are padded up
#: to this shape (repeating a real row) and stacked, never concatenated,
#: so every gemm the flow runs has this canonical row count -- the
#: mechanism behind the scalar == batched bitwise guarantee; see the
#: module docstring.
EVAL_ROWS = 64

#: Chunks stacked into one flow pass by the batch methods: 1024 rows,
#: one full daemon request (``MAX_PASSWORDS_PER_REQUEST`` in
#: :mod:`repro.serve.protocol`).  It bounds the per-thread kernel
#: workspace; it does not change any result bit.
MAX_STACKED_CHUNKS = 16

#: Sentinel returned by :meth:`StrengthEstimator.score_batch` for
#: passwords the model's codec cannot represent (never a valid 0..4 band).
UNSCORABLE_SCORE = -1

#: Band label paired with :data:`UNSCORABLE_SCORE`.
UNSCORABLE_LABEL = "unscorable"


class StrengthEstimator:
    """Strength meter built on a trained PassFlow model."""

    def __init__(self, model: PassFlow, reference: Optional[Sequence[str]] = None) -> None:
        self.model = model
        self._reference_log_probs: Optional[np.ndarray] = None
        if reference is not None:
            self.calibrate(reference)

    # ------------------------------------------------------------------
    def calibrate(self, reference: Sequence[str]) -> None:
        """Fit the percentile bands against a reference password corpus."""
        reference = [p for p in reference if p]
        if len(reference) < 10:
            raise ValueError("calibration needs at least 10 reference passwords")
        self._reference_log_probs = np.sort(self.model.log_prob(reference))

    @property
    def calibrated(self) -> bool:
        return self._reference_log_probs is not None

    # ------------------------------------------------------------------
    def log_prob(self, password: str) -> float:
        """Exact log p(password) under the model (at bin centers).

        Routed through the same fixed-shape evaluation as the batch path,
        so the value is bitwise identical to the one a daemon micro-batch
        would return for this password.
        """
        if not self.model.encoder.can_encode(password):
            # surface the codec's own error, exactly as a direct call would
            self.model.log_prob([password])
        return float(self.log_prob_batch([password])[0])

    def guess_rank(
        self,
        password: str,
        sample_size: int = 4096,
        rng: Optional[np.random.Generator] = None,
    ) -> float:
        """Monte-Carlo guess-rank estimate (Dell'Amico & Filippone 2015).

        The guess rank of x is the number of passwords the model considers
        at least as likely as x.  Sampling y ~ model, that count equals
        E[ 1{p(y) >= p(x)} / p(y) ], so the estimator averages inverse
        densities over the samples that beat the target.  Weak (common)
        passwords get small ranks, strong ones astronomically large ones.
        """
        if sample_size < 1:
            raise ValueError("sample_size must be >= 1")
        rng = rng if rng is not None else self.model.rng_streams.get("strength")
        # the model's log_prob is a continuous density; the discrete
        # probability of a password is density * bin volume (bin_width^D)
        log_bin_volume = self.model.encoder.max_length * np.log(
            self.model.encoder.bin_width
        )
        target = self.log_prob(password) + log_bin_volume
        guesses = [g for g in self.model.sample_passwords(sample_size, rng=rng) if g]
        if not guesses:
            return 1.0
        sample_log_probs = self.model.log_prob(guesses) + log_bin_volume
        beats = sample_log_probs >= target
        if not np.any(beats):
            return 1.0  # nothing likelier in the sample: rank ~ 1
        # average of 1/p(y) over beating samples, normalized by sample size
        inverse_probs = np.exp(-np.clip(sample_log_probs[beats], -60.0, None))
        return 1.0 + float(inverse_probs.sum() / len(guesses))

    def percentile(self, password: str) -> float:
        """Fraction of the reference corpus *weaker* (likelier) than this."""
        if not self.calibrated:
            raise RuntimeError("calibrate() the estimator first")
        target = self.log_prob(password)
        weaker = np.searchsorted(self._reference_log_probs, target)
        # likelier passwords sort to the right; weakness is high density
        return 1.0 - weaker / len(self._reference_log_probs)

    def score(self, password: str) -> int:
        """0..4 strength band from the reference percentile."""
        percentile = self.percentile(password)
        bands = np.array([0.2, 0.5, 0.8, 0.95])
        return int(np.searchsorted(bands, percentile))

    def label(self, password: str) -> str:
        """Human-readable strength band."""
        return BAND_LABELS[self.score(password)]

    # ------------------------------------------------------------------
    # batch-vectorized path (the serving tier's hot path)
    # ------------------------------------------------------------------
    def log_prob_batch(self, passwords: Sequence[str]) -> np.ndarray:
        """Exact log p per password in stacked vectorized flow passes.

        Returns an (N,) float64 array bitwise equal to
        ``[self.log_prob(p) for p in passwords]`` for encodable inputs;
        unencodable entries (over-length / out-of-alphabet, which the
        scalar path raises on) come back as ``nan`` sentinels.

        The encodable passwords are split into chunks of
        :data:`EVAL_ROWS` rows, the last one padded to that shape by
        repeating its first row.  Up to :data:`MAX_STACKED_CHUNKS` chunks
        go to ``Flow.log_prob`` as one ``(k, EVAL_ROWS, D)`` array, so N
        encodable passwords cost ``ceil(chunks / MAX_STACKED_CHUNKS)``
        flow calls, and every chunk is evaluated at the canonical shape.
        """
        passwords = list(passwords)
        out = np.full(len(passwords), np.nan, dtype=np.float64)
        encoder = self.model.encoder
        encodable = np.array(
            [i for i, p in enumerate(passwords) if encoder.can_encode(p)], dtype=np.intp
        )
        if not len(encodable):
            return out
        features = encoder.encode_batch([passwords[i] for i in encodable])
        # chunk c holds feature rows [c*EVAL_ROWS, (c+1)*EVAL_ROWS); the
        # last chunk's padding repeats its first row -- a few wasted flops
        # buy shape-invariant bits
        starts = np.arange(0, len(encodable), EVAL_ROWS)
        rows = starts[:, None] + np.arange(EVAL_ROWS)
        real = rows < len(encodable)
        rows = np.where(real, rows, starts[:, None])
        flow = self.model.flow
        for first in range(0, len(starts), MAX_STACKED_CHUNKS):
            block = slice(first, first + MAX_STACKED_CHUNKS)
            log_probs = flow.log_prob(features[rows[block]])
            out[encodable[rows[block][real[block]]]] = log_probs[real[block]]
        return out

    def _percentiles_from_log_probs(self, log_probs: np.ndarray) -> np.ndarray:
        """Log-probs -> reference percentiles; ``nan`` passes through."""
        if not self.calibrated:
            raise RuntimeError("calibrate() the estimator first")
        valid = ~np.isnan(log_probs)
        out = np.full(log_probs.shape, np.nan, dtype=np.float64)
        weaker = np.searchsorted(self._reference_log_probs, log_probs[valid])
        out[valid] = 1.0 - weaker / len(self._reference_log_probs)
        return out

    @staticmethod
    def _scores_from_percentiles(percentiles: np.ndarray) -> np.ndarray:
        """Percentiles -> int64 bands; ``nan`` -> :data:`UNSCORABLE_SCORE`."""
        valid = ~np.isnan(percentiles)
        out = np.full(percentiles.shape, UNSCORABLE_SCORE, dtype=np.int64)
        bands = np.array([0.2, 0.5, 0.8, 0.95])
        out[valid] = np.searchsorted(bands, percentiles[valid])
        return out

    def percentile_batch(self, passwords: Sequence[str]) -> np.ndarray:
        """Vectorized :meth:`percentile`; ``nan`` for unencodable entries."""
        return self._percentiles_from_log_probs(self.log_prob_batch(passwords))

    def score_batch(self, passwords: Sequence[str]) -> np.ndarray:
        """Vectorized :meth:`score`: (N,) int64 of 0..4 bands.

        Bitwise identical to ``[self.score(p) for p in passwords]`` for
        encodable inputs; unencodable entries are the
        :data:`UNSCORABLE_SCORE` sentinel (-1), never an exception.
        """
        return self._scores_from_percentiles(self.percentile_batch(passwords))

    def evaluate_batch(self, passwords: Sequence[str]):
        """One flow pass, every strength view: ``(log_probs, percentiles,
        scores)`` arrays, sentinel-aware.

        The serving tier's flush function: computing the three views
        separately would cost three flow evaluations; this costs one.
        """
        log_probs = self.log_prob_batch(passwords)
        percentiles = self._percentiles_from_log_probs(log_probs)
        return log_probs, percentiles, self._scores_from_percentiles(percentiles)

    def labels_from_scores(self, scores: np.ndarray) -> List[str]:
        """Band labels for a :meth:`score_batch` result (sentinel-aware)."""
        return [
            UNSCORABLE_LABEL if score == UNSCORABLE_SCORE else BAND_LABELS[int(score)]
            for score in np.asarray(scores)
        ]

    def report(self, passwords: Sequence[str]) -> List[dict]:
        """Strength summary rows for a batch of passwords.

        Runs on the batch-vectorized path (stacked chunks, not one flow
        evaluation per password); unencodable passwords get ``None``
        log-probs and the ``unscorable`` band.
        """
        passwords = list(passwords)
        percentiles = scores = None
        if self.calibrated:
            log_probs, percentiles, scores = self.evaluate_batch(passwords)
        else:
            log_probs = self.log_prob_batch(passwords)
        rows = []
        for i, password in enumerate(passwords):
            encodable = not np.isnan(log_probs[i])
            entry = {
                "password": password,
                "log_prob": round(float(log_probs[i]), 2) if encodable else None,
            }
            if self.calibrated:
                entry["percentile"] = (
                    round(float(percentiles[i]), 3) if encodable else None
                )
                entry["band"] = (
                    BAND_LABELS[int(scores[i])] if encodable else UNSCORABLE_LABEL
                )
            rows.append(entry)
        return rows
