"""Batch-vectorized strength scoring: bitwise parity with the scalar path.

The property under test is the serving tier's foundation: for any mix of
passwords (encodable or not) and any kernel backend,
``score_batch``/``log_prob_batch``/``percentile_batch`` return exactly --
bit for bit -- what a loop over the scalar methods returns, with defined
sentinels where the scalar path raises.

The scalar and batched methods share the stacked flow pass, so a mistake
in it would pass those comparisons; :class:`TestOracleLoop` also pins
both against the original one-flow-call-per-chunk loop.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core.strength import (
    EVAL_ROWS,
    MAX_STACKED_CHUNKS,
    UNSCORABLE_LABEL,
    UNSCORABLE_SCORE,
    StrengthEstimator,
)

BACKENDS = ["numpy", "reference"]

# mixes encodable corpus-alphabet passwords with out-of-alphabet and
# over-length junk the codec must sentinel out
password_strategy = st.one_of(
    st.text(alphabet="abcdefmno129", min_size=1, max_size=10),
    st.text(alphabet="ÅΩ光", min_size=1, max_size=4),
    st.text(alphabet="abc", min_size=11, max_size=16),
)


@pytest.fixture(scope="module")
def estimator(trained_model, corpus):
    est = StrengthEstimator(trained_model)
    est.calibrate(corpus[:400])
    return est


class TestBitwiseParity:
    @given(passwords=st.lists(password_strategy, min_size=1, max_size=12))
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_log_prob_batch_matches_scalar_bitwise(self, estimator, passwords):
        batched = estimator.log_prob_batch(passwords)
        for value, password in zip(batched, passwords):
            if estimator.model.encoder.can_encode(password):
                assert value == estimator.log_prob(password)  # bitwise
            else:
                assert np.isnan(value)

    @given(passwords=st.lists(password_strategy, min_size=1, max_size=10))
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_score_and_percentile_match_scalar_bitwise(self, estimator, passwords):
        scores = estimator.score_batch(passwords)
        percentiles = estimator.percentile_batch(passwords)
        for i, password in enumerate(passwords):
            if estimator.model.encoder.can_encode(password):
                assert scores[i] == estimator.score(password)
                assert percentiles[i] == estimator.percentile(password)
            else:
                assert scores[i] == UNSCORABLE_SCORE
                assert np.isnan(percentiles[i])

    def test_chunking_is_bit_invariant(self, estimator, corpus):
        """Where a request is split -- inside a 64-row chunk, on a chunk
        boundary, one row past it -- never changes a row's bits."""
        passwords = corpus[:200]
        reference = estimator.log_prob_batch(passwords)
        for cut in (1, 3, 7, 50, 64, 65, 128, 199):
            split = np.concatenate(
                [
                    estimator.log_prob_batch(passwords[:cut]),
                    estimator.log_prob_batch(passwords[cut:]),
                ]
            )
            np.testing.assert_array_equal(split, reference)

    def test_position_and_neighbors_do_not_change_bits(self, estimator, corpus):
        target = corpus[0]
        alone = estimator.log_prob_batch([target])[0]
        rng = np.random.default_rng(5)
        for _ in range(4):
            neighbors = list(rng.choice(corpus[1:200], size=EVAL_ROWS - 1))
            position = int(rng.integers(0, EVAL_ROWS))
            batch = neighbors[:position] + [target] + neighbors[position:]
            assert estimator.log_prob_batch(batch)[position] == alone


class TestBackends:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_parity_holds_on_every_backend(self, estimator, corpus, backend):
        passwords = corpus[:20] + ["ÅΩ", "a" * 30]
        with kernels.use_backend(backend):
            batched = estimator.log_prob_batch(passwords)
            scores = estimator.score_batch(passwords)
            scalar = [
                estimator.log_prob(p)
                if estimator.model.encoder.can_encode(p)
                else None
                for p in passwords
            ]
        for i, expected in enumerate(scalar):
            if expected is None:
                assert np.isnan(batched[i]) and scores[i] == UNSCORABLE_SCORE
            else:
                assert batched[i] == expected


class TestSentinels:
    def test_all_unencodable_batch_is_all_sentinels(self, estimator):
        passwords = ["Ω" * 3, "x" * 40]
        assert np.isnan(estimator.log_prob_batch(passwords)).all()
        assert (estimator.score_batch(passwords) == UNSCORABLE_SCORE).all()
        assert estimator.labels_from_scores(
            estimator.score_batch(passwords)
        ) == [UNSCORABLE_LABEL, UNSCORABLE_LABEL]

    def test_empty_batch(self, estimator):
        assert estimator.log_prob_batch([]).shape == (0,)
        assert estimator.score_batch([]).shape == (0,)

    def test_report_marks_unscorable_rows(self, estimator):
        rows = estimator.report(["abc12", "Ω"])
        assert rows[0]["log_prob"] is not None and rows[0]["band"] != UNSCORABLE_LABEL
        assert rows[1]["log_prob"] is None and rows[1]["band"] == UNSCORABLE_LABEL

    def test_scalar_path_still_raises_on_unencodable(self, estimator):
        with pytest.raises((KeyError, ValueError)):
            estimator.log_prob("Ω")


def oracle_log_probs(model, passwords):
    """The pre-stacking loop: one ``model.log_prob`` call per padded chunk."""
    out = np.full(len(passwords), np.nan)
    encodable = [i for i, p in enumerate(passwords) if model.encoder.can_encode(p)]
    for start in range(0, len(encodable), EVAL_ROWS):
        chunk = encodable[start : start + EVAL_ROWS]
        rows = [passwords[i] for i in chunk]
        out[chunk] = model.log_prob(rows + [rows[0]] * (EVAL_ROWS - len(rows)))[
            : len(rows)
        ]
    return out


class TestOracleLoop:
    """Stacked scoring == the one-call-per-chunk loop, bit for bit.

    The N encodable passwords cross the chunk boundary (63/64/65) and the
    ``MAX_STACKED_CHUNKS`` cap (1024/1025 rows; 2500 is three flow calls);
    two unencodable ones ride along.
    """

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 1024, 1025, 2500])
    def test_matches_per_chunk_loop_bitwise(self, estimator, corpus, backend, n):
        passwords = list(np.random.default_rng(n).choice(corpus, size=n))
        passwords.insert(n // 2, "Ω")
        passwords.append("x" * 30)
        with kernels.use_backend(backend):
            stacked = estimator.log_prob_batch(passwords)
            expected = oracle_log_probs(estimator.model, passwords)
        assert np.array_equal(stacked, expected, equal_nan=True)


class TestCallCountSeam:
    """Chunks are stacked: ceil(chunks / MAX_STACKED_CHUNKS) flow calls."""

    def count_calls(self, estimator, passwords, monkeypatch):
        shapes = []
        flow = estimator.model.flow
        real = flow.log_prob

        def counting(x):
            shapes.append(np.shape(x))
            return real(x)

        # an instance attribute, deleted again on undo
        monkeypatch.setitem(vars(flow), "log_prob", counting)
        estimator.log_prob_batch(passwords)
        return shapes

    def assert_stacked(self, shapes, chunks):
        """Every call is a ``(k, EVAL_ROWS, D)`` stack, k <= the cap."""
        assert len(shapes) == math.ceil(chunks / MAX_STACKED_CHUNKS)
        for k, rows, _ in shapes:
            assert 1 <= k <= MAX_STACKED_CHUNKS and rows == EVAL_ROWS
        assert sum(k for k, _, _ in shapes) == chunks

    @pytest.mark.parametrize("n", [1, 5, 64, 65, 100, 1024, 1025, 2500])
    def test_ceil_chunks_over_cap_calls(self, estimator, corpus, monkeypatch, n):
        shapes = self.count_calls(estimator, corpus[:n], monkeypatch)
        self.assert_stacked(shapes, math.ceil(n / EVAL_ROWS))

    def test_one_audit_request_is_one_flow_call(self, estimator, corpus, monkeypatch):
        shapes = self.count_calls(estimator, corpus[:1024], monkeypatch)
        assert shapes == [(MAX_STACKED_CHUNKS, EVAL_ROWS, estimator.model.flow.dim)]

    def test_unencodable_rows_cost_no_chunks(self, estimator, corpus, monkeypatch):
        # 64 encodable rows fill one chunk; chunking the 5 unencodable
        # rows too would spill into a second
        passwords = ["Ω"] * 2 + corpus[:EVAL_ROWS] + ["Ω"] * 3
        shapes = self.count_calls(estimator, passwords, monkeypatch)
        self.assert_stacked(shapes, 1)
        assert self.count_calls(estimator, ["Ω"] * 5, monkeypatch) == []
