"""The vectorized/encoded accounting paths against the scalar reference.

Three contracts guard the parallel runtime's foundation:

* ``observe`` (batch-vectorized) is item-for-item equivalent to
  ``observe_scalar`` (the seed per-password loop),
* ``observe_encoded`` (interned uint64 ids) is equivalent to ``observe``
  over the decoded strings,
* both keep the scalar loop's report samples when ``SAMPLE_CAP`` fills
  in the middle of a batch, and ``extend_samples`` (the parallel sample
  merge) keeps order, drops duplicates and stops at the cap,
* shard accountings combine only through their checkpoint deltas, which
  ``ParallelAttackEngine._merge`` folds into the union one accounting
  over every shard's stream would count, in either mode.
"""

import random

import numpy as np
import pytest

from repro.core.guesser import (
    SAMPLE_CAP,
    GuessAccounting,
    KeyedCheckpointDelta,
    extend_samples,
)
from repro.data.alphabet import compact_alphabet
from repro.data.encoding import PasswordEncoder
from repro.runtime import LocalExecutor, ParallelAttackEngine, ShardOutcome

POOL = [f"pw{i}" for i in range(400)] + ["", "hit1", "hit2", "hit3"]


def random_case(rng):
    test_set = set(rng.sample(POOL, rng.randint(0, 30)))
    budgets = sorted(rng.sample(range(1, 400), rng.randint(1, 4)))
    stream = [rng.choice(POOL) for _ in range(rng.randint(0, 450))]
    return test_set, budgets, stream


def drive(accounting, stream, rng, method):
    indices, start = [], 0
    observe = getattr(accounting, method)
    while start < len(stream):
        size = rng.randint(1, 64)
        indices.extend(
            i + start for i in observe(stream[start : start + size])
        )
        start += size
    return indices


def state_of(accounting):
    return {
        "total": accounting.total,
        "unique": set(accounting.unique),
        "matched": set(accounting.matched),
        "rows": [row.as_dict() for row in accounting.rows],
        "matched_samples": list(accounting.matched_samples),
        "non_matched_samples": list(accounting.non_matched_samples),
    }


class TestScalarVectorizedEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_streams(self, seed):
        rng = random.Random(seed)
        for _ in range(25):
            test_set, budgets, stream = random_case(rng)
            vectorized = GuessAccounting(set(test_set), budgets)
            scalar = GuessAccounting(set(test_set), budgets)
            batch_rng = random.Random(seed + 1)
            iv = drive(vectorized, stream, batch_rng, "observe")
            batch_rng = random.Random(seed + 1)
            isc = drive(scalar, stream, batch_rng, "observe_scalar")
            assert iv == isc
            assert state_of(vectorized) == state_of(scalar)

    def test_deltas_match_scalar(self):
        rng = random.Random(3)
        test_set, budgets, stream = random_case(rng)
        a = GuessAccounting(set(test_set), budgets, track_deltas=True)
        b = GuessAccounting(set(test_set), budgets, track_deltas=True)
        a.observe(stream)
        b.observe_scalar(stream)
        assert len(a.deltas) == len(b.deltas) == len(a.rows)
        for da, db in zip(a.deltas, b.deltas):
            assert sorted(da.new_unique) == sorted(db.new_unique)
            assert sorted(da.new_matched) == sorted(db.new_matched)

    def test_delta_union_reconstructs_rows(self):
        acc = GuessAccounting({"hit1", "hit2"}, [50, 120, 300], track_deltas=True)
        acc.observe([random.Random(9).choice(POOL) for _ in range(400)])
        unique, matched = set(), set()
        for row, delta in zip(acc.rows, acc.deltas):
            unique.update(delta.new_unique)
            matched.update(delta.new_matched)
            assert row.unique == len(unique)
            assert row.matched == len(matched)

    def test_mid_batch_checkpoint_split(self):
        acc = GuessAccounting({"c"}, [2, 5])
        acc.observe(["a", "b", "c", "c", "d", "e", "f"])
        assert [r.guesses for r in acc.rows] == [2, 5]
        assert acc.rows[0].unique == 2
        assert acc.rows[1].matched == 1
        assert acc.total == 5  # stops at the final budget mid-batch


class TestEncodedEquivalence:
    @pytest.fixture(scope="class")
    def codec(self):
        return PasswordEncoder(compact_alphabet())

    def test_random_index_streams(self, codec):
        rng = np.random.default_rng(5)
        for _ in range(12):
            n = int(rng.integers(50, 1200))
            index_matrix = rng.integers(0, codec.vocab_size, size=(n, 10))
            index_matrix[rng.integers(0, n, size=2)] = 0  # empty passwords
            strings = codec.strings_from_indices(index_matrix)
            test_set = set(
                rng.choice([s for s in strings if s], size=15, replace=False).tolist()
            )
            budgets = sorted(set(rng.integers(1, n + 40, size=3).tolist()))
            encoded = GuessAccounting(set(test_set), budgets)
            stringy = GuessAccounting(set(test_set), budgets)
            got, want, start = [], [], 0
            while start < n:
                size = int(rng.integers(1, 257))
                got += [
                    i + start
                    for i in encoded.observe_encoded(
                        index_matrix[start : start + size], codec
                    )
                ]
                want += [
                    i + start
                    for i in stringy.observe(strings[start : start + size])
                ]
                start += size
            assert got == want
            assert encoded.matched == stringy.matched
            assert [r.as_dict() for r in encoded.rows] == [
                r.as_dict() for r in stringy.rows
            ]
            assert encoded.matched_samples == stringy.matched_samples
            assert encoded.non_matched_samples == stringy.non_matched_samples

    def test_unencodable_test_targets_are_skipped_not_fatal(self, codec):
        """Real test sets contain targets the codec cannot represent."""
        encodable = "love12"
        test_set = {
            encodable,
            "far-too-long-password",  # over max_length
            "has spaces!",  # out-of-alphabet characters
        }
        acc = GuessAccounting(set(test_set), [10])
        rows = np.stack([codec.to_indices(encodable), codec.to_indices("miss1")])
        matches = acc.observe_encoded(rows, codec)
        assert matches == [0]
        assert acc.matched == {encodable}
        # percent is still relative to the full test set
        assert acc.rows == [] and acc.test_set == test_set

    def test_mode_locking(self, codec):
        acc = GuessAccounting(set(), [10])
        acc.observe(["a"])
        with pytest.raises(ValueError):
            acc.observe_encoded(np.zeros((1, 10), dtype=np.int64), codec)
        acc2 = GuessAccounting(set(), [10])
        acc2.observe_encoded(np.zeros((1, 10), dtype=np.int64), codec)
        with pytest.raises(ValueError):
            acc2.observe(["a"])

    def test_encoded_delta_tracking_emits_keyed_deltas(self, codec):
        """track_deltas in encoded mode ships packed keys, not strings."""
        from repro.core.guesser import KeyedCheckpointDelta

        acc = GuessAccounting(set(), [2, 3], track_deltas=True)
        rows = np.stack([codec.to_indices(p) for p in ["aa", "ab", "aa"]])
        acc.observe_encoded(rows, codec)
        assert [type(d) for d in acc.deltas] == [KeyedCheckpointDelta] * 2
        assert sorted(codec.strings_from_keys(acc.deltas[0].new_unique_keys)) == [
            "aa",
            "ab",
        ]
        assert codec.strings_from_keys(acc.deltas[1].new_unique_keys) == []

    def test_empty_batches_observe_nothing(self, codec):
        acc = GuessAccounting({"abc"}, [5])
        for empty in (np.empty((0,), dtype=np.int64), np.empty((0, 10), dtype=np.int64)):
            assert acc.observe_encoded(empty, codec) == []
        assert acc.total == 0
        stringy = GuessAccounting({"abc"}, [5])
        assert stringy.observe([]) == [] and stringy.total == 0


def merge_shards(test_set, budgets, shards):
    """Merge shard accountings the way the runtime does: through deltas.

    Each shard accounts over its own local budgets with delta tracking,
    one delta per checkpoint it crossed (window ``j`` is delta ``j``) and
    its dry tail cut as one more, exactly what a static shard ships.
    """
    outcomes = []
    for index, accounting in enumerate(shards):
        reached = len(accounting.deltas)
        accounting.cut_checkpoint()
        outcomes.append(
            ShardOutcome(
                index=index,
                total=accounting.total,
                deltas=accounting.deltas,
                window_slices=[(j, j + 1) for j in range(reached)],
                matched_samples=accounting.matched_samples,
                non_matched_samples=accounting.non_matched_samples,
            )
        )
    engine = ParallelAttackEngine(
        test_set, budgets, workers=len(shards), executor=LocalExecutor()
    )
    completed = min(len(outcome.window_slices) for outcome in outcomes)
    return engine._merge(outcomes, completed, "merged")


def row_tuples(report):
    return [(r.guesses, r.unique, r.matched) for r in report.rows]


class TestMerge:
    """Shard accountings combine through checkpoint deltas, never directly."""

    @pytest.fixture(scope="class")
    def codec(self):
        return PasswordEncoder(compact_alphabet())

    def test_overlapping_shards(self):
        test_set = {"hit1", "hit2", "hit3"}
        shard_a = GuessAccounting(set(test_set), [50], track_deltas=True)
        shard_b = GuessAccounting(set(test_set), [50], track_deltas=True)
        shard_a.observe(["pw1", "pw2", "hit1", "pw3"])
        shard_b.observe(["pw2", "hit1", "hit2", "pw4"])
        report = merge_shards(test_set, [100], [shard_a, shard_b])
        # totals add even for overlapping guesses; uniques and hits union
        assert row_tuples(report) == [(8, 6, 2)]
        assert report.matched_samples == ["hit1", "hit2"]
        assert report.non_matched_samples == ["pw1", "pw2", "pw3", "pw4"]

    def test_merge_emits_crossed_checkpoints(self):
        # a global budget of 6 is two local budgets of 3; neither shard
        # alone sees 5 distinct guesses, the merged checkpoint does
        shard_a = GuessAccounting({"x"}, [3], track_deltas=True)
        shard_b = GuessAccounting({"x"}, [3], track_deltas=True)
        shard_a.observe(["a", "b", "c"])
        shard_b.observe(["c", "x", "d"])
        assert len(shard_a.deltas) == len(shard_b.deltas) == 1
        report = merge_shards({"x"}, [6], [shard_a, shard_b])
        assert row_tuples(report) == [(6, 5, 1)]

    @pytest.mark.parametrize("string_first", [True, False])
    def test_merge_rejects_mixed_modes(self, codec, string_first):
        """A string shard beside an encoded one fails the merge in one line."""
        test_set = {"pw1", "ab"}
        stringy = GuessAccounting(set(test_set), [50], track_deltas=True)
        encoded = GuessAccounting(set(test_set), [50], track_deltas=True)
        stringy.observe(["pw1", "a", "b"])
        encoded.observe_encoded(codec.indices_from_strings(["ab", "a", "c"]), codec)
        shards = [stringy, encoded] if string_first else [encoded, stringy]
        with pytest.raises(ValueError, match="cannot merge packed-key and string"):
            merge_shards(test_set, [100], shards)

    def test_merge_encoded_unique_union(self, codec):
        rng = np.random.default_rng(0)
        rows_a = rng.integers(0, codec.vocab_size, size=(40, 10))
        rows_b = np.concatenate(
            [rows_a[:20], rng.integers(0, codec.vocab_size, size=(20, 10))]
        )
        a = GuessAccounting(set(), [50], track_deltas=True)
        b = GuessAccounting(set(), [50], track_deltas=True)
        reference = GuessAccounting(set(), [100])
        a.observe_encoded(rows_a, codec)
        b.observe_encoded(rows_b, codec)
        reference.observe_encoded(np.concatenate([rows_a, rows_b]), codec)
        assert all(
            isinstance(delta, KeyedCheckpointDelta) for delta in a.deltas + b.deltas
        )
        report = merge_shards(set(), [100], [a, b])
        assert row_tuples(report) == [(80, reference._unique_count(), 0)]

    def test_sample_merge_caps_and_dedupes(self):
        a = GuessAccounting(set(), [50], track_deltas=True)
        b = GuessAccounting(set(), [50], track_deltas=True)
        a.observe([f"a{i}" for i in range(10)] + ["shared"])
        b.observe(["shared"] + [f"b{i}" for i in range(10)])
        report = merge_shards(set(), [100], [a, b])
        # shard order, the duplicate dropped, cut at the cap
        assert report.non_matched_samples == (
            [f"a{i}" for i in range(10)] + ["shared"] + [f"b{i}" for i in range(5)]
        )
        assert len(report.non_matched_samples) == SAMPLE_CAP


class TestSampleCap:
    """``SAMPLE_CAP`` filling mid-batch, in both modes, against the oracle."""

    @pytest.fixture(scope="class")
    def codec(self):
        return PasswordEncoder(compact_alphabet())

    @staticmethod
    def case():
        # 41 targets among 121 passwords (the empty one included), drawn
        # with repeats: far more than SAMPLE_CAP distinct hits and misses
        # turn up, so both sample lists fill well inside the stream
        rng = random.Random(11)
        pool = [f"pw{i}" for i in range(120)] + [""]
        test_set = set(pool[:120:3])
        stream = [rng.choice(pool) for _ in range(300)]
        return test_set, stream

    @staticmethod
    def assert_cap_reached_mid_stream(scalar, test_set, stream):
        assert len(scalar.matched_samples) == SAMPLE_CAP
        assert len(scalar.non_matched_samples) == SAMPLE_CAP
        misses = {p for p in stream if p and p not in test_set}
        assert len(scalar.matched) > SAMPLE_CAP and len(misses) > SAMPLE_CAP

    @pytest.mark.parametrize("batch", [300, 37])
    def test_string_mode(self, batch):
        test_set, stream = self.case()
        vectorized = GuessAccounting(set(test_set), [len(stream)])
        scalar = GuessAccounting(set(test_set), [len(stream)])
        got = []
        for start in range(0, len(stream), batch):
            got += [
                start + i for i in vectorized.observe(stream[start : start + batch])
            ]
        assert got == scalar.observe_scalar(stream)
        assert state_of(vectorized) == state_of(scalar)
        self.assert_cap_reached_mid_stream(scalar, test_set, stream)

    @pytest.mark.parametrize("batch", [300, 37])
    def test_encoded_mode(self, codec, batch):
        test_set, stream = self.case()
        encoded = GuessAccounting(set(test_set), [len(stream)])
        scalar = GuessAccounting(set(test_set), [len(stream)])
        index_matrix = codec.indices_from_strings(stream)
        got = []
        for start in range(0, len(stream), batch):
            got += [
                start + i
                for i in encoded.observe_encoded(
                    index_matrix[start : start + batch], codec
                )
            ]
        assert got == scalar.observe_scalar(stream)
        assert encoded.matched == scalar.matched
        assert [r.as_dict() for r in encoded.rows] == [
            r.as_dict() for r in scalar.rows
        ]
        assert encoded.matched_samples == scalar.matched_samples
        assert encoded.non_matched_samples == scalar.non_matched_samples
        self.assert_cap_reached_mid_stream(scalar, test_set, stream)


def test_extend_samples_keeps_order_drops_duplicates_and_caps():
    merged = ["a", "b"]
    extend_samples(merged, ["b", "c", "a", "c", "d"])
    assert merged == ["a", "b", "c", "d"]
    more = [f"s{i}" for i in range(2 * SAMPLE_CAP)]
    extend_samples(merged, more)
    assert merged == ["a", "b", "c", "d"] + more[: SAMPLE_CAP - 4]
    extend_samples(merged, ["late"])
    assert len(merged) == SAMPLE_CAP and "late" not in merged


def test_budget_validation_still_applies():
    with pytest.raises(ValueError):
        GuessAccounting(set(), [0, 10])
