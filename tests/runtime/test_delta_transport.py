"""Key-space delta transport: decode-equivalence, merge laws, fallbacks.

The sharded runtime now ships checkpoint deltas as packed uint64 key
arrays (:class:`~repro.core.guesser.KeyedCheckpointDelta`) whenever a
shard accounts in interned-id mode.  Three contracts keep the Table
II/III reports exact:

* a keyed delta *decodes* to exactly the string-mode delta the same
  stream would have produced (hypothesis-checked on random streams),
* merging keyed deltas is order-independent (union semantics), and
* a run mixing keyed and string-mode shards merges bit-identically to an
  all-string run (the merger decodes keys through the shard codec).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.guesser import (
    CheckpointDelta,
    GuessAccounting,
    KeyedCheckpointDelta,
)
from repro.data.alphabet import compact_alphabet
from repro.data.encoding import PasswordEncoder
from repro.runtime import (
    LocalExecutor,
    ParallelAttackEngine,
    ShardPlanner,
    ShardTask,
    execute_shard,
)
from repro.runtime.parallel import _DeltaFold
from repro.strategies.base import GuessBatch, GuessingStrategy


@pytest.fixture(scope="module")
def codec():
    return PasswordEncoder(compact_alphabet())


# a small password universe the hypothesis streams draw from; every entry
# is encodable so the encoded and string paths see identical streams
UNIVERSE = ["a", "b", "ab", "ba", "abc", "love12", "pw1", "pw2", "x", ""]

stream_st = st.lists(st.sampled_from(UNIVERSE), min_size=0, max_size=120)
budgets_st = (
    st.lists(st.integers(min_value=1, max_value=100), min_size=1, max_size=4, unique=True)
    .map(sorted)
)


class TestDecodeEquivalence:
    @given(stream=stream_st, budgets=budgets_st)
    @settings(max_examples=60, deadline=None)
    def test_keyed_deltas_decode_to_string_deltas(self, stream, budgets):
        """Same stream, both modes: deltas are equal after decoding."""
        codec = PasswordEncoder(compact_alphabet())
        test_set = {"ab", "love12", "pw2"}
        keyed = GuessAccounting(set(test_set), budgets, track_deltas=True)
        stringy = GuessAccounting(set(test_set), budgets, track_deltas=True)
        for start in range(0, len(stream), 7):
            chunk = stream[start : start + 7]
            keyed.observe_encoded(codec.indices_from_strings(chunk), codec)
            stringy.observe(chunk)
        assert len(keyed.deltas) == len(stringy.deltas)
        for kd, sd in zip(keyed.deltas, stringy.deltas):
            assert isinstance(kd, KeyedCheckpointDelta)
            assert isinstance(sd, CheckpointDelta)
            decoded = kd.decode(codec)
            assert sorted(decoded.new_unique) == sorted(sd.new_unique)
            assert sorted(decoded.new_matched) == sorted(sd.new_matched)
        assert [r.as_dict() for r in keyed.rows] == [r.as_dict() for r in stringy.rows]

    def test_key_roundtrip_is_exact(self, codec):
        passwords = ["", "a", "love12", "x9kq", "aaaaaaaaaa"]
        keys = codec.pack_passwords(passwords)
        assert codec.strings_from_keys(keys) == passwords
        assert codec.strings_from_keys(np.empty(0, dtype=np.uint64)) == []

    def test_delta_payload_is_uint64(self, codec):
        acc = GuessAccounting({"ab"}, [3], track_deltas=True)
        acc.observe_encoded(codec.indices_from_strings(["a", "ab", "ba"]), codec)
        (delta,) = acc.deltas
        assert delta.new_unique_keys.dtype == np.uint64
        assert delta.new_matched_keys.dtype == np.uint64
        assert delta.nbytes == delta.new_unique_keys.nbytes + delta.new_matched_keys.nbytes


class TestMergeOrderIndependence:
    @given(
        streams=st.lists(
            st.lists(st.sampled_from(UNIVERSE), min_size=1, max_size=40),
            min_size=2,
            max_size=4,
        ),
        order_seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_union_of_keyed_deltas_is_order_independent(self, streams, order_seed):
        """Folding shard deltas in any order yields the same key sets."""
        codec = PasswordEncoder(compact_alphabet())
        deltas = []
        for stream in streams:
            acc = GuessAccounting({"ab", "pw1"}, [len(stream)], track_deltas=True)
            acc.observe_encoded(codec.indices_from_strings(stream), codec)
            deltas.extend(acc.deltas)
        forward_u = np.empty(0, dtype=np.uint64)
        forward_m = np.empty(0, dtype=np.uint64)
        for delta in deltas:
            forward_u = np.union1d(forward_u, delta.new_unique_keys)
            forward_m = np.union1d(forward_m, delta.new_matched_keys)
        shuffled = list(deltas)
        np.random.default_rng(order_seed).shuffle(shuffled)
        backward_u = np.empty(0, dtype=np.uint64)
        backward_m = np.empty(0, dtype=np.uint64)
        for delta in shuffled:
            backward_u = np.union1d(backward_u, delta.new_unique_keys)
            backward_m = np.union1d(backward_m, delta.new_matched_keys)
        assert np.array_equal(forward_u, backward_u)
        assert np.array_equal(forward_m, backward_m)

    def test_accounting_merge_tracks_keyed_pending(self, codec):
        """Encoded shards' deltas fold in key space to the strings' union."""
        test_set = {"ab", "pw1"}
        a = GuessAccounting(set(test_set), [3], track_deltas=True)
        b = GuessAccounting(set(test_set), [3], track_deltas=True)
        a.observe_encoded(codec.indices_from_strings(["a", "ab", "x"]), codec)
        b.observe_encoded(codec.indices_from_strings(["pw1", "b", "x"]), codec)
        (delta_a,), (delta_b,) = a.deltas, b.deltas  # each crossed its budget
        keyed = _DeltaFold(keyed=True)
        stringy = _DeltaFold(keyed=False)
        for fold in (keyed, stringy):
            fold.add(delta_a, codec)
            fold.add(delta_b, codec)
            fold.flush()
            assert (fold.unique_count, fold.matched_count) == (5, 2)
        # the key-space fold holds exactly the decoded string sets
        assert sorted(codec.strings_from_keys(keyed._unique_keys)) == sorted(
            stringy._unique
        ) == ["a", "ab", "b", "pw1", "x"]
        assert sorted(codec.strings_from_keys(keyed._matched_keys)) == sorted(
            stringy._matched
        ) == ["ab", "pw1"]


class _Replay(GuessingStrategy):
    """Deterministic pool replay; encoded or string batches per flag."""

    def __init__(self, pool_rows, codec, encoded, batch=64):
        super().__init__(spec="replay")
        self.name = "replay"
        self._rows = pool_rows
        self._codec = codec
        self._encoded = encoded
        self._batch = batch

    def iter_guesses(self, rng):
        while True:
            count = self.context.next_count(self._batch)
            if count < 1:
                return
            draws = rng.integers(0, len(self._rows), size=count)
            rows = self._rows[draws]
            if self._encoded:
                yield GuessBatch(None, index_matrix=rows, codec=self._codec)
            else:
                yield GuessBatch(self._codec.strings_from_indices(rows))


class _MidRunFallback(_Replay):
    """Yields encoded batches, then one string batch, then encoded again."""

    def iter_guesses(self, rng):
        for i, batch in enumerate(super().iter_guesses(rng)):
            if i == 1:
                yield GuessBatch(batch.materialize())
            else:
                yield batch


@pytest.fixture(scope="module")
def replay_parts(codec):
    rng = np.random.default_rng(3)
    pool = rng.integers(1, codec.vocab_size, size=(2500, 10))
    pool[:, 6:] = np.where(rng.random((2500, 4)) < 0.5, 0, pool[:, 6:])
    strings = codec.strings_from_indices(pool)
    return pool, set(strings[:150])


def rows_of(report):
    return [(r.guesses, r.unique, r.matched, r.match_percent) for r in report.rows]


BUDGETS = [500, 2000, 6000]


class TestShardTransportParity:
    def test_keyed_run_matches_string_run(self, codec, replay_parts):
        """Key-space merge and string-space merge agree bit for bit."""
        pool, test_set = replay_parts
        keyed = ParallelAttackEngine(
            test_set, BUDGETS, workers=3, executor=LocalExecutor()
        ).run(lambda: _Replay(pool, codec, encoded=True), seed=11)
        stringy = ParallelAttackEngine(
            test_set, BUDGETS, workers=3, executor=LocalExecutor()
        ).run(lambda: _Replay(pool, codec, encoded=False), seed=11)
        assert rows_of(keyed) == rows_of(stringy)
        assert keyed.matched_samples == stringy.matched_samples
        assert keyed.non_matched_samples == stringy.non_matched_samples

    def test_shard_outcomes_are_keyed_for_encoded_streams(self, codec, replay_parts):
        pool, test_set = replay_parts
        plans = ShardPlanner(BUDGETS, 2).plan()
        task = ShardTask(
            source=lambda: _Replay(pool, codec, encoded=True),
            test_set=test_set,
            seed=11,
        )
        outcome = execute_shard(task, plans[0])
        assert outcome.keyed and outcome.codec is codec
        assert all(isinstance(d, KeyedCheckpointDelta) for d in outcome.deltas)

    def test_string_fallback_mid_run_merges_bit_identically(self, codec, replay_parts):
        """A strategy that drops to strings mid-stream re-encodes, so its
        shard stays in key space and the merged report is unchanged."""
        pool, test_set = replay_parts
        baseline = ParallelAttackEngine(
            test_set, BUDGETS, workers=3, executor=LocalExecutor()
        ).run(lambda: _Replay(pool, codec, encoded=True), seed=11)
        fallback = ParallelAttackEngine(
            test_set, BUDGETS, workers=3, executor=LocalExecutor()
        ).run(lambda: _MidRunFallback(pool, codec, encoded=True), seed=11)
        assert rows_of(fallback) == rows_of(baseline)
        assert fallback.matched_samples == baseline.matched_samples

    def test_mixed_shard_modes_merge_exactly(self, codec, replay_parts):
        """Keyed and string shards in one run: merger decodes, counts agree."""
        pool, test_set = replay_parts

        flavors = iter([True, False, True])

        def mixed_source():
            return _Replay(pool, codec, encoded=next(flavors))

        mixed = ParallelAttackEngine(
            test_set, BUDGETS, workers=3, executor=LocalExecutor()
        ).run(mixed_source, seed=11)
        uniform = ParallelAttackEngine(
            test_set, BUDGETS, workers=3, executor=LocalExecutor()
        ).run(lambda: _Replay(pool, codec, encoded=True), seed=11)
        assert rows_of(mixed) == rows_of(uniform)
