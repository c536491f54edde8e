"""Hypothesis property tests on guess accounting invariants.

These invariants must hold for any guess stream and any budget layout;
every table in the paper depends on them.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.guesser import GuessAccounting
from repro.runtime.parallel import _DeltaFold

passwords = st.lists(
    st.text(alphabet="abc123", min_size=1, max_size=6), min_size=0, max_size=200
)
budget_layout = st.lists(
    st.integers(min_value=1, max_value=150), min_size=1, max_size=4, unique=True
).map(sorted)


@given(passwords, budget_layout)
@settings(max_examples=60, deadline=None)
def test_counters_are_consistent(stream, budgets):
    test_set = {"abc1", "ca", "123"}
    acc = GuessAccounting(test_set, budgets)
    acc.observe(stream)
    assert len(acc.unique) <= acc.total
    assert len(acc.matched) <= len(test_set)
    assert acc.matched <= acc.unique or not acc.matched  # matches are unique guesses
    assert acc.total <= budgets[-1]


@given(passwords, budget_layout)
@settings(max_examples=60, deadline=None)
def test_rows_are_monotone(stream, budgets):
    acc = GuessAccounting({"abc1", "ca"}, budgets)
    acc.observe(stream)
    uniques = [row.unique for row in acc.rows]
    matches = [row.matched for row in acc.rows]
    assert uniques == sorted(uniques)
    assert matches == sorted(matches)
    assert [row.guesses for row in acc.rows] == budgets[: len(acc.rows)]


@given(passwords)
@settings(max_examples=40, deadline=None)
def test_observation_order_does_not_change_totals(stream):
    budgets = [10**6]  # never exhausted: whole stream is observed
    forward = GuessAccounting({"abc1"}, budgets)
    forward.observe(stream)
    backward = GuessAccounting({"abc1"}, budgets)
    backward.observe(list(reversed(stream)))
    assert forward.total == backward.total
    assert forward.unique == backward.unique
    assert forward.matched == backward.matched


@given(passwords, st.integers(min_value=1, max_value=50))
@settings(max_examples=40, deadline=None)
def test_batched_equals_streamed(stream, batch_size):
    budgets = [10**6]
    streamed = GuessAccounting(set("abc"), budgets)
    streamed.observe(stream)
    batched = GuessAccounting(set("abc"), budgets)
    for start in range(0, len(stream), batch_size):
        batched.observe(stream[start : start + batch_size])
    assert streamed.total == batched.total
    assert streamed.unique == batched.unique
    assert streamed.matched == batched.matched


@given(passwords, budget_layout, st.integers(min_value=1, max_value=50))
@settings(max_examples=60, deadline=None)
def test_vectorized_equals_scalar(stream, budgets, batch_size):
    """The batch-vectorized path is item-for-item the per-password loop."""
    test_set = {"abc1", "ca", "123"}
    vectorized = GuessAccounting(set(test_set), budgets)
    scalar = GuessAccounting(set(test_set), budgets)
    for start in range(0, len(stream), batch_size):
        batch = stream[start : start + batch_size]
        assert vectorized.observe(batch) == scalar.observe_scalar(batch)
    assert vectorized.total == scalar.total
    assert vectorized.unique == scalar.unique
    assert vectorized.matched == scalar.matched
    assert vectorized.rows == scalar.rows
    assert vectorized.matched_samples == scalar.matched_samples
    assert vectorized.non_matched_samples == scalar.non_matched_samples


@given(passwords, passwords, budget_layout)
@settings(max_examples=40, deadline=None)
def test_merge_is_union(stream_a, stream_b, budgets):
    """Folded shard deltas count one accounting over both streams' sets."""
    test_set = {"abc1", "ca", "123"}
    fold = _DeltaFold()
    observed = []
    for stream in (stream_a, stream_b):
        shard = GuessAccounting(set(test_set), budgets, track_deltas=True)
        shard.observe(stream)
        shard.cut_checkpoint()  # the tail past the last budget crossed
        for delta in shard.deltas:
            fold.add(delta)
        observed.append(shard.total)
    fold.flush()
    reference = GuessAccounting(set(test_set), [10**6])
    reference.observe(stream_a[: observed[0]])
    reference.observe(stream_b[: observed[1]])
    assert fold.unique_count == len(reference.unique)
    assert fold.matched_count == len(reference.matched)
