"""Streaming AttackEngine: resumable state, ``take``, encoded batches and
progress reporting.

Report bytes of the serial engine are pinned by SHA-256 in
``tests/golden/test_report_digests.py``.
"""

import numpy as np
import pytest

from repro.core.guesser import GuessAccounting
from repro.data.alphabet import Alphabet
from repro.data.encoding import PasswordEncoder
from repro.strategies import AttackEngine, build, take
from repro.strategies.base import AttackContext, GuessBatch, GuessingStrategy

BUDGETS = [200, 600]


def rows_of(report):
    return [(r.guesses, r.unique, r.matched, r.match_percent) for r in report.rows]


class TestStreamingAndResume:
    def test_report_method_defaults_to_strategy_name(self, trained_model, trained_dataset):
        report = AttackEngine(trained_dataset.test_set, [100]).run(
            build("passflow:static", model=trained_model), np.random.default_rng(0)
        )
        assert report.method == "PassFlow-Static"

    def test_stream_yields_checkpoints_in_order(self, trained_model, trained_dataset):
        engine = AttackEngine(trained_dataset.test_set, BUDGETS)
        state = engine.begin()
        rows = list(
            engine.stream(
                build("passflow:static?batch=128", model=trained_model),
                np.random.default_rng(0),
                state,
            )
        )
        assert [r.guesses for r in rows] == BUDGETS
        assert state.done
        assert rows == state.accounting.rows

    def test_state_resumes_when_budgets_extend(self, trained_model, trained_dataset):
        """A later stream on an extended schedule continues the accounting,
        as every elastic shard does chunk by chunk."""
        spec = "passflow:static?batch=128"
        engine = AttackEngine(trained_dataset.test_set, [256])
        strategy = build(spec, model=trained_model)
        state = engine.begin()
        engine.run(strategy, np.random.default_rng(4), state=state)
        assert state.done and state.total_guesses == 256
        state.accounting.budgets.append(600)
        assert not state.done
        report = engine.run(strategy, np.random.default_rng(5), state=state)
        assert state.done and state.batches == 5
        reference = GuessAccounting(set(trained_dataset.test_set), [256, 600])
        for count, seed in ((256, 4), (344, 5)):
            fresh = build(spec, model=trained_model)
            reference.observe(take(fresh, count, np.random.default_rng(seed)))
        assert report.rows == reference.rows
        assert report.matched_samples == reference.matched_samples
        assert report.non_matched_samples == reference.non_matched_samples

    def test_finished_state_streams_nothing(self, trained_model, trained_dataset):
        engine = AttackEngine(trained_dataset.test_set, [100])
        state = engine.begin()
        strategy = build("passflow:static?batch=64", model=trained_model)
        engine.run(strategy, np.random.default_rng(0), state=state)
        assert state.done
        assert list(engine.stream(strategy, np.random.default_rng(0), state)) == []

    def test_invalid_budgets_fail_at_construction(self, trained_dataset):
        with pytest.raises(ValueError):
            AttackEngine(trained_dataset.test_set, [500, 100])


class TestTake:
    def test_take_matches_direct_sampling(self, trained_model):
        # a static strategy with batch >= count draws the same RNG sequence
        # as model.sample_passwords
        got = take(
            build("passflow:static", model=trained_model),
            17,
            np.random.default_rng(9),
        )
        expected = trained_model.sample_passwords(17, rng=np.random.default_rng(9))
        assert got == expected

    def test_take_exact_count_across_batches(self, trained_model):
        strategy = build("passflow:static?batch=8", model=trained_model)
        assert len(take(strategy, 21, np.random.default_rng(0))) == 21

    def test_take_zero_and_negative(self, trained_model):
        strategy = build("passflow:static", model=trained_model)
        assert take(strategy, 0, np.random.default_rng(0)) == []
        with pytest.raises(ValueError):
            take(strategy, -1, np.random.default_rng(0))

    def test_take_unbinds_strategy(self, trained_model):
        strategy = build("passflow:static?batch=8", model=trained_model)
        take(strategy, 5, np.random.default_rng(0))
        assert strategy.context.remaining is None  # standalone again


class TestPlainIteratorStrategies:
    """Protocol tolerance: iter_guesses may return any iterator, not only
    a generator (generators have close(); plain iterators don't)."""

    class ListStrategy(GuessingStrategy):
        name = "List"

        def __init__(self, batches):
            super().__init__(spec="list")
            self._batches = batches

        def iter_guesses(self, rng):
            return iter([GuessBatch(list(b)) for b in self._batches])

    def test_engine_accepts_plain_iterator(self):
        strategy = self.ListStrategy([["a", "b"], ["c", "d"]])
        report = AttackEngine({"c"}, [4]).run(strategy, np.random.default_rng(0))
        assert report.final().matched == 1

    def test_take_accepts_plain_iterator(self):
        strategy = self.ListStrategy([["a", "b"], ["c", "d"]])
        assert take(strategy, 3, np.random.default_rng(0)) == ["a", "b", "c"]


class TestContext:
    def test_next_count_unbounded(self):
        assert AttackContext().next_count(64) == 64

    def test_next_count_limited(self):
        context = AttackContext(limit=100)
        assert context.next_count(64) == 64
        context.note(["x"] * 90)
        assert context.next_count(64) == 10
        codec = PasswordEncoder(Alphabet("xy"), max_length=3)
        keys = codec.pack_passwords(["x", "y"])
        assert context.seen_mask(keys, codec).tolist() == [True, False]

    def test_exclusive_modes(self):
        from repro.core.guesser import GuessAccounting

        with pytest.raises(ValueError):
            AttackContext(accounting=GuessAccounting({"a"}, [10]), limit=5)

    def test_guess_batch_len_and_iter(self):
        batch = GuessBatch(["a", "b"])
        assert len(batch) == 2 and list(batch) == ["a", "b"]


class TestEncodedBatches:
    """Smoother-free passflow strategies stream interned ids, not strings."""

    def test_static_yields_encoded_batches(self, trained_model):
        strategy = build("passflow:static?batch=32", model=trained_model)
        batch = next(strategy.iter_guesses(np.random.default_rng(0)))
        assert batch.passwords is None
        assert batch.index_matrix is not None and batch.codec is trained_model.encoder
        assert len(batch) == 32
        assert batch.materialize() == trained_model.encoder.strings_from_indices(
            batch.index_matrix
        )

    @pytest.mark.parametrize(
        "spec", ["passflow:static?gs=true&batch=32", "passflow:dynamic+gs?batch=32"]
    )
    def test_smoothed_strategies_yield_keys(self, trained_model, spec):
        strategy = build(spec, model=trained_model)
        batch = next(strategy.iter_guesses(np.random.default_rng(0)))
        assert batch.passwords is None
        assert batch.index_matrix is not None and batch.codec is trained_model.encoder

    def test_encoded_report_identical_to_string_path(self, trained_model, trained_dataset):
        class Materialized(GuessingStrategy):
            """Same guess stream, forced through the string path."""

            name = "materialized"

            def __init__(self, inner):
                super().__init__(spec="materialized")
                self.inner = inner

            def bind(self, context):
                super().bind(context)
                self.inner.bind(context)

            def iter_guesses(self, rng):
                for batch in self.inner.iter_guesses(rng):
                    yield GuessBatch(batch.materialize(), latents=batch.latents)

        test_set = trained_dataset.test_set
        encoded = AttackEngine(test_set, BUDGETS).run(
            build("passflow:static?batch=128", model=trained_model),
            np.random.default_rng(3),
        )
        stringy = AttackEngine(test_set, BUDGETS).run(
            Materialized(build("passflow:static?batch=128", model=trained_model)),
            np.random.default_rng(3),
        )
        assert rows_of(encoded) == rows_of(stringy)
        assert encoded.matched_samples == stringy.matched_samples
        assert encoded.non_matched_samples == stringy.non_matched_samples

    def test_batch_requires_strings_or_indices(self):
        with pytest.raises(ValueError):
            GuessBatch(None)

    @pytest.mark.parametrize("encoded_first", [True, False])
    def test_mixed_batch_kinds_raise(self, trained_model, encoded_first):
        """A stream must keep one batch kind: a switch is the mode lock's error."""
        encoder = trained_model.encoder
        rows = np.stack([encoder.to_indices("aa"), encoder.to_indices("bb")])
        batches = [
            GuessBatch(None, index_matrix=rows, codec=encoder),
            GuessBatch(["cc", "aa"]),
        ]

        class Mixed(GuessingStrategy):
            name = "mixed"

            def __init__(self):
                super().__init__(spec="mixed")

            def iter_guesses(self, rng):
                yield from batches if encoded_first else batches[::-1]

        with pytest.raises(ValueError, match="cannot switch to") as info:
            AttackEngine({"cc"}, [4]).run(Mixed(), np.random.default_rng(0))
        assert "\n" not in str(info.value)

    def test_materialized_encoded_batch_is_accounted_as_keys(self, trained_model):
        """A batch keeps its index matrix once strings are filled in, and the
        engine still accounts it as keys."""
        from repro.core.guesser import GuessAccounting, KeyedCheckpointDelta
        from repro.strategies.engine import AttackState

        encoder = trained_model.encoder

        class Materializing(GuessingStrategy):
            name = "materializing"

            def __init__(self):
                super().__init__(spec="materializing")

            def iter_guesses(self, rng):
                for pair in (("aa", "bb"), ("cc", "aa")):
                    rows = np.stack([encoder.to_indices(p) for p in pair])
                    batch = GuessBatch(None, index_matrix=rows, codec=encoder)
                    batch.materialize()
                    yield batch

        state = AttackState(GuessAccounting({"cc"}, [4], track_deltas=True))
        report = AttackEngine({"cc"}, [4]).run(
            Materializing(), np.random.default_rng(0), state=state
        )
        assert (report.final().unique, report.final().matched) == (3, 1)
        assert [type(d) for d in state.accounting.deltas] == [KeyedCheckpointDelta]


class TestProgressReporting:
    def test_stream_reports_rate_and_matches(self, trained_model, trained_dataset):
        from repro.utils.progress import ProgressReporter

        messages = []
        reporter = ProgressReporter(
            total=BUDGETS[-1], interval=0.0, sink=messages.append, label="attack"
        )
        AttackEngine(trained_dataset.test_set, BUDGETS).run(
            build("passflow:static?batch=128", model=trained_model),
            np.random.default_rng(0),
            progress=reporter,
        )
        assert messages, "reporter should have emitted at least one update"
        assert any("matched" in message for message in messages)
        assert any("/s)" in message for message in messages)
        # the final close reports the full guess count
        assert f"{BUDGETS[-1]}" in messages[-1]

    def test_parallel_engine_reports_shard_merges(self, corpus, trained_dataset):
        from repro.runtime import LocalExecutor, ParallelAttackEngine, StrategySource
        from repro.utils.progress import ProgressReporter

        messages = []
        reporter = ProgressReporter(interval=0.0, sink=messages.append, label="attack")
        ParallelAttackEngine(
            trained_dataset.test_set, [200], workers=2, executor=LocalExecutor()
        ).run(
            StrategySource("markov:3?batch=64", corpus=corpus[:500]),
            seed=5,
            progress=reporter,
        )
        assert any("shard" in message for message in messages)
        assert any("matched" in message for message in messages)


class TestConditionalStreaming:
    def test_conditional_guesses_satisfy_template(self, trained_model):
        strategy = build(
            "passflow:conditional?population=32&template=love**", model=trained_model
        )
        guesses = take(strategy, 40, np.random.default_rng(6))
        assert len(guesses) == 40
        assert all(g.startswith("love") and len(g) == 6 for g in guesses)
