"""Mangle wrapper determinism: the expansion commutes with the runtime.

The contracts under test:

* ``expand`` is a pure function of ``(word, rules, variants, keep,
  seed)`` -- independent of call order and of any shared RNG state;
* the mangled stream is bit-identical across schedules and executors
  for a fixed (seed, spec, workers), though elastic chunks cut words'
  expansions apart;
* wrapper-of-bank == wrapper-of-live: mangling a bank replay of a
  replayable inner yields the live wrapper's exact stream;
* specs canonicalize (rules are a sorted set) and round-trip.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bank import build_bank
from repro.data.alphabet import compact_alphabet
from repro.data.encoding import PasswordEncoder
from repro.data.mangling import RULE_NAMES, STOCHASTIC_RULES, apply_rule
from repro.runtime import (
    LocalExecutor,
    ParallelAttackEngine,
    ProcessPoolExecutor,
    StrategySource,
    chunk_quotas,
)
from repro.strategies import SpecError, build, parse_spec, take
from repro.utils.rng import spawn_rng

from scenario_enum import enum_password

words_st = st.lists(
    st.text(alphabet="abcdefgh123", min_size=1, max_size=6),
    min_size=1,
    max_size=12,
)
rules_st = st.sets(st.sampled_from(RULE_NAMES), min_size=1, max_size=4)


def rows_of(report):
    return [(r.guesses, r.unique, r.matched, r.match_percent) for r in report.rows]


class TestExpandDeterminism:
    @given(words=words_st, rules=rules_st, variants=st.integers(1, 3), seed=st.integers(0, 99))
    @settings(max_examples=80, deadline=None)
    def test_expand_is_pure_per_word(self, words, rules, variants, seed):
        """Same (word, spec) -> same expansion, in any processing order."""
        make = lambda: build(  # noqa: E731
            f"mangle(enum)?rules={','.join(sorted(rules))}"
            f"&variants={variants}&seed={seed}"
        )
        forward = {w: make().expand(w) for w in words}
        backward = {w: make().expand(w) for w in reversed(words)}
        assert forward == backward
        # and stable across repeated calls on one instance
        strategy = make()
        for w in words:
            assert strategy.expand(w) == forward[w]

    @given(word=st.text(alphabet="abc12", min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_stochastic_draws_come_from_named_substreams(self, word):
        """expand reproduces apply_rule on spawn_rng(seed, mangle/...)."""
        strategy = build("mangle(enum)?rules=append_digits,leet&variants=2&seed=5")
        rng = spawn_rng(5, f"mangle/append_digits/{word}")
        expected_stochastic = [
            apply_rule("append_digits", word, rng) for _ in range(2)
        ]
        assert strategy.expand(word) == [
            word,
            *expected_stochastic,
            apply_rule("leet", word),
        ]

    def test_different_seeds_differ(self):
        a = build("mangle(enum)?rules=append_digits&variants=4&seed=1")
        b = build("mangle(enum)?rules=append_digits&variants=4&seed=2")
        assert a.expand("monkey") != b.expand("monkey")

    def test_apply_rule_needs_rng_for_stochastic(self):
        with pytest.raises(ValueError, match="rng"):
            apply_rule(next(iter(STOCHASTIC_RULES)), "word")
        with pytest.raises(KeyError):
            apply_rule("no_such_rule", "word", np.random.default_rng(0))


class TestSpecCanonicalization:
    def test_rules_are_a_sorted_set(self):
        a = build("mangle(enum)?rules=leet,capitalize,leet")
        b = build("mangle(enum)?rules=capitalize,leet")
        assert a.describe() == b.describe()
        assert a.describe() == "mangle(enum)?rules=capitalize,leet"

    def test_describe_round_trips(self):
        spec = "mangle(enum?batch=8)?rules=append_year,leet&seed=3&variants=2"
        strategy = build(spec)
        assert parse_spec(strategy.describe()).canonical() == strategy.describe()
        assert build(strategy.describe()).describe() == strategy.describe()

    def test_unknown_rule_rejected(self):
        with pytest.raises(SpecError, match="unknown mangling rule"):
            build("mangle(enum)?rules=sparkle")

    def test_mangle_requires_inner(self):
        with pytest.raises(SpecError, match="wraps another spec"):
            build("mangle?rules=leet")

    def test_wrapper_name_and_replayability(self):
        strategy = build("mangle(enum)?rules=leet")
        assert strategy.name == "Enum+Mangle"
        assert strategy.replayable


class TestStreamDeterminism:
    SPEC = "mangle(enum?batch=16)?rules=capitalize,append_digits&variants=2&seed=3"
    BUDGETS = [80, 320]

    @staticmethod
    def _test_set():
        base = [enum_password(n) for n in range(60)]
        return {w.capitalize() for w in base} | {w + "77" for w in base}

    @classmethod
    def _run(cls, workers, schedule, executor):
        engine = ParallelAttackEngine(
            cls._test_set(),
            cls.BUDGETS,
            workers=workers,
            schedule=schedule,
            executor=executor,
        )
        report = engine.run(StrategySource(cls.SPEC), seed=11)
        return (rows_of(report), report.matched_samples, report.non_matched_samples)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("schedule", ["static", "elastic"])
    def test_repeat_runs_bit_identical(self, workers, schedule):
        assert self._run(workers, schedule, LocalExecutor()) == self._run(
            workers, schedule, LocalExecutor()
        )

    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("schedule", ["static", "elastic"])
    def test_processpool_matches_local(self, workers, schedule):
        assert self._run(workers, schedule, ProcessPoolExecutor()) == self._run(
            workers, schedule, LocalExecutor()
        )

    @pytest.mark.parametrize("workers", [2, 4])
    def test_elastic_equals_static(self, workers):
        """Chunk boundaries never leak into the mangled stream."""
        # the first round's chunks must cut words' expansions apart, or
        # this case stops covering mid-word chunk boundaries
        per_word = len(build(self.SPEC).expand("abc"))
        assert any(size % per_word for size in chunk_quotas(self.BUDGETS[0] // workers))
        assert self._run(workers, "elastic", LocalExecutor()) == self._run(
            workers, "static", LocalExecutor()
        )

    def test_serial_stream_is_the_expansion_of_the_inner_stream(self):
        """The wrapper emits exactly concat(expand(w) for inner words)."""
        strategy = build(self.SPEC)
        raw = take(build("enum?batch=16"), 200, np.random.default_rng(0))
        expected = [v for w in raw for v in strategy.expand(w)][:400]
        assert take(build(self.SPEC), 400, np.random.default_rng(0)) == expected


class TestWrapperOfBank:
    def test_mangle_of_bank_equals_mangle_of_live(self, tmp_path, corpus):
        """Banked inner -> identical mangled stream (replayable inner)."""
        # bank twice the attack budget so the replayed inner never dries
        bank = build_bank(
            build("markov:3?batch=32", corpus=corpus[:1500]),
            800,
            tmp_path / "markov.bank",
            seed=0,
            encoder=PasswordEncoder(compact_alphabet()),
        )
        live_spec = "mangle(markov:3?batch=32)?rules=leet,append_year&seed=9"
        bank_spec = f"mangle(bank:{bank.path})?rules=leet,append_year&seed=9"
        live = take(
            build(live_spec, corpus=corpus[:1500]), 600, np.random.default_rng(0)
        )
        replayed = take(build(bank_spec), 600, np.random.default_rng(0))
        assert replayed == live

    def test_banking_the_mangled_stream_round_trips(self, tmp_path, corpus):
        """The wrapper itself is bankable when its inner is replayable."""
        # length-preserving, compact-alphabet-safe rules: the mangled
        # stream must stay representable in the bank's packed key space
        spec = "mangle(markov:3?batch=32)?rules=leet,reverse&seed=2"
        bank = build_bank(
            build(spec, corpus=corpus[:1500]),
            500,
            tmp_path / "mangled.bank",
            seed=0,
            encoder=PasswordEncoder(compact_alphabet()),
        )
        assert take(build(f"bank:{bank.path}"), 500, np.random.default_rng(0)) == take(
            build(spec, corpus=corpus[:1500]), 500, np.random.default_rng(0)
        )
