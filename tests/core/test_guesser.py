"""Guess accounting, reports, and the generic sampled-model strategy."""

import numpy as np
import pytest

from repro.core.guesser import BudgetRow, GuessAccounting, GuessingReport
from repro.strategies import AttackEngine
from repro.strategies.baselines import SampledModelStrategy


class TestAccounting:
    def test_budgets_must_be_sorted(self):
        with pytest.raises(ValueError):
            GuessAccounting({"a"}, [100, 50])

    def test_budgets_must_be_distinct(self):
        with pytest.raises(ValueError):
            GuessAccounting({"a"}, [50, 50])

    def test_budgets_required(self):
        with pytest.raises(ValueError):
            GuessAccounting({"a"}, [])

    def test_counts_unique_and_matched(self):
        acc = GuessAccounting({"hit1", "hit2"}, [6])
        acc.observe(["miss", "hit1", "miss", "hit1", "hit2", "other"])
        row = acc.rows[0]
        assert row.guesses == 6
        assert row.unique == 4  # miss, hit1, hit2, other
        assert row.matched == 2

    def test_observe_returns_new_match_indices(self):
        acc = GuessAccounting({"a", "b"}, [10])
        indices = acc.observe(["x", "a", "a", "b"])
        assert indices == [1, 3]

    def test_duplicate_match_not_recounted(self):
        acc = GuessAccounting({"a"}, [10])
        acc.observe(["a"])
        assert acc.observe(["a"]) == []
        assert len(acc.matched) == 1

    def test_checkpoints_cross_multiple_budgets(self):
        acc = GuessAccounting({"z"}, [2, 4])
        acc.observe(["a", "b", "c", "d", "e"])
        assert [r.guesses for r in acc.rows] == [2, 4]
        assert acc.done

    def test_stops_counting_after_final_budget(self):
        acc = GuessAccounting({"z"}, [3])
        acc.observe(["a", "b", "c", "d", "e"])
        assert acc.total == 3

    def test_remaining(self):
        acc = GuessAccounting({"z"}, [10])
        acc.observe(["a", "b"])
        assert acc.remaining == 8

    def test_match_percent(self):
        acc = GuessAccounting({"a", "b", "c", "d"}, [4])
        acc.observe(["a", "x", "y", "z"])
        assert acc.rows[0].match_percent == 25.0

    def test_samples_capped(self):
        acc = GuessAccounting(set(), [100])
        acc.observe([f"pw{i}" for i in range(50)])
        assert len(acc.non_matched_samples) == 16

    def test_report_structure(self):
        acc = GuessAccounting({"a"}, [2])
        acc.observe(["a", "b"])
        report = acc.report("TestMethod")
        assert report.method == "TestMethod"
        assert report.test_size == 1
        assert report.rows[0].matched == 1


class TestReport:
    def _report(self):
        return GuessingReport(
            method="m",
            test_size=10,
            rows=[BudgetRow(10, 8, 1, 10.0), BudgetRow(100, 70, 3, 30.0)],
        )

    def test_row_at(self):
        assert self._report().row_at(100).matched == 3

    def test_row_at_missing_raises(self):
        with pytest.raises(KeyError):
            self._report().row_at(55)

    def test_final(self):
        assert self._report().final().guesses == 100

    def test_final_empty_raises(self):
        with pytest.raises(ValueError):
            GuessingReport("m", 1).final()

    def test_budget_row_as_dict(self):
        row = BudgetRow(10, 8, 1, 10.0)
        assert row.as_dict()["unique"] == 8


class TestSampledModelStrategy:
    def test_runs_any_sample_passwords_generator(self):
        class Counterfeit:
            def __init__(self):
                self.n = 0

            def sample_passwords(self, count, rng):
                start = self.n
                self.n += count
                return [f"pw{start + i}" for i in range(count)]

        strategy = SampledModelStrategy(Counterfeit(), "counterfeit", batch_size=4)
        report = AttackEngine({"pw5", "pw999"}, [10]).run(
            strategy, np.random.default_rng(0)
        )
        assert report.method == "counterfeit"
        assert report.rows[0].guesses == 10
        assert report.rows[0].matched == 1  # pw5 seen, pw999 not reached

    def test_runs_trained_model(self, trained_model):
        strategy = SampledModelStrategy(trained_model, "passflow", batch_size=25)
        report = AttackEngine({"love12"}, [50]).run(strategy, np.random.default_rng(0))
        assert report.rows[0].guesses == 50

    def test_invalid_batch_size(self, trained_model):
        with pytest.raises(ValueError):
            SampledModelStrategy(trained_model, "passflow", batch_size=0)

    def test_requires_sample_passwords(self):
        with pytest.raises(TypeError, match="sample_passwords"):
            SampledModelStrategy(object(), "nothing")
