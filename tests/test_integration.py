"""End-to-end integration tests over the session-trained model.

These exercise the complete pipeline -- data synthesis, training, every
sampling strategy, latent operations and reporting -- at tiny scale, and
check the structural invariants that must hold at any scale.
"""

import numpy as np

from repro import AttackEngine, ConditionalGuesser, build, interpolate
from repro.baselines import MarkovModel, PCFGModel
from repro.eval.metrics import plausibility_rate
from repro.flows.priors import StandardNormalPrior


class TestFullPipeline:
    def test_training_reduced_nll(self, trained_model):
        history = trained_model.history
        assert history.nll[-1] < history.nll[0] - 1.0

    def test_flow_exactly_invertible_on_real_passwords(self, trained_model, corpus):
        features = trained_model.encoder.encode_batch(corpus[:64])
        assert trained_model.flow.check_invertibility(features, atol=1e-6) < 1e-6

    def test_all_samplers_produce_consistent_reports(self, trained_model, trained_dataset):
        budgets = [256, 1024]
        test_set = trained_dataset.test_set
        engine = AttackEngine(test_set, budgets)
        specs = [
            "passflow:static?batch=256",
            "passflow:dynamic?alpha=1&batch=256&gamma=2&sigma=0.12",
            "passflow:dynamic+gs?alpha=1&batch=256&gamma=2&sigma=0.12",
        ]
        reports = [
            engine.run(build(spec, model=trained_model), np.random.default_rng(seed))
            for seed, spec in enumerate(specs)
        ]
        for report in reports:
            assert [r.guesses for r in report.rows] == budgets
            for row in report.rows:
                assert 0 <= row.matched <= len(test_set)
                assert 0 < row.unique <= row.guesses
            uniques = [r.unique for r in report.rows]
            assert uniques == sorted(uniques)

    def test_generated_passwords_are_mostly_plausible(self, trained_model):
        prior = StandardNormalPrior(10, sigma=0.7)
        samples = [
            s
            for s in trained_model.sample_passwords(400, rng=np.random.default_rng(3), prior=prior)
            if s
        ]
        # even a tiny model should put most mass on human-like shapes
        assert plausibility_rate(samples) > 0.5

    def test_interpolation_connects_endpoints(self, trained_model):
        path = interpolate(trained_model, "love12", "123456", steps=8)
        assert path[0] == "love12" and path[-1] == "123456"

    def test_conditional_guessing_integrates(self, trained_model):
        guesser = ConditionalGuesser(trained_model, population=32)
        guesses = guesser.guess("love*", rounds=3, top_k=5, rng=np.random.default_rng(4))
        assert all(g.startswith("love") and len(g) == 5 for g in guesses)

    def test_baselines_run_through_same_attack(self, corpus, trained_dataset):
        engine = AttackEngine(trained_dataset.test_set, [512])
        markov_report = engine.run(
            build("markov:2?batch=256", model=MarkovModel(order=2).fit(corpus[:1500])),
            np.random.default_rng(5),
        )
        pcfg_report = engine.run(
            build("pcfg?batch=256", model=PCFGModel().fit(corpus[:1500])),
            np.random.default_rng(6),
        )
        assert markov_report.final().guesses == 512
        assert pcfg_report.final().guesses == 512

    def test_checkpoint_roundtrip_preserves_attack_behaviour(
        self, trained_model, trained_dataset, tmp_path
    ):
        from repro.core.model import PassFlow

        path = trained_model.save(tmp_path / "model.npz")
        restored = PassFlow.load(path)
        engine = AttackEngine(trained_dataset.test_set, [256])
        a = engine.run(
            build("passflow:static?batch=128", model=trained_model),
            np.random.default_rng(7),
        )
        b = engine.run(
            build("passflow:static?batch=128", model=restored),
            np.random.default_rng(7),
        )
        assert a.final().unique == b.final().unique
        assert a.final().matched == b.final().matched
