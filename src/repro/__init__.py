"""PassFlow reproduction: password guessing with generative flows.

A from-scratch (numpy-only) reproduction of *PassFlow: Guessing Passwords
with Generative Flows* (DSN 2022), including the full deep-learning
substrate, the flow architecture, the sampling strategies (static, Dynamic
Sampling with Penalization, Gaussian Smoothing), latent-space operations
(interpolation, neighbourhood exploration, conditional guessing), the
baselines the paper compares against, and an evaluation harness that
regenerates every table and figure of the paper.

Every guess generator -- the four PassFlow modes and the five baselines --
implements one :class:`~repro.strategies.GuessingStrategy` protocol and is
constructible from a spec string; attacks stream through the
:class:`~repro.strategies.AttackEngine` with constant memory, budget
checkpoints and resumable state.

Quickstart::

    import numpy as np
    from repro import AttackEngine, PassFlow, PassFlowConfig, build
    from repro.data import PasswordDataset, SyntheticRockYou

    rng = np.random.default_rng(0)
    corpus = SyntheticRockYou(rng).generate(5000)
    model = PassFlow(PassFlowConfig.small())
    dataset = PasswordDataset(corpus[:4000], corpus[4000:], model.encoder)
    model.fit(dataset, epochs=10)

    # any strategy from a spec string: "passflow:static", "markov:3", ...
    strategy = build("passflow:dynamic+gs?alpha=1&sigma=0.12", model=model)
    engine = AttackEngine(dataset.test_set, budgets=[1000, 10000])
    report = engine.run(strategy, rng)
    print(report.final().match_percent)

The same spec strings drive the CLI::

    python -m repro attack --model model.npz --corpus corpus.txt \\
        --strategy "passflow:dynamic+gs?alpha=1&sigma=0.12"
    python -m repro attack --corpus corpus.txt --strategy markov:3
"""

from repro.core import (
    ConditionalGuesser,
    DynamicSamplingConfig,
    GaussianSmoother,
    GuessingReport,
    PassFlow,
    PassFlowConfig,
    StepPenalization,
    interpolate,
    paper_schedule,
)
from repro.strategies import (
    AttackEngine,
    AttackState,
    GuessBatch,
    GuessingStrategy,
    available_strategies,
    build,
    parse_spec,
    take,
)

__version__ = "1.1.0"

__all__ = [
    "PassFlow",
    "PassFlowConfig",
    "DynamicSamplingConfig",
    "GaussianSmoother",
    "StepPenalization",
    "GuessingReport",
    "ConditionalGuesser",
    "interpolate",
    "paper_schedule",
    # unified strategy API
    "AttackEngine",
    "AttackState",
    "GuessBatch",
    "GuessingStrategy",
    "available_strategies",
    "build",
    "parse_spec",
    "take",
    "__version__",
]
