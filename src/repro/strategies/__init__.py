"""Unified guessing-strategy API: protocol, registry and streaming engine.

One composable surface over every guess generator in the repository --
the four PassFlow modes (static, dynamic, dynamic+GS, conditional) and the
five baselines (PassGAN, CWAE, Markov, PCFG, rules):

* :class:`GuessingStrategy` / :class:`GuessBatch` -- the lazy-producer
  protocol every strategy implements (:mod:`repro.strategies.base`),
* :func:`build` / :func:`parse_spec` / :func:`register` -- the string-spec
  registry (``build("passflow:dynamic+gs?alpha=1&sigma=0.12", model=m)``,
  ``build("markov:3", corpus=train)``),
* :class:`AttackEngine` -- streaming, budget-checkpointed, resumable
  attack driver producing :class:`~repro.core.guesser.GuessingReport`
  rows,
* :func:`take` -- attack-free sampling from any strategy.

Typical use::

    from repro.strategies import AttackEngine, build

    strategy = build("passflow:dynamic+gs?alpha=1&sigma=0.12", model=model)
    engine = AttackEngine(test_set, budgets=[10**4, 10**5])
    report = engine.run(strategy, rng)

Importing this package registers all nine families and defines every
strategy class without loading a model: factories import their models.
"""

import importlib

from repro.strategies.base import AttackContext, GuessBatch, GuessingStrategy
from repro.strategies.engine import AttackEngine, AttackState, take
from repro.strategies.registry import (
    BuildResources,
    SpecError,
    StrategySpec,
    available_strategies,
    build,
    format_spec,
    parse_spec,
    register,
    strategy_catalog,
    unwrap_spec,
)
from repro.utils.lazy import lazy_exports

# importing the implementation modules registers every family and defines
# every strategy class; they import models inside the factories
for _module in (
    ".passflow",
    ".baselines",
    "..bank.replay",
    "..scenarios.policy",
    "..scenarios.mangle",
):
    importlib.import_module(_module, __name__)

from repro.strategies.baselines import SampledModelStrategy  # noqa: E402
from repro.strategies.passflow import (  # noqa: E402
    ConditionalStrategy,
    DynamicStrategy,
    StaticStrategy,
)

# a module outside this package may be what is importing it: read its
# classes on first use, not while it is half-initialised
__getattr__, __dir__, _ = lazy_exports(
    __name__,
    {
        "..bank.replay": ["BankReplayStrategy"],
        "..scenarios.policy": ["CompositionPolicy", "PolicyFilterStrategy"],
        "..scenarios.mangle": ["MangleStrategy"],
    },
)

__all__ = [
    "AttackContext",
    "AttackEngine",
    "AttackState",
    "BankReplayStrategy",
    "BuildResources",
    "CompositionPolicy",
    "ConditionalStrategy",
    "DynamicStrategy",
    "GuessBatch",
    "GuessingStrategy",
    "MangleStrategy",
    "PolicyFilterStrategy",
    "SampledModelStrategy",
    "SpecError",
    "StaticStrategy",
    "StrategySpec",
    "available_strategies",
    "build",
    "format_spec",
    "parse_spec",
    "register",
    "strategy_catalog",
    "take",
    "unwrap_spec",
]
