"""Shared experiment context: scaled corpus and disk-cached trained models.

The paper's experiments share one data pipeline and a handful of trained
models; this module owns both so every table/figure driver (and every
benchmark) reuses identical artifacts.

Scale profiles
--------------
CPU-only numpy cannot run 10^8-guess attacks on a 23.5M-password corpus, so
the harness scales everything down while preserving the relative structure
(DESIGN.md records the substitution).  Three profiles are provided, chosen
via the ``REPRO_BENCH_PROFILE`` environment variable:

* ``tiny``  -- smoke-test scale (used by the test-suite),
* ``quick`` -- the default benchmark scale (minutes on a laptop),
* ``full``  -- the largest practical scale (tens of minutes).

Test-set cleaning at this scale removes the intersection with the *model's
training subset* (the 300K-analog), not the full 80% pool: with only a few
thousand unique passwords in play, full-pool cleaning leaves just singleton
tails and every method degenerates to zero matches (EXPERIMENTS.md
discusses this adaptation).

Trained models are cached under ``.repro_cache/`` keyed by profile + role;
delete the directory to retrain from scratch.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.bank import (
    BANK_DIR_ENV,
    BankError,
    bank_path_for,
    build_bank,
    replay_attack,
    resolve_bank,
)
from repro.baselines import CWAE, CWAEConfig, MarkovModel, PCFGModel, PassGAN, PassGANConfig
from repro.core.guesser import GuessingReport
from repro.core.model import PassFlow, PassFlowConfig
from repro.data.alphabet import Alphabet, compact_alphabet
from repro.data.dataset import PasswordDataset
from repro.data.encoding import PasswordEncoder
from repro.data.synthetic import SyntheticConfig, SyntheticRockYou
from repro.runtime import StrategySource, run_attack
from repro.scenarios import CompositionPolicy
from repro.strategies import AttackEngine, GuessingStrategy, parse_spec, unwrap_spec
from repro.utils.logging import get_logger
from repro.utils.rng import spawn_rng

logger = get_logger("eval.harness")

DEFAULT_CACHE_DIR = Path(".repro_cache")


@dataclass
class BenchmarkSettings:
    """One scale profile of the evaluation."""

    name: str
    corpus_size: int
    train_size: int          # PassFlow's training subset (the 300K analog)
    baseline_train_size: int  # what the GAN/CWAE baselines get (the 23.5M analog)
    test_size: int
    budgets: Tuple[int, ...]
    flow_couplings: int
    flow_hidden: int
    flow_epochs: int
    flow_batch: int
    gan_iterations: int
    cwae_epochs: int
    train_size_sweep: Tuple[int, ...]  # Fig. 4 x-axis
    sweep_epochs: int
    seed: int = 7

    @property
    def guess_budgets(self) -> List[int]:
        return list(self.budgets)


PROFILES: Dict[str, BenchmarkSettings] = {
    "tiny": BenchmarkSettings(
        name="tiny",
        corpus_size=3000,
        train_size=800,
        baseline_train_size=1500,
        test_size=1200,
        budgets=(200, 1000),
        flow_couplings=4,
        flow_hidden=24,
        flow_epochs=4,
        flow_batch=128,
        gan_iterations=40,
        cwae_epochs=4,
        train_size_sweep=(300, 600, 800),
        sweep_epochs=3,
    ),
    "quick": BenchmarkSettings(
        name="quick",
        corpus_size=40000,
        train_size=6000,
        baseline_train_size=20000,
        test_size=20000,
        budgets=(1000, 10000, 100000),
        flow_couplings=10,
        flow_hidden=64,
        flow_epochs=70,
        flow_batch=256,
        gan_iterations=1200,
        cwae_epochs=40,
        train_size_sweep=(1000, 2000, 4000, 6000),
        sweep_epochs=40,
    ),
    "full": BenchmarkSettings(
        name="full",
        corpus_size=100000,
        train_size=10000,
        baseline_train_size=60000,
        test_size=40000,
        budgets=(1000, 10000, 100000),
        flow_couplings=12,
        flow_hidden=96,
        flow_epochs=120,
        flow_batch=512,
        gan_iterations=4000,
        cwae_epochs=80,
        train_size_sweep=(1000, 2500, 5000, 7500, 10000),
        sweep_epochs=60,
    ),
}


#: Named synthetic-corpus variants for cross-corpus experiments: the same
#: generator with shifted composition statistics stands in for "a
#: different leak" (different base-word vocabulary, different suffix
#: habits).  ``default`` is the in-corpus baseline every other pair's
#: transfer delta is measured against; each variant draws from its own
#: named RNG stream (``spawn_rng(seed, "corpus-<name>")``), so adding
#: variants never perturbs the default corpus bytes.
CORPUS_VARIANTS: Dict[str, SyntheticConfig] = {
    "default": SyntheticConfig(vocabulary_size=30, max_suffix_digits=2),
    "narrow": SyntheticConfig(vocabulary_size=18, max_suffix_digits=2),
    "digits": SyntheticConfig(vocabulary_size=30, max_suffix_digits=4),
}


def settings_from_env(default: str = "quick") -> BenchmarkSettings:
    """Resolve the profile from ``REPRO_BENCH_PROFILE``."""
    name = os.environ.get("REPRO_BENCH_PROFILE", default)
    try:
        return PROFILES[name]
    except KeyError:
        raise KeyError(f"unknown profile {name!r}; options: {sorted(PROFILES)}") from None


class EvalContext:
    """Builds and caches the artifacts shared by all experiments."""

    # Dynamic-sampling parameters used at quick/full scale; the Table I
    # schedule targets paper-scale budgets, these are its scaled analog.
    DYNAMIC_ALPHA = 1
    DYNAMIC_SIGMA = 0.12
    DYNAMIC_GAMMA = 2
    STATIC_TEMPERATURE = 0.75

    def __init__(
        self,
        settings: Optional[BenchmarkSettings] = None,
        cache_dir: Path | str = DEFAULT_CACHE_DIR,
        alphabet: Optional[Alphabet] = None,
        workers: Optional[int] = None,
        schedule: Optional[str] = None,
        executor: Optional[str] = None,
        bank_dir: Optional[Path | str] = None,
        target_corpus: Optional[str] = None,
        policy: Optional[CompositionPolicy | str] = None,
    ) -> None:
        self.settings = settings or settings_from_env()
        self.cache_dir = Path(cache_dir)
        self.alphabet = alphabet or compact_alphabet()
        # attack parallelism: explicit argument, else REPRO_ATTACK_WORKERS,
        # else serial (workers=1 keeps every report bit-identical to the
        # seed-era single-process runs)
        if workers is None:
            raw = os.environ.get("REPRO_ATTACK_WORKERS", "1")
            try:
                workers = int(raw)
            except ValueError:
                raise ValueError(
                    f"REPRO_ATTACK_WORKERS must be an integer, got {raw!r}"
                ) from None
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        # shard scheduling: explicit argument, else REPRO_ATTACK_SCHEDULE,
        # else static (the bit-compatible default; "elastic" re-plans dry
        # shards' budgets at checkpoints, see docs/parallel.md)
        if schedule is None:
            schedule = os.environ.get("REPRO_ATTACK_SCHEDULE", "static")
        if schedule not in ("static", "elastic"):
            raise ValueError(
                f"schedule must be 'static' or 'elastic', got {schedule!r}"
            )
        self.schedule = schedule
        # shard executor: explicit argument, else REPRO_ATTACK_EXECUTOR,
        # else "auto" ("processpool" for two or more workers: the
        # fork-server pool, same report bytes as "local" for a fixed
        # seed/workers/schedule, real multi-core throughput for
        # GIL-bound strategies)
        if executor is None:
            executor = os.environ.get("REPRO_ATTACK_EXECUTOR", "auto")
        from repro.runtime import EXECUTOR_NAMES

        if executor not in EXECUTOR_NAMES:
            raise ValueError(
                f"executor must be one of {EXECUTOR_NAMES}, got {executor!r}"
            )
        self.executor = executor
        # guess-bank reuse: explicit argument, else $REPRO_GUESS_BANK, else
        # off.  When set, run_attack banks each deterministic-replayable
        # strategy's stream on first use and replays the mmapped artifact
        # on every later run (table2/3/6 share the same specs), with
        # reports bit-identical to the live serial sampling.
        if bank_dir is None:
            bank_dir = os.environ.get(BANK_DIR_ENV) or None
        self.bank_dir = Path(bank_dir) if bank_dir is not None else None
        # cross-corpus seam: train on the default corpus, attack the
        # named variant's test slice ("train on one leak, attack
        # another"); None keeps the in-corpus evaluation
        if target_corpus is not None and target_corpus not in CORPUS_VARIANTS:
            raise ValueError(
                f"unknown target corpus {target_corpus!r}; "
                f"options: {sorted(CORPUS_VARIANTS)}"
            )
        self.target_corpus = target_corpus
        # composition-policy seam: run_attack wraps every spec as
        # policy(<spec>)?... and the test set keeps only conformant
        # targets, so match rates model a policy-enforcing deployment
        if isinstance(policy, str):
            policy = CompositionPolicy.from_query(policy)
        self.policy = policy
        self._corpus: Optional[List[str]] = None
        self._corpora: Dict[str, List[str]] = {}
        self._dataset: Optional[PasswordDataset] = None
        self._passflow: Dict[str, PassFlow] = {}
        self._passgan: Optional[PassGAN] = None
        self._cwae: Optional[CWAE] = None
        self._markov: Optional[MarkovModel] = None
        self._pcfg: Optional[PCFGModel] = None

    # ------------------------------------------------------------------
    # data
    # ------------------------------------------------------------------
    def synthetic_config(self) -> SyntheticConfig:
        """Tightened generator config (see DESIGN.md scaling notes)."""
        return CORPUS_VARIANTS["default"]

    @property
    def corpus(self) -> List[str]:
        if self._corpus is None:
            rng = spawn_rng(self.settings.seed, "corpus")
            generator = SyntheticRockYou(rng, self.synthetic_config(), self.alphabet)
            self._corpus = generator.generate(self.settings.corpus_size)
        return self._corpus

    def corpus_variant(self, name: Optional[str]) -> List[str]:
        """A named corpus variant (``None``/``"default"`` = the corpus).

        Variants draw from their own ``spawn_rng(seed, "corpus-<name>")``
        stream, so the default corpus -- and with it every seed-era
        report -- stays byte-identical no matter which variants exist.
        """
        if name in (None, "default"):
            return self.corpus
        if name not in CORPUS_VARIANTS:
            raise ValueError(
                f"unknown corpus variant {name!r}; options: {sorted(CORPUS_VARIANTS)}"
            )
        if name not in self._corpora:
            rng = spawn_rng(self.settings.seed, f"corpus-{name}")
            generator = SyntheticRockYou(rng, CORPUS_VARIANTS[name], self.alphabet)
            self._corpora[name] = generator.generate(self.settings.corpus_size)
        return self._corpora[name]

    @property
    def dataset(self) -> PasswordDataset:
        """Train subset + cleaned test set shared by every experiment.

        With ``target_corpus`` set, the test slice comes from the target
        corpus variant while training (and test-set cleaning) stays on
        the training corpus: generalization is measured across the
        distribution shift, and a password leaked in both corpora is
        still a fair target as long as the *model* never saw it.
        """
        if self._dataset is None:
            s = self.settings
            corpus = self.corpus
            train = corpus[: s.train_size]
            target = self.corpus_variant(self.target_corpus)
            test_raw = target[len(target) - s.test_size :]
            model = self.passflow()  # ensures encoder settings match
            self._dataset = PasswordDataset(
                train,
                test_raw,
                model.encoder,
                test_filter=self.policy.conforms if self.policy else None,
            )
        return self._dataset

    @property
    def baseline_train(self) -> List[str]:
        """The larger corpus slice the GAN/CWAE baselines train on."""
        return self.corpus[: self.settings.baseline_train_size]

    @property
    def test_set(self):
        return self.dataset.test_set

    # ------------------------------------------------------------------
    # models (trained lazily, cached on disk)
    # ------------------------------------------------------------------
    def _cache_path(self, role: str) -> Path:
        return self.cache_dir / f"{self.settings.name}-{role}.npz"

    def passflow_config(self, mask_strategy: str = "char-run-1", seed: int = 1) -> PassFlowConfig:
        s = self.settings
        return PassFlowConfig(
            alphabet_chars=self.alphabet.chars,
            num_couplings=s.flow_couplings,
            hidden=s.flow_hidden,
            batch_size=s.flow_batch,
            epochs=s.flow_epochs,
            mask_strategy=mask_strategy,
            seed=seed,
        )

    def passflow(self, mask_strategy: str = "char-run-1") -> PassFlow:
        """The main PassFlow model (or a mask-strategy variant, Table VI)."""
        if mask_strategy in self._passflow:
            return self._passflow[mask_strategy]
        path = self._cache_path(f"passflow-{mask_strategy}")
        if path.exists():
            logger.info("loading cached PassFlow (%s) from %s", mask_strategy, path)
            model = PassFlow.load(path)
        else:
            model = PassFlow(self.passflow_config(mask_strategy))
            train = self.corpus[: self.settings.train_size]
            logger.info(
                "training PassFlow (%s): %d passwords, %d epochs",
                mask_strategy,
                len(train),
                self.settings.flow_epochs,
            )
            model.fit(PasswordDataset(train, [], model.encoder))
            model.save(path)
        self._passflow[mask_strategy] = model
        return model

    def passflow_for_train_size(self, train_size: int) -> PassFlow:
        """A sweep model for Fig. 4 (own cache entry per size)."""
        if train_size > len(self.corpus):
            raise ValueError("train_size exceeds corpus")
        path = self._cache_path(f"passflow-n{train_size}")
        if path.exists():
            return PassFlow.load(path)
        config = self.passflow_config(seed=100 + train_size)
        config.epochs = self.settings.sweep_epochs
        model = PassFlow(config)
        model.fit(PasswordDataset(self.corpus[:train_size], [], model.encoder))
        model.save(path)
        return model

    def passgan(self) -> PassGAN:
        if self._passgan is None:
            path = self._cache_path("passgan")
            if path.exists():
                self._passgan = PassGAN.load(path)
            else:
                s = self.settings
                config = PassGANConfig(
                    alphabet_chars=self.alphabet.chars,
                    hidden=96,
                    iterations=s.gan_iterations,
                    seed=2,
                )
                model = PassGAN(config)
                logger.info("training PassGAN: %d iterations", s.gan_iterations)
                model.fit(self.baseline_train)
                model.save(path)
                self._passgan = model
        return self._passgan

    def cwae(self) -> CWAE:
        if self._cwae is None:
            path = self._cache_path("cwae")
            if path.exists():
                self._cwae = CWAE.load(path)
            else:
                s = self.settings
                config = CWAEConfig(
                    alphabet_chars=self.alphabet.chars,
                    latent_dim=48,
                    hidden=96,
                    epochs=s.cwae_epochs,
                    seed=3,
                )
                model = CWAE(config)
                logger.info("training CWAE: %d epochs", s.cwae_epochs)
                model.fit(self.baseline_train)
                model.save(path)
                self._cwae = model
        return self._cwae

    def markov(self) -> MarkovModel:
        if self._markov is None:
            self._markov = MarkovModel(order=3).fit(self.baseline_train)
        return self._markov

    def pcfg(self) -> PCFGModel:
        if self._pcfg is None:
            self._pcfg = PCFGModel().fit(self.baseline_train)
        return self._pcfg

    # ------------------------------------------------------------------
    # guessing strategies (spec strings resolved against cached artifacts)
    # ------------------------------------------------------------------
    def engine(self) -> AttackEngine:
        """A streaming attack engine over this context's test set/budgets."""
        return AttackEngine(self.test_set, self.settings.guess_budgets)

    def resolve_model(self, spec: str):
        """The cached artifact a spec resolves against (None for fit-on-demand).

        Wrapper specs (``policy(...)``/``mangle(...)``) resolve against
        their innermost spec's artifact.
        """
        parsed = unwrap_spec(spec)
        if parsed.family == "passflow":
            return self.passflow()
        if parsed.family == "passgan":
            return self.passgan()
        if parsed.family == "cwae":
            return self.cwae()
        if parsed.family == "markov" and parsed.variant in (None, "3"):
            return self.markov()
        if parsed.family == "pcfg":
            return self.pcfg()
        return None

    def scenario_spec(self, spec: str) -> str:
        """The spec :meth:`run_attack` actually streams.

        With a context ``policy`` set, plain specs are wrapped as
        ``policy(<spec>)?...`` so the guess stream is pre-image filtered
        to the same slice the test set was; specs already policy-wrapped
        pass through untouched.
        """
        if self.policy is None:
            return spec
        parsed = parse_spec(spec)
        if parsed.family == "policy":
            return parsed.canonical()
        return self.policy.wrap(spec)

    def strategy(self, spec: str, model=None) -> GuessingStrategy:
        """Build a strategy spec using this context's trained artifacts.

        ``passflow:*`` specs resolve against the main cached PassFlow;
        baseline specs reuse the cached baseline when it matches the spec
        and otherwise fit a fresh model on ``baseline_train``.  Pass
        ``model`` to pin a specific artifact (e.g. a Table VI mask
        variant).
        """
        return self.strategy_source(spec, model=model).build()

    def strategy_source(self, spec: str, model=None) -> StrategySource:
        """The spec as a rebuildable recipe (what shard workers consume)."""
        return StrategySource(
            spec,
            model=model if model is not None else self.resolve_model(spec),
            corpus=self.baseline_train,
            alphabet=self.alphabet,
        )

    def _run_banked(
        self,
        spec: str,
        label: str,
        method: Optional[str],
        source: StrategySource,
        workers: int,
        schedule: str,
    ) -> Optional[GuessingReport]:
        """Replay ``spec`` from ``bank_dir``, banking it first on a miss.

        Returns ``None`` when the spec is not deterministic-replayable
        (feedback-driven strategies must sample live) or when banking
        fails, so ``run_attack`` falls back to the live path.  The bank's
        identity key pins ``(canonical spec, seed, rng label, alphabet)``
        to the *serial* live run -- ``spawn_rng(seed, "attack-{label}")``
        -- so replays under any fleet shape reproduce that run's report
        bit for bit.
        """
        strategy = source.build()
        if not getattr(strategy, "replayable", False):
            return None
        canonical = parse_spec(spec).canonical()
        rng_label = f"attack-{label}"
        budgets = self.settings.guess_budgets
        seed = self.settings.seed
        bank = resolve_bank(
            self.bank_dir, canonical, seed, rng_label, self.alphabet.chars
        )
        if bank is None or bank.total < budgets[-1]:
            path = bank_path_for(
                self.bank_dir, canonical, seed, rng_label, self.alphabet.chars
            )
            try:
                bank = build_bank(
                    strategy,
                    budgets[-1],
                    path,
                    seed=seed,
                    rng_label=rng_label,
                    encoder=PasswordEncoder(self.alphabet),
                )
            except BankError as exc:
                logger.warning(
                    "cannot bank %s (%s); sampling live instead", canonical, exc
                )
                return None
            logger.info("banked %s: %d guesses at %s", canonical, bank.total, bank.path)
        else:
            logger.info("replaying %s from %s", canonical, bank.path)
        return replay_attack(
            bank,
            self.test_set,
            budgets,
            workers=workers,
            schedule=schedule,
            seed=seed,
            executor=self.executor,
            method=method,
        )

    def run_attack(
        self,
        spec: str,
        label: str,
        method: Optional[str] = None,
        model=None,
        workers: Optional[int] = None,
        schedule: Optional[str] = None,
    ) -> GuessingReport:
        """One seeded attack run: build the spec, stream it to completion.

        ``workers`` and ``schedule`` default to the context's settings.
        The serial path (``workers=1`` with the static schedule)
        reproduces seed-era reports bit-identically; otherwise the budgets
        shard through a :class:`~repro.runtime.ParallelAttackEngine`
        (deterministic for a fixed ``(seed, workers, schedule)``, with
        per-shard -- per-chunk, under ``schedule="elastic"`` -- RNG
        streams derived from ``attack-{label}``).  Shards account in
        interned-id key space when the strategy streams index-matrix
        batches, shipping checkpoint deltas as packed uint64 arrays rather
        than string lists, so large parallel table runs stay queue-cheap;
        the elastic schedule additionally re-plans dry shards' budgets at
        checkpoints (see ``docs/parallel.md``).

        With ``bank_dir`` set (or ``$REPRO_GUESS_BANK``),
        deterministic-replayable specs are banked once and replayed from
        the mmapped artifact on every later run -- reports bit-identical
        to the serial live sampling regardless of fleet shape (see
        ``docs/bank.md``).
        """
        workers = self.workers if workers is None else workers
        schedule = self.schedule if schedule is None else schedule
        spec = self.scenario_spec(spec)
        source = self.strategy_source(spec, model=model)
        if self.bank_dir is not None:
            report = self._run_banked(spec, label, method, source, workers, schedule)
            if report is not None:
                return report
        # method=None lets the strategies name the report (e.g.
        # "Markov-3", not "markov:3") on either path
        return run_attack(
            source,
            self.test_set,
            self.settings.guess_budgets,
            seed=self.settings.seed,
            label=f"attack-{label}",
            workers=workers,
            schedule=schedule,
            executor=self.executor,
            method=method,
        )

    # ------------------------------------------------------------------
    def attack_rng(self, label: str) -> np.random.Generator:
        """Seeded generator for one attack run."""
        return spawn_rng(self.settings.seed, f"attack-{label}")
