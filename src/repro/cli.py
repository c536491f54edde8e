"""Command-line interface.

Every workflow in the library is reachable from the shell::

    python -m repro synthesize --count 20000 --out corpus.txt
    python -m repro train --corpus corpus.txt --train-size 5000 \
        --epochs 40 --holdout 0.1 --out model.npz
    python -m repro sample --model model.npz --count 20
    python -m repro attack --model model.npz --corpus corpus.txt \
        --strategy "passflow:dynamic+gs?alpha=1&sigma=0.12" --budgets 1000,10000
    python -m repro attack --corpus corpus.txt --strategy markov:3 \
        --workers 4 --report report.json
    python -m repro bank build --strategy markov:3 --corpus corpus.txt \
        --budget 50000 --out markov3.bank
    python -m repro attack --bank markov3.bank --corpus corpus.txt \
        --workers 2 --budgets 1000,10000
    python -m repro attack --corpus corpus.txt --target-corpus other.txt \
        --strategy "mangle(markov:3)?rules=leet,append_year" \
        --policy "min_len=6&classes=ld"
    python -m repro scenarios --specs markov:3,pcfg
    python -m repro strategies --bankable
    python -m repro interpolate --model model.npz jimmy91 123456
    python -m repro conditional --model model.npz "love**"
    python -m repro strength --model model.npz --corpus corpus.txt love12 x9$kQ
    python -m repro serve --spec "strength?model=model.npz&corpus=corpus.txt" \
        --spec bank:markov3.bank --socket /tmp/repro.sock
    python -m repro experiments --markdown results.md

``attack`` and ``sample`` name their strategy only by a registry spec
string (``repro strategies`` lists the families), which ``build`` turns
into the strategy; the spec carries every strategy parameter.  ``attack``
defaults to the paper's Dynamic Sampling with Gaussian Smoothing,
``passflow:dynamic+gs?alpha=1&gamma=2&sigma=0.12``, and ``sample`` to
``passflow:static?temperature=0.75``.  Wrapper specs compose:
``policy(<spec>)?min_len=8&classes=lud`` filters a stream to a
composition policy (``attack --policy`` is shorthand and also restricts
the attacked test set), ``mangle(<spec>)?rules=leet,append_year``
expands each guess through deterministic mangling rules, and ``attack
--target-corpus`` attacks a second file's test half with models trained
on ``--corpus`` -- ``repro scenarios`` enumerates the full matrix; see
``docs/scenarios.md``.

``attack --workers N`` shards the guess budgets across N processes
(deterministic for a fixed seed, worker count and schedule;
``--workers 1``, the default, reproduces seed-era reports
bit-identically), ``attack --schedule elastic`` switches to chunked
rounds with checkpoint re-planning (dry or crashed shards release their
unconsumed budget back to the fleet at checkpoints), ``attack
--executor`` picks where shards run (``auto``, the default, uses the
fork-server process pool for two or more workers; ``local`` runs them
in-process with the same report bytes), and ``attack --report
out.json`` writes the full machine-readable GuessingReport next to the
stdout table.  Shard workers account in interned-id key space whenever
the strategy streams index-matrix batches, so checkpoint deltas cross the
worker queue as packed uint64 arrays; see ``docs/parallel.md`` for the
sharding model and how to pick ``--workers`` and ``--schedule``.

``bank build`` materializes a strategy's ranked guess stream once as a
memory-mapped artifact of packed uint64 keys, ``bank info``/``bank
verify`` inspect and check one, and ``attack --bank path.bank`` replays
it -- bit-identical to the live-sampled run for fixed ``(seed,
budgets)`` across worker counts and schedules; see ``docs/bank.md``.

``serve`` runs the strength-audit daemon: warm models behind a
micro-batching scheduler, NDJSON requests over a local socket (or
``--once`` for stdin/stdout), rank lookups against guess banks, and a
``stats`` endpoint; SIGTERM drains in-flight batches and exits 0.  See
``docs/serve.md`` for the protocol and the determinism contract.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path
from typing import List, Optional

import numpy as np

from repro import kernels
from repro.core.guesser import validate_budgets
from repro.data.alphabet import compact_alphabet, default_alphabet
from repro.data.dataset import PasswordDataset
from repro.data.encoding import PasswordEncoder
from repro.data.rockyou import load_password_file
from repro.eval.reporting import format_table
from repro.strategies import (
    SpecError,
    available_strategies,
    build,
    parse_spec,
    strategy_catalog,
    take,
    unwrap_spec,
)
from repro.utils.logging import enable_console_logging
from repro.utils.progress import ProgressReporter
from repro.utils.text import _clip


def _alphabet(name: str):
    if name == "compact":
        return compact_alphabet()
    if name == "default":
        return default_alphabet()
    raise SystemExit(f"unknown alphabet {name!r} (compact|default)")


def _read_corpus(path: str, alphabet) -> List[str]:
    """The usable passwords in ``path``, or exit with one line.

    A corpus the Sec. IV-D filter empties is a usage error: there is
    nothing to train on, clean against or attack.
    """
    try:
        corpus = load_password_file(path, alphabet=alphabet)
    except OSError as exc:
        raise SystemExit(f"cannot read corpus {_clip(path)}: {exc.strerror or _clip(exc)}")
    if not corpus:
        raise SystemExit(
            f"no usable password in {_clip(path)}: every line is empty, longer "
            "than 10 characters or outside the alphabet"
        )
    return corpus


def _load_model(path: str):
    """The PassFlow checkpoint at ``path`` (the model code loads here).

    Its kernel backend loads here too, in the parent, so the workers of a
    sharded attack inherit it through the fork.
    """
    from repro.core.model import ModelLoadError, PassFlow

    try:
        model = PassFlow.load(path)
    except ModelLoadError as exc:
        raise SystemExit(str(exc))
    kernels.active()
    return model


def _open_bank(path: str):
    """The guess bank at ``path``, or exit with its one-line error."""
    from repro.bank import BankError, GuessBank

    try:
        return GuessBank.open(path)
    except BankError as exc:
        raise SystemExit(str(exc))


def _destination(raw: str, what: str, parents: bool = False, directory: bool = False) -> Path:
    """``raw`` as a place to write ``what`` to, or exit with one line.

    Checked before the command's work starts: missing parent directories
    are made when ``parents`` (as the writer makes them), then the file
    (or ``directory``) is opened or made -- and removed again if this
    made it -- so a destination the writer could not use fails at once,
    with the system's reason.
    """
    path = Path(raw)
    try:
        if parents:
            path.parent.mkdir(parents=True, exist_ok=True)
        fresh = not path.exists()
        if directory:
            path.mkdir(exist_ok=True)
        else:
            path.open("a").close()
        if fresh and directory:
            path.rmdir()
        elif fresh:
            path.unlink()
    except OSError as exc:
        raise SystemExit(f"cannot write {what} to {_clip(path)}: {exc.strerror or _clip(exc)}")
    return path


def _parse_budgets(raw: str) -> List[int]:
    """Parse and validate a ``--budgets`` comma list (SystemExit on misuse)."""
    try:
        budgets = sorted(int(b) for b in raw.split(",") if b.strip())
    except ValueError:
        raise SystemExit("--budgets must be comma-separated integers")
    try:
        validate_budgets(budgets)
    except ValueError as exc:
        raise SystemExit(f"--budgets: {exc}")
    return budgets


def _emit_attack_report(report, args, budgets: List[int], described: str) -> None:
    """Shared ``attack`` tail: stdout table, shard warnings, JSON report."""
    rows = [
        [row.guesses, row.unique, row.matched, round(row.match_percent, 2)]
        for row in report.rows
    ]
    print(f"method: {report.method}")
    print(format_table(["guesses", "unique", "matched", "% of test"], rows))
    for error in report.shard_errors:
        print(
            f"warning: {error} (its budget was re-absorbed by the surviving shards)",
            file=sys.stderr,
        )
    if args.report:
        payload = report.as_dict()
        payload["budgets"] = budgets
        payload["seed"] = args.seed
        payload["workers"] = args.workers
        payload["schedule"] = args.schedule
        payload["executor"] = getattr(args, "executor", None) or "auto"
        payload["blas"] = kernels.blas.describe()
        if payload["blas"]["threads"] is None:
            print(
                "note: BLAS thread count unmanaged (no known OpenBLAS symbol found)",
                file=sys.stderr,
            )
        payload["strategy"] = described
        payload["policy"] = getattr(args, "policy", None)
        payload["target_corpus"] = getattr(args, "target_corpus", None)
        out = Path(args.report)
        out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"report written to {out}")


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def cmd_synthesize(args) -> int:
    from repro.data.synthetic import SyntheticConfig, SyntheticRockYou

    alphabet = _alphabet(args.alphabet)
    out = _destination(args.out, "corpus")
    config = SyntheticConfig(
        vocabulary_size=args.vocabulary_size, max_suffix_digits=args.max_suffix_digits
    )
    generator = SyntheticRockYou(np.random.default_rng(args.seed), config, alphabet)
    corpus = generator.generate(args.count)
    out.write_text("\n".join(corpus) + "\n")
    print(f"wrote {len(corpus)} passwords to {out}")
    return 0


def cmd_train(args) -> int:
    from repro.core.model import PassFlow, PassFlowConfig

    alphabet = _alphabet(args.alphabet)
    corpus = _read_corpus(args.corpus, alphabet)
    _destination(args.out, "model", parents=True)
    if args.train_size and args.train_size < len(corpus):
        corpus = corpus[: args.train_size]
    if not 0.0 <= args.holdout < 1.0:
        raise SystemExit("--holdout must be a fraction in [0, 1)")
    validation: Optional[List[str]] = None
    if args.holdout > 0.0:
        holdout_size = int(len(corpus) * args.holdout)
        if holdout_size < 1:
            raise SystemExit(
                f"--holdout {args.holdout} of {len(corpus)} passwords is empty; "
                "use a larger corpus or fraction"
            )
        # sample the holdout uniformly (seeded): leak files are typically
        # frequency-sorted, so a tail slice would validate only on rare
        # passwords and skew best-epoch selection
        held = set(
            np.random.default_rng(args.seed).choice(
                len(corpus), size=holdout_size, replace=False
            )
        )
        validation = [p for i, p in enumerate(corpus) if i in held]
        corpus = [p for i, p in enumerate(corpus) if i not in held]
    config = PassFlowConfig(
        alphabet_chars=alphabet.chars,
        num_couplings=args.couplings,
        hidden=args.hidden,
        batch_size=args.batch_size,
        epochs=args.epochs,
        mask_strategy=args.mask,
        learning_rate=args.lr,
        seed=args.seed,
    )
    model = PassFlow(config)
    held = f", {len(validation)} held out" if validation else ""
    print(f"training on {len(corpus)} passwords ({args.epochs} epochs{held})...")
    history = model.fit(
        PasswordDataset(corpus, [], model.encoder),
        verbose=True,
        validation=validation,
        keep_best=validation is not None,  # Sec. IV-D: save the best epoch
    )
    path = model.save(args.out)
    summary = f"final NLL {history.nll[-1]:.3f}"
    if history.val_nll:
        summary += (
            f"; val NLL {history.val_nll[-1]:.3f}"
            f" (saved best epoch {history.best_epoch + 1})"
        )
    print(f"{summary}; checkpoint saved to {path}")
    return 0


def cmd_sample(args) -> int:
    model = _load_model(args.model)
    try:
        strategy = build(args.strategy, model=model)
    except SpecError as exc:
        raise SystemExit(str(exc))
    for sample in take(strategy, args.count, np.random.default_rng(args.seed)):
        print(sample)
    return 0


def _attack_from_bank(args) -> int:
    """``attack --bank``: replay a prebuilt artifact instead of sampling."""
    from repro.bank import BankError, replay_attack

    bank = _open_bank(args.bank)
    alphabet = bank.codec.alphabet
    corpus = _read_corpus(args.corpus, alphabet)
    # same train/test split and cleaning as the live attack path, through
    # the bank's own codec, so replay targets match the live run's exactly
    split = int(len(corpus) * 0.5)
    train_half = corpus[:split] or corpus
    dataset = PasswordDataset(train_half, corpus[split:], bank.codec)
    test_set = dataset.test_set
    budgets = _parse_budgets(args.budgets)
    if budgets[-1] > bank.total:
        raise SystemExit(
            f"bank {_clip(bank.path)} holds {bank.total} guesses; "
            f"largest budget {budgets[-1]} cannot be replayed"
        )
    workers = "" if args.workers == 1 else f" across {args.workers} workers"
    elastic = "" if args.schedule == "static" else f" ({args.schedule} schedule)"
    print(
        f"attacking {len(test_set)} cleaned targets by replaying "
        f"{bank.path} ({bank.method}, {bank.total} banked guesses), "
        f"budgets {budgets}{workers}{elastic}"
    )
    progress = ProgressReporter(total=budgets[-1], label="attack")
    try:
        report = replay_attack(
            bank,
            test_set,
            budgets,
            workers=args.workers,
            schedule=args.schedule,
            seed=args.seed,
            executor=args.executor,
            progress=progress,
        )
    except BankError as exc:
        raise SystemExit(str(exc))
    _emit_attack_report(report, args, budgets, bank.replay_spec())
    return 0


def _parse_policy(args):
    """Resolve ``--policy`` (a bare query like ``min_len=8&classes=ld``)."""
    if not getattr(args, "policy", None):
        return None
    from repro.scenarios import CompositionPolicy

    try:
        return CompositionPolicy.from_query(args.policy)
    except (SpecError, ValueError) as exc:
        raise SystemExit(f"--policy: {exc}")


def cmd_attack(args) -> int:
    from repro.runtime import StrategySource, resolve_executor, run_attack

    if args.workers < 1:
        raise SystemExit("--workers must be >= 1")
    try:
        # an --executor the platform cannot honor fails before any work;
        # resolved for one worker, so an ``auto`` fork fallback warns only
        # once, when the run builds its own executor
        resolve_executor(args.executor, 1)
    except ValueError as exc:
        raise SystemExit(str(exc))
    if args.report:
        _destination(args.report, "report")
    policy = _parse_policy(args)
    if args.bank:
        if policy is not None:
            raise SystemExit(
                "--policy does not combine with --bank; replay the artifact "
                "through the spec grammar instead: "
                "--strategy 'policy(bank:<path>)?min_len=8'"
            )
        return _attack_from_bank(args)
    spec = args.strategy
    if policy is not None:
        spec = policy.wrap(spec)
    try:
        parsed = parse_spec(spec)
        innermost = unwrap_spec(parsed)
    except SpecError as exc:
        raise SystemExit(str(exc))
    model = _load_model(args.model) if args.model else None
    if innermost.family == "passflow" and model is None:
        raise SystemExit("passflow strategies need --model <checkpoint.npz>")
    alphabet = model.alphabet if model is not None else _alphabet(args.alphabet)
    encoder = (
        model.encoder if model is not None else PasswordEncoder(alphabet)
    )
    corpus = _read_corpus(args.corpus, alphabet)
    split = int(len(corpus) * 0.5)
    train_half = corpus[:split] or corpus
    # cross-corpus attacks: train (and clean) against --corpus, target the
    # test half of --target-corpus — "train on one leak, attack another"
    if args.target_corpus:
        target = _read_corpus(args.target_corpus, alphabet)
        target_split = int(len(target) * 0.5)
        test_raw = target[target_split:] or target
    else:
        test_raw = corpus[split:]
    dataset = PasswordDataset(
        train_half,
        test_raw,
        encoder,
        test_filter=policy.conforms if policy else None,
    )
    test_set = dataset.test_set
    budgets = _parse_budgets(args.budgets)

    source = StrategySource(spec, model=model, corpus=train_half, alphabet=alphabet)
    try:
        strategy = source.build()
    except SpecError as exc:
        raise SystemExit(str(exc))
    described = strategy.describe()
    workers = "" if args.workers == 1 else f" across {args.workers} workers"
    elastic = "" if args.schedule == "static" else f" ({args.schedule} schedule)"
    print(
        f"attacking {len(test_set)} cleaned targets with {described}, "
        f"budgets {budgets}{workers}{elastic}"
    )
    progress = ProgressReporter(total=budgets[-1], label="attack")
    try:
        report = run_attack(
            source.pin(strategy),
            test_set,
            budgets,
            seed=args.seed,
            workers=args.workers,
            schedule=args.schedule,
            executor=args.executor,
            method=strategy.name,
            progress=progress,
        )
    except SpecError as exc:
        raise SystemExit(str(exc))

    _emit_attack_report(report, args, budgets, described)
    return 0


def cmd_bank_build(args) -> int:
    """``bank build``: materialize a strategy's stream into an artifact.

    Mirrors ``attack``'s model/alphabet/corpus-train-half resolution so
    the banked stream is the one a live attack with the same flags would
    sample.
    """
    from repro.bank import BankError, build_bank

    try:
        parsed = parse_spec(args.strategy)
    except SpecError as exc:
        raise SystemExit(str(exc))
    _destination(args.out, "bank", parents=True, directory=True)
    model = _load_model(args.model) if args.model else None
    if unwrap_spec(parsed).family == "passflow" and model is None:
        raise SystemExit("passflow strategies need --model <checkpoint.npz>")
    alphabet = model.alphabet if model is not None else _alphabet(args.alphabet)
    encoder = model.encoder if model is not None else PasswordEncoder(alphabet)
    train_half: Optional[List[str]] = None
    if args.corpus:
        corpus = _read_corpus(args.corpus, alphabet)
        split = int(len(corpus) * 0.5)
        train_half = corpus[:split] or corpus
    try:
        strategy = build(
            parsed, model=model, corpus=train_half, alphabet=alphabet
        )
    except SpecError as exc:
        raise SystemExit(str(exc))
    progress = ProgressReporter(total=args.budget, label="bank")
    try:
        bank = build_bank(
            strategy,
            args.budget,
            args.out,
            seed=args.seed,
            rng_label=args.rng_label,
            encoder=encoder,
            force=args.force,
            progress=progress,
        )
    except BankError as exc:
        raise SystemExit(str(exc))
    print(
        f"banked {bank.total} guesses ({bank.unique} unique) from "
        f"{bank.spec} into {bank.path}"
    )
    print(f"replay with: attack --bank {bank.path}  (or spec {bank.replay_spec()!r})")
    return 0


def cmd_bank_info(args) -> int:
    """``bank info``: print an artifact's manifest summary."""
    for line in _open_bank(args.path).describe_lines():
        print(line)
    return 0


def cmd_bank_verify(args) -> int:
    """``bank verify``: integrity-check an artifact (exit 1 on problems)."""
    bank = _open_bank(args.path)
    problems = bank.verify()
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}")
        return 1
    print(
        f"ok: {bank.path} ({bank.total} guesses, {bank.unique} unique, "
        f"sha256 and key canonicality verified)"
    )
    return 0


def cmd_strategies(args) -> int:
    if args.bankable:
        rows = [
            [family, summary, bankable]
            for family, (summary, bankable) in strategy_catalog().items()
        ]
        print(format_table(["family", "description", "bankable"], rows))
    else:
        rows = [
            [family, summary] for family, summary in available_strategies().items()
        ]
        print(format_table(["family", "description"], rows))
    print(
        "\nspec grammar: family[:variant][?key=value&...]   e.g. "
        "passflow:dynamic+gs?alpha=1&sigma=0.12, markov:3, rules?wordlist=300"
        "\nwrapper form: family(inner)[?key=value&...]      e.g. "
        "policy(markov:3)?min_len=8&classes=lud, mangle(pcfg)?rules=leet"
    )
    return 0


def cmd_scenarios(args) -> int:
    """``scenarios``: enumerate the scenario matrix (docs/scenarios.md)."""
    from repro.data.mangling import DETERMINISTIC_RULES, STOCHASTIC_RULES
    from repro.eval.harness import CORPUS_VARIANTS
    from repro.scenarios import CompositionPolicy

    specs = [s.strip() for s in args.specs.split(",") if s.strip()]
    # an empty policy entry is the unconstrained column
    policies = [q.strip() for q in args.policies.split(";")]
    corpora = [c.strip() for c in args.corpora.split(",") if c.strip()]
    for name in corpora:
        if name not in CORPUS_VARIANTS:
            raise SystemExit(
                f"unknown corpus variant {name!r} "
                f"(have: {', '.join(sorted(CORPUS_VARIANTS))})"
            )

    rows = []
    for spec in specs:
        try:
            base = parse_spec(spec).canonical()
        except SpecError as exc:
            raise SystemExit(str(exc))
        for query in policies:
            try:
                policy = CompositionPolicy.from_query(query) if query else None
            except (SpecError, ValueError) as exc:
                raise SystemExit(f"policy {query!r}: {exc}")
            cell_spec = policy.wrap(base) if policy else base
            for corpus in corpora:
                rows.append([cell_spec, "default", corpus, query or "-"])
    print(format_table(["attack spec", "train", "target", "policy"], rows))
    print(
        f"\n{len(rows)} cells = {len(specs)} spec(s) x {len(policies)} "
        f"policy column(s) x {len(corpora)} target corpus(es)"
    )
    print("policy grammar: min_len=<n>&max_len=<n>&classes=[luds]+&deny=w1,w2")
    print(
        "mangle rules:   deterministic "
        + ", ".join(DETERMINISTIC_RULES)
        + " | stochastic "
        + ", ".join(STOCHASTIC_RULES)
    )
    print(
        "run one cell:   repro attack --corpus train.txt --target-corpus "
        "other.txt --strategy <spec> --policy '<query>'"
    )
    print("run the matrix: python -m repro.eval.experiments.cross_corpus")
    return 0


def cmd_interpolate(args) -> int:
    from repro.core.interpolation import interpolate

    model = _load_model(args.model)
    path = interpolate(model, args.start, args.target, steps=args.steps)
    print(" -> ".join(path))
    return 0


def cmd_conditional(args) -> int:
    from repro.core.conditional import ConditionalGuesser

    model = _load_model(args.model)
    guesser = ConditionalGuesser(model, population=args.population)
    guesses = guesser.guess(
        args.template,
        rounds=args.rounds,
        top_k=args.top_k,
        rng=np.random.default_rng(args.seed),
    )
    for guess in guesses:
        print(guess)
    return 0


def cmd_strength(args) -> int:
    from repro.core.strength import StrengthEstimator

    model = _load_model(args.model)
    estimator = StrengthEstimator(model)
    if args.corpus:
        estimator.calibrate(_read_corpus(args.corpus, model.alphabet)[:5000])
    started = time.perf_counter()
    # the batch-vectorized path: stacked 64-row chunks, one flow call per
    # 16 chunks, not one per password
    report = estimator.report(args.passwords)
    elapsed = time.perf_counter() - started
    headers = ["password", "log_prob"] + (
        ["percentile", "band"] if estimator.calibrated else []
    )
    rows = [[entry[key] for key in headers] for entry in report]
    print(format_table(headers, rows))
    print(
        f"scored {len(report)} passwords in {elapsed * 1000.0:.1f} ms "
        f"({elapsed * 1000.0 / len(report):.2f} ms/password)"
    )
    return 0


def cmd_serve(args) -> int:
    """``serve``: the micro-batched strength-audit daemon (docs/serve.md)."""
    from repro.serve import ScoringServer, ServeApp, ServeConfigError, run_once

    try:
        app = ServeApp(
            args.spec,
            max_batch=args.max_batch,
            max_queue=args.max_queue,
            default_deadline_ms=args.deadline_ms,
        )
    except ServeConfigError as exc:
        raise SystemExit(str(exc))
    if args.once:
        return run_once(app, sys.stdin, sys.stdout)
    if (args.socket is None) == (args.port is None):
        raise SystemExit("pass exactly one of --socket or --port (or use --once)")
    server = ScoringServer(app, socket_path=args.socket, port=args.port)
    try:
        server.start()
    except OSError as exc:
        raise SystemExit(
            f"cannot serve on {_clip(args.socket or args.port)}: "
            f"{exc.strerror or _clip(exc)}"
        )
    # SIGTERM = graceful shutdown: stop accepting, drain in-flight
    # batches, exit 0 -- what a supervisor sends on redeploy
    signal.signal(signal.SIGTERM, lambda signum, frame: app.request_shutdown())
    print(f"serving on {server.address} ({len(args.spec)} spec(s))", flush=True)
    try:
        # wake regularly so the main thread sees signal-set shutdowns
        while not app.wait_for_shutdown(timeout=0.5):
            pass
    except KeyboardInterrupt:
        app.request_shutdown()
    server.stop()
    print("drained and stopped", flush=True)
    return 0


def cmd_experiments(args) -> int:
    from repro.eval import run_all as runner

    argv = ["--markdown", args.markdown] if args.markdown else []
    return runner.main(argv)


# ----------------------------------------------------------------------
class _Parser(argparse.ArgumentParser):
    """A parser (and subparsers) whose flags match only whole: an unknown
    flag, such as a removed strategy flag, is a usage error, never read
    as an abbreviation of a known one."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, allow_abbrev=False, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="repro", description=__doc__)
    parser.add_argument("-v", "--verbose", action="store_true", help="console logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synthesize", help="generate a synthetic RockYou-like corpus")
    p.add_argument("--count", type=int, default=20000)
    p.add_argument("--out", required=True)
    p.add_argument("--alphabet", default="compact")
    p.add_argument("--vocabulary-size", type=int, default=30)
    p.add_argument("--max-suffix-digits", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("train", help="train a PassFlow model on a password file")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--alphabet", default="compact")
    p.add_argument("--train-size", type=int, default=0)
    p.add_argument("--couplings", type=int, default=8)
    p.add_argument("--hidden", type=int, default=48)
    p.add_argument("--batch-size", type=int, default=256)
    p.add_argument("--epochs", type=int, default=40)
    p.add_argument("--lr", type=float, default=1e-3, help="Adam learning rate")
    p.add_argument(
        "--holdout",
        type=float,
        default=0.0,
        help="fraction of the corpus held out for validation NLL "
        "(enables best-epoch tracking)",
    )
    p.add_argument("--mask", default="char-run-1")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sample", help="generate password guesses")
    p.add_argument("--model", required=True)
    p.add_argument("--count", type=int, default=20)
    p.add_argument(
        "--strategy",
        default="passflow:static?temperature=0.75",
        help="passflow strategy spec (default %(default)s)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("attack", help="run a guessing attack against a password file")
    p.add_argument("--model", help="PassFlow checkpoint (required for passflow specs)")
    p.add_argument("--corpus", required=True)
    p.add_argument(
        "--strategy",
        default="passflow:dynamic+gs?alpha=1&gamma=2&sigma=0.12",
        help="registry spec (default %(default)s; markov:3, pcfg, rules, "
        "passgan, cwae, ...); see `repro strategies`",
    )
    p.add_argument("--alphabet", default="compact", help="used when no --model is given")
    p.add_argument("--budgets", default="1000,10000")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="shard the attack across N processes (1 = serial, bit-identical "
        "to seed-era reports; N>1 deterministic for fixed seed and N)",
    )
    p.add_argument(
        "--schedule",
        choices=["static", "elastic"],
        default="static",
        help="shard scheduling: static (fixed even split, the default) or "
        "elastic (chunked rounds; dry/crashed shards release their "
        "unconsumed budget back to the fleet at checkpoints)",
    )
    # a plain string (not argparse choices) so impossible requests surface
    # the runtime's one-line actionable error instead of a usage dump
    p.add_argument(
        "--executor",
        default="auto",
        help="shard executor: auto|local|processpool (default auto: "
        "processpool for 2+ workers where fork exists, else local; "
        "processpool = fork-server pool with sticky shard affinity -- "
        "multi-core throughput for GIL-bound strategies, same report "
        "bytes as local for a fixed seed/workers/schedule)",
    )
    p.add_argument(
        "--report",
        help="write the full GuessingReport (rows + samples) as JSON here",
    )
    p.add_argument(
        "--bank",
        help="replay a prebuilt guess-bank artifact instead of sampling a "
        "strategy (bit-identical to the banked run for fixed seed/budgets; "
        "--model/--strategy are ignored)",
    )
    p.add_argument(
        "--policy",
        help="composition-policy query (min_len=8&max_len=10&classes=lud&"
        "deny=password,123456); wraps the spec as policy(<spec>) so only "
        "conformant guesses are emitted, and restricts the attacked test "
        "set to conformant targets",
    )
    p.add_argument(
        "--target-corpus",
        help="second password file for a cross-corpus attack: its test half "
        "becomes the attack targets (cleaned against --corpus's train "
        "half), while models still train on --corpus",
    )
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser(
        "bank", help="build, inspect and verify memory-mapped guess banks"
    )
    bank_sub = p.add_subparsers(dest="bank_command", required=True)

    b = bank_sub.add_parser(
        "build", help="materialize a strategy's ranked guess stream to disk"
    )
    b.add_argument(
        "--strategy",
        required=True,
        help="registry spec to bank (markov:3, passflow:static?...); "
        "feedback-driven specs need --force",
    )
    b.add_argument("--budget", type=int, required=True, help="guesses to bank")
    b.add_argument("--out", required=True, help="artifact directory to write")
    b.add_argument("--model", help="PassFlow checkpoint (required for passflow specs)")
    b.add_argument(
        "--corpus",
        help="password file; its train half feeds corpus-trained strategies, "
        "matching the attack command's split",
    )
    b.add_argument("--alphabet", default="compact", help="used when no --model is given")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument(
        "--rng-label",
        default="",
        help="named RNG stream label ('' = the serial attack's default_rng; "
        "the eval harness uses labels like attack-table2)",
    )
    b.add_argument(
        "--force",
        action="store_true",
        help="bank a non-replayable (feedback-driven) strategy's "
        "feedback-free stream anyway",
    )
    b.set_defaults(func=cmd_bank_build)

    b = bank_sub.add_parser("info", help="print a bank artifact's manifest summary")
    b.add_argument("path")
    b.set_defaults(func=cmd_bank_info)

    b = bank_sub.add_parser(
        "verify", help="integrity-check a bank artifact (exit 1 on problems)"
    )
    b.add_argument("path")
    b.set_defaults(func=cmd_bank_verify)

    p = sub.add_parser("strategies", help="list the registered strategy families")
    p.add_argument(
        "--bankable",
        action="store_true",
        help="add a column showing which families are deterministic-replayable "
        "(usable with `bank build` without --force)",
    )
    p.set_defaults(func=cmd_strategies)

    p = sub.add_parser(
        "scenarios",
        help="enumerate the policy x mangling x cross-corpus scenario matrix",
    )
    p.add_argument(
        "--specs",
        default="markov:3,pcfg",
        help="comma list of base strategy specs (default: markov:3,pcfg)",
    )
    p.add_argument(
        "--policies",
        default=";min_len=6&classes=ld",
        help="semicolon list of policy queries; an empty entry is the "
        "unconstrained column (default: ';min_len=6&classes=ld')",
    )
    p.add_argument(
        "--corpora",
        default="default,narrow,digits",
        help="comma list of target corpus variants (default: all)",
    )
    p.set_defaults(func=cmd_scenarios)

    p = sub.add_parser("interpolate", help="latent interpolation between two passwords")
    p.add_argument("--model", required=True)
    p.add_argument("start")
    p.add_argument("target")
    p.add_argument("--steps", type=int, default=10)
    p.set_defaults(func=cmd_interpolate)

    p = sub.add_parser("conditional", help="complete a partial password template (* = unknown)")
    p.add_argument("--model", required=True)
    p.add_argument("template")
    p.add_argument("--population", type=int, default=128)
    p.add_argument("--rounds", type=int, default=8)
    p.add_argument("--top-k", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_conditional)

    p = sub.add_parser("strength", help="estimate password strength with the model")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", help="reference corpus for percentile calibration")
    p.add_argument("passwords", nargs="+")
    p.set_defaults(func=cmd_strength)

    p = sub.add_parser(
        "serve", help="run the micro-batched strength-scoring daemon"
    )
    p.add_argument(
        "--spec",
        action="append",
        required=True,
        help="service spec, repeatable: "
        "strength?model=<ckpt.npz>&corpus=<ref.txt>[&name=...] for scoring, "
        "bank:<artifact dir>[?name=...] for rank lookups",
    )
    p.add_argument("--socket", help="Unix-domain socket path to listen on")
    p.add_argument(
        "--port", type=int, help="localhost TCP port (0 picks a free one)"
    )
    p.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help="most passwords one flush of the scoring queue collects (the "
        "worker flushes what is queued as soon as it is free)",
    )
    p.add_argument(
        "--max-queue",
        type=int,
        default=4096,
        help="bounded queue capacity in passwords (beyond it requests are "
        "rejected with a one-line error)",
    )
    p.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="default per-request deadline (requests may override; "
        "expired-in-queue requests are rejected, not scored late)",
    )
    p.add_argument(
        "--once",
        action="store_true",
        help="serve NDJSON from stdin to stdout in-process (no socket; the "
        "batcher thread scores each request in turn); exits at EOF or a "
        "shutdown request",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("experiments", help="regenerate every paper table/figure")
    p.add_argument("--markdown", help="write consolidated markdown report here")
    p.set_defaults(func=cmd_experiments)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.verbose:
        enable_console_logging()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
