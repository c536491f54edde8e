"""Attack-and-serve benchmark for the ``repro`` command line.

    python3 perfbench/run.py --workload markov-pool --seed 1 --seconds 10 --trace 0

Runs one workload through the CLI commands a user runs (``repro
synthesize``, ``repro train``, ``repro bank build``, ``repro attack``,
``repro serve``), checks every output, and prints human-readable lines
followed by one JSON result line.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` reruns the workload under span wrappers and
reports the per-layer split.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import loadgen  # noqa: E402
import tracing  # noqa: E402

DIGESTS = HERE / "digests.json"
SPEC = ROOT / "BENCHMARK.json"

# ----------------------------------------------------------------------
# fixed workload parameters (the seed only changes the generated inputs)
# ----------------------------------------------------------------------
CORPUS_SIZE = 4000
ATTACK_SEED = 0
TRAIN_ARGS = [
    "--train-size", "1200", "--couplings", "8", "--hidden", "48",
    "--epochs", "4", "--batch-size", "128", "--seed", "0",
]
BANK_BUDGET = 20000
MIN_REPEATS = 3
COMMAND_TIMEOUT_S = 120.0

# Daemon constants the serve traffic is sized against (repro.core.strength,
# repro.serve.batcher and repro.serve.stats defaults).
EVAL_ROWS = 64  # rows per flow evaluation; also the batcher's max_batch
STATS_WINDOW = 4096  # latencies behind the daemon's p99

# The serve traffic.  No recorded serve traffic exists to copy, so the mix
# is chosen, not measured; each value's reason is beside it.
SCORE_POOL = 192  # 3 x EVAL_ROWS: the prefix scores the pool in 3 full flushes
RANDOM_IN_POOL = 32  # random strings: passwords absent from corpus and bank
BULK_SIZE = 16  # a bulk audit shares a 64-row flush with singles, never splits
BULK_SHARE = 0.05  # x 16: bulk and single scores each carry half the passwords
LOOKUP_SHARE = 0.15  # 30 lookups/s at the nominal rate, so bank.lookup_s is read
WARMUP_RPS = 500
WARMUP_REQUESTS = 100
# The rate of the one-connection probe that found p99 ~ 7 ms; the daemon
# is under half busy there.  Near 1000 req/s it flushes every ~2 ms,
# each flush evaluating 64 mostly padded rows, so it is ~90% busy and a
# slightly slower machine turns into a queue.
NOMINAL_RPS = 200
LADDER_RPS = (2000, 4000, 6000, 8000, 12000, 16000)  # past the knee
RUNG_SHARE = 0.05  # of --seconds, per ladder rung
NOMINAL_SHARE = 0.4  # of --seconds, in one-second windows at the nominal rate
# Audit throughput: bulk score requests at the protocol's cap, two
# outstanding on one connection, so the daemon always has the next one
# parsed and a phase times flow evaluation, not the GIL hand-offs that
# dominate closed-loop single requests.
AUDIT_SIZE = 1024  # repro.serve.protocol.MAX_PASSWORDS_PER_REQUEST
AUDIT_REQUESTS = 24  # per phase: about one second of evaluation
AUDIT_WINDOW = 2
LATENCY_LIMIT_MS = 25.0
SERVE_LAUNCHES = 6  # daemons per run; the first one's set-up time is not counted

BLAS_VARIABLES = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


@dataclass(frozen=True)
class AttackSpec:
    strategy: str
    budgets: str
    workers: int
    extra: Sequence[str] = ()
    model: bool = False  # attacks a PassFlow checkpoint trained in the run


ATTACKS = {
    "markov-pool": AttackSpec(
        "markov:3", "5000,20000", 2,
        ("--schedule", "elastic", "--executor", "processpool"),
    ),
    "passflow-serial": AttackSpec(
        "passflow:dynamic+gs?alpha=1&sigma=0.12", "10000,50000", 1, (), model=True,
    ),
    "passflow-sharded": AttackSpec(
        "passflow:static", "10000,40000", 2, (), model=True,
    ),
}
WORKLOADS = tuple(ATTACKS) + ("serve-mixed",)


class BenchError(RuntimeError):
    """A step of the workload could not run at all (not a wrong output)."""


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else float("nan")


def digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def fingerprint() -> Dict[str, object]:
    """What the numbers depend on besides the code."""
    import numpy

    blas = "unknown"
    try:
        config = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{config.get('name')} {config.get('version')}"
    except Exception:  # noqa: BLE001 - older numpy has no dict mode
        pass
    sys.path.insert(0, str(SRC))
    try:
        from repro import kernels

        backend = kernels.resolve()
    except Exception as exc:  # noqa: BLE001 - reported, not fatal
        backend = f"unresolved ({exc})"
    finally:
        sys.path.remove(str(SRC))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_env": {name: os.environ.get(name, "unset") for name in BLAS_VARIABLES},
        "kernel_backend": backend,
        "fork": "fork" in multiprocessing.get_all_start_methods(),
    }


@dataclass
class Launch:
    """One launched CLI command: timings, spans and its output."""

    spawned: float
    exited: float
    returncode: int
    stdout: str
    stderr: str
    spans: List[tracing.Span]
    maxrss_kb: int

    @property
    def wall_s(self) -> float:
        return self.exited - self.spawned


class Bench:
    """Shared state of one benchmark run: paths, environment, checks."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        )
        self.env["PYTHONHASHSEED"] = "0"
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []
        self._launches = 0

    # -- running commands ------------------------------------------------
    def cli(self, args: Sequence[str]) -> float:
        """Run ``python -m repro <args>`` to completion; returns wall seconds."""
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "repro", *args],
            cwd=self.work, env=self.env, capture_output=True, text=True,
            timeout=COMMAND_TIMEOUT_S,
        )
        if done.returncode != 0:
            raise BenchError(
                f"repro {args[0]} exited {done.returncode}: {done.stderr.strip()[-400:]}"
            )
        return time.perf_counter() - started

    def spawn(self, args: Sequence[str], trace: bool) -> tuple:
        """Start a CLI command under the launcher; returns (process, its dir).

        Output goes to files in that directory, not pipes, so a chatty
        long-lived daemon can never block on a full pipe.
        """
        self._launches += 1
        run_dir = self.work / f"launch-{self._launches}"
        run_dir.mkdir()
        command = [sys.executable, str(HERE / "launch.py"), "--spans", str(run_dir)]
        if trace:
            command.append("--trace")
        with open(run_dir / "stdout", "w") as out, open(run_dir / "stderr", "w") as err:
            process = subprocess.Popen(
                command + ["--", *args], cwd=self.work, env=self.env, stdout=out, stderr=err,
            )
        return process, run_dir

    def finish(self, process, run_dir: Path, spawned: float, timeout: float) -> Launch:
        """Wait for a launched command (killing it after ``timeout``)."""
        try:
            process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        exited = time.perf_counter()
        rss = 0
        for path in run_dir.glob("usage-*.json"):
            rss = max(rss, json.loads(path.read_text())["maxrss_kb"])
        return Launch(
            spawned, exited, process.returncode,
            (run_dir / "stdout").read_text(), (run_dir / "stderr").read_text(),
            tracing.load_spans(run_dir), rss,
        )

    def launch(self, args: Sequence[str], trace: bool = False) -> Launch:
        """Run a CLI command under the launcher to completion."""
        spawned = time.perf_counter()
        process, run_dir = self.spawn(args, trace)
        return self.finish(process, run_dir, spawned, COMMAND_TIMEOUT_S)

    # -- inputs ----------------------------------------------------------
    def prepare(self, steps: Sequence[Sequence[str]]) -> tuple:
        """Make the workload's inputs with the CLI; ``(total s, {step: s})``."""
        per_step = {args[0]: self.cli(args) for args in steps}
        return sum(per_step.values()), per_step

    def corpus_args(self) -> List[str]:
        """The seed's corpus, generated through ``repro synthesize``."""
        return [
            "synthesize", "--count", str(CORPUS_SIZE), "--out", "corpus.txt",
            "--seed", str(self.seed),
        ]

    def train_args(self) -> List[str]:
        return ["train", "--corpus", "corpus.txt", "--out", "model.npz", *TRAIN_ARGS]

    # -- output checks ---------------------------------------------------
    def expect(self, key: str, value: str, pin: bool) -> bool:
        """Compare ``value`` with the digest pinned for this workload/seed.

        Returns False only on a mismatch; an unpinned seed is checked for
        self-consistency by the caller instead.
        """
        pinned = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        table = pinned.setdefault(self.workload, {})
        entry = f"{self.seed}{key}"
        if pin:
            table[entry] = value
            DIGESTS.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
            self.notes.append(f"pinned {entry} -> {value}")
            return True
        if entry not in table:
            self.notes.append(f"seed {self.seed}{key} has no pinned digest; checked "
                              "for repeat consistency only")
            return True
        if table[entry] != value:
            self.notes.append(f"digest {value} != pinned {table[entry]}")
            return False
        return True


# ----------------------------------------------------------------------
# attack workloads
# ----------------------------------------------------------------------
def check_report(path: Path, budgets: List[int], test_half: set) -> tuple:
    """(digest of rows + matched samples, list of problems)."""
    problems = []
    try:
        report = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return None, [f"no readable report: {exc}"]
    rows = report.get("rows", [])
    if [row["guesses"] for row in rows] != budgets:
        problems.append(f"rows at {[row['guesses'] for row in rows]}, not {budgets}")
    previous = 0
    for row in rows:
        if not 0 <= row["matched"] <= row["unique"] <= row["guesses"]:
            problems.append(f"inconsistent row {row}")
        if row["matched"] < previous:
            problems.append("matched count decreased")
        previous = row["matched"]
    stray = [p for p in report.get("matched_samples", []) if p not in test_half]
    if stray:
        problems.append(f"matched samples outside the test half: {stray[:3]}")
    if report.get("shard_errors"):
        problems.append(f"shard errors: {report['shard_errors']}")
    payload = {"rows": rows, "matched_samples": report.get("matched_samples", [])}
    return digest(payload), problems


@dataclass
class AttackSample:
    """The timings and output of one successful attack command."""

    setup_s: float  # launch -> attack engine entered (first batch requested)
    guesses_per_s: float  # final budget / engine entry -> report returned
    wall_s: float
    maxrss_kb: int
    spans: List[tracing.Span]
    report: Dict[str, object]


def run_attack(bench: Bench, spec: AttackSpec, pin: bool) -> Dict[str, object]:
    steps = [bench.corpus_args()] + ([bench.train_args()] if spec.model else [])
    prep_s, step_s = bench.prepare(steps)
    train_s = step_s.get("train")
    train_spans: List[tracing.Span] = []
    if spec.model and bench.trace:
        trained = bench.launch(bench.train_args(), trace=True)
        if trained.returncode != 0:
            raise BenchError(f"traced train failed: {trained.stderr[-400:]}")
        train_spans = trained.spans
    lines = (bench.work / "corpus.txt").read_text().splitlines()
    test_half = set(lines[len(lines) // 2:])
    budgets = [int(b) for b in spec.budgets.split(",")]
    args = [
        "attack", "--corpus", "corpus.txt", "--strategy", spec.strategy,
        "--budgets", spec.budgets, "--workers", str(spec.workers),
        "--seed", str(ATTACK_SEED), "--report", "report.json", *spec.extra,
    ] + (["--model", "model.npz"] if spec.model else [])

    digests = set()

    def attack_once(trace: bool) -> Optional[AttackSample]:
        """One checked ``repro attack`` command; None when it failed."""
        report_path = bench.work / "report.json"
        report_path.unlink(missing_ok=True)
        launched = bench.launch(args, trace=trace)
        bench.attempted += 1
        window = tracing.engine_window(launched.spans)
        problems = []
        if launched.returncode != 0:
            problems.append(f"exit {launched.returncode}: {launched.stderr.strip()[-300:]}")
        if window is None:
            problems.append("attack engine never ran")
        report_digest, found = check_report(report_path, budgets, test_half)
        problems += found
        if problems:
            bench.failed += 1
            bench.notes.extend(problems)
            return None
        digests.add(report_digest)
        return AttackSample(
            setup_s=window.start - launched.spawned,
            guesses_per_s=budgets[-1] / window.duration,
            wall_s=launched.wall_s,
            maxrss_kb=launched.maxrss_kb,
            spans=launched.spans,
            report=json.loads(report_path.read_text()),
        )

    # the first command pays one-off costs (bytecode compilation) that a
    # user's later commands do not; it is checked but not timed
    attack_once(trace=False)
    samples: List[AttackSample] = []
    plain: List[AttackSample] = []
    started = time.perf_counter()
    if bench.trace:
        # untraced and traced commands alternate, so the tracing overhead
        # compares the two over the same stretch of the run
        while not samples or time.perf_counter() - started < bench.seconds:
            pair = attack_once(trace=False), attack_once(trace=True)
            if None in pair:
                break
            plain.append(pair[0])
            samples.append(pair[1])
    else:
        while len(samples) < MIN_REPEATS or time.perf_counter() - started < bench.seconds:
            sample = attack_once(trace=False)
            if sample is None:
                break
            samples.append(sample)

    if len(digests) > 1:
        bench.failed += 1
        bench.notes.append(f"repeats disagree: digests {sorted(digests)}")
    elif digests and not bench.expect("", next(iter(digests)), pin):
        bench.failed += 1
    bench.notes.append(f"{bench.attempted} attack command(s), report digest {sorted(digests)}")
    if not samples:
        return {}

    report = samples[-1].report
    last = report["rows"][-1]
    rates = [s.guesses_per_s for s in samples]
    if bench.trace:
        per_command = [tracing.layer_metrics(s.spans, spec.workers) for s in samples]
        metrics = {name: median([m[name] for m in per_command]) for name in per_command[0]}
        trained = tracing.layer_metrics(train_spans)
        for name in ("flows.nll_s", "autograd.backward_s", "nn.optim_step_s"):
            metrics[name] = trained[name]
        metrics["core.unique_frac"] = last["unique"] / last["guesses"]
        metrics["core.matched"] = float(last["matched"])
        metrics["trace.overhead_frac"] = (
            1.0 - median(rates) / median([s.guesses_per_s for s in plain])
        )
        return {"per_layer": metrics, "kernel_backend": report.get("kernel_backend")}

    setups = [s.setup_s for s in samples]
    walls = [s.wall_s * 1000.0 for s in samples]
    rss_mb = max(s.maxrss_kb for s in samples) / 1024.0
    n = len(samples)
    human = {
        "setup_s": (median(setups), "s", f"median; max {max(setups):.4f} over n={n}"),
        "prep_s": (prep_s, "s", "making the inputs with the CLI, once"),
        "guesses_per_s": (median(rates), "guesses/s", f"median; min {min(rates):.1f} over n={n}"),
        "peak_rss_mb": (rss_mb, "MiB", "largest process incl. forked shards"),
        "failed_frac": (bench.failed / max(1, bench.attempted), "fraction",
                        f"{bench.failed}/{bench.attempted} attack commands"),
        "command_p50_ms": (median(walls), "ms",
                           f"attack command wall, median; max {max(walls):.1f} over n={n}"),
        "unique_frac": (last["unique"] / last["guesses"], "fraction", "from the report"),
        "matched": (last["matched"], "count", "from the report"),
    }
    if train_s is not None:
        human["train_s"] = (train_s, "s", "one fixed-epoch repro train")
    end_to_end = {
        "setup_s": median(setups),
        "throughput_per_s": median(rates),
        "latency_p50_ms": median(walls),
        "peak_rss_mb": rss_mb,
    }
    return {"end_to_end": end_to_end, "human": human,
            "kernel_backend": report.get("kernel_backend")}


# ----------------------------------------------------------------------
# serving workload
# ----------------------------------------------------------------------
def serve_traffic(bench: Bench, count: int) -> tuple:
    """The seed's password pool, its first ``count`` requests and its audits."""
    rng = random.Random(bench.seed)
    lines = (bench.work / "corpus.txt").read_text().splitlines()
    chars = "abcdefghijklmnopqrstuvwxyz0123456789"
    pool = rng.sample(lines, SCORE_POOL - RANDOM_IN_POOL) + [
        "".join(rng.choice(chars) for _ in range(rng.randint(5, 10)))
        for _ in range(RANDOM_IN_POOL)
    ]
    requests = []
    for _ in range(count):
        roll = rng.random()
        if roll < LOOKUP_SHARE:
            requests.append({"op": "lookup", "password": rng.choice(pool)})
        elif roll < LOOKUP_SHARE + BULK_SHARE:
            requests.append({"op": "score", "passwords": rng.sample(pool, BULK_SIZE)})
        else:
            requests.append({"op": "score", "password": rng.choice(pool)})
    audits = [
        {"op": "score", "passwords": rng.choices(pool, k=AUDIT_SIZE)}
        for _ in range(AUDIT_REQUESTS)
    ]
    return pool, requests, audits


def encode(request: Dict[str, object]) -> bytes:
    return (json.dumps(request, sort_keys=True, separators=(",", ":")) + "\n").encode()


class Daemon:
    """One ``repro serve`` process under the launcher."""

    def __init__(self, bench: Bench, trace: bool) -> None:
        self.bench = bench
        self.socket = bench.work / "serve.sock"
        self.socket.unlink(missing_ok=True)
        args = [
            "serve", "--spec", "strength?model=model.npz&corpus=corpus.txt",
            "--spec", "bank:m3.bank?name=m3", "--socket", "serve.sock",
        ]
        self.spawned = time.perf_counter()
        self.process, self.run_dir = bench.spawn(args, trace)
        try:
            self.ready_s = self._wait_ready()
        except BenchError:
            self.process.kill()
            self.process.wait()
            raise

    def _wait_ready(self) -> float:
        """Seconds from launch to the first answered ``ping``."""
        deadline = self.spawned + 60.0
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                stderr = (self.run_dir / "stderr").read_text()
                raise BenchError(f"daemon exited early: {stderr[-400:]}")
            try:
                with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
                    sock.settimeout(5.0)
                    sock.connect(str(self.socket))
                    sock.sendall(b'{"op":"ping"}\n')
                    if b'"ok":true' in sock.recv(4096):
                        return time.perf_counter() - self.spawned
            except OSError:
                time.sleep(0.005)
        raise BenchError("daemon never answered ping")

    def request(self, request: Dict[str, object]) -> bytes:
        """One closed-loop round trip on a fresh connection."""
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(30.0)
            sock.connect(str(self.socket))
            sock.sendall(encode(request))
            data = b""
            while not data.endswith(b"\n"):
                chunk = sock.recv(1 << 20)
                if not chunk:
                    raise BenchError("daemon closed the connection")
                data += chunk
        return data.rstrip(b"\n")

    def stats(self) -> Dict[str, object]:
        return json.loads(self.request({"op": "stats"}))

    def stop(self) -> Launch:
        """SIGTERM, drain, and collect spans/usage."""
        self.process.send_signal(signal.SIGTERM)
        launch = self.bench.finish(self.process, self.run_dir, self.spawned, 60.0)
        if launch.returncode != 0 or "drained and stopped" not in launch.stdout:
            raise BenchError(f"daemon did not drain cleanly: {launch.stderr[-400:]}")
        return launch


def prefix_expectations(daemon: Daemon, pool: List[str]) -> tuple:
    """Score and look up the whole pool once; returns (expected, digest)."""
    responses = []
    expected: Dict[tuple, Dict[str, object]] = {}
    for start in range(0, len(pool), EVAL_ROWS):
        chunk = pool[start:start + EVAL_ROWS]
        for op in ("score", "lookup"):
            raw = daemon.request({"op": op, "passwords": chunk})
            responses.append(raw.decode())
            reply = json.loads(raw)
            if not reply.get("ok"):
                raise BenchError(f"prefix {op} failed: {reply}")
            fields = [k for k in reply if k not in ("ok", "op", "count")]
            for i, password in enumerate(chunk):
                expected[(op, password)] = {k[:-1]: reply[k][i] for k in fields}
    return expected, digest(responses)


def classify(request: Dict[str, object], line: Optional[bytes], expected) -> str:
    """``ok``, ``wrong`` (answered, but not what the prefix pinned) or
    ``refused`` (an error response, or no answer at all)."""
    if line is None:
        return "refused"
    reply = json.loads(line)
    if not reply.get("ok"):
        return "refused"
    if reply.get("op") != request["op"]:
        return "wrong"
    if "password" in request:
        want = expected[(request["op"], request["password"])]
        got = {k: reply.get(k) for k in want}
    else:
        want = [expected[(request["op"], p)] for p in request["passwords"]]
        got = [
            {k: (reply.get(k + "s") or [None] * len(want))[i] for k in entry}
            for i, entry in enumerate(want)
        ]
    return "ok" if got == want else "wrong"


class _Clock:
    now = staticmethod(time.perf_counter)


@dataclass
class Rung:
    """One load phase's outcome, judged against the latency limit."""

    rate: float
    latencies_ms: List[float]  # due -> answer; inf for a refused request
    wrong: int
    refused: int
    late_p99_ms: float
    growing: bool
    ok_per_s: float

    @property
    def count(self) -> int:
        return len(self.latencies_ms)

    @property
    def p50_ms(self) -> float:
        return loadgen.percentile(self.latencies_ms, 50)

    @property
    def p99_ms(self) -> float:
        return loadgen.percentile(self.latencies_ms, 99)

    @property
    def passed(self) -> bool:
        return (
            self.wrong == 0 and self.refused == 0 and not self.growing
            and self.p99_ms < LATENCY_LIMIT_MS
        )

    def describe(self) -> str:
        if not self.rate:
            return (
                f"audit phase: n={self.count} x {AUDIT_SIZE} passwords "
                f"{self.ok_per_s * AUDIT_SIZE:.0f} correctly scored/s "
                f"p50 {self.p50_ms:.2f} ms refused {self.refused} wrong {self.wrong}"
            )
        return (
            f"rung {self.rate:>6.0f} req/s: n={self.count} p50 {self.p50_ms:.2f} ms "
            f"p99 {self.p99_ms:.2f} ms late p99 {self.late_p99_ms:.2f} ms "
            f"ok {self.ok_per_s:.0f}/s refused {self.refused} wrong {self.wrong} "
            f"growing backlog {self.growing} -> {'pass' if self.passed else 'fail'}"
        )


def drive_rung(daemon: Daemon, rate: float, batch, expected,
               window: Optional[int] = None) -> Rung:
    """Offer ``batch`` open-loop at ``rate`` req/s and check every answer.

    With ``window``, send it closed-loop instead, keeping ``window``
    requests outstanding: what the daemon answers per second is then its
    capacity.
    """
    payloads = [encode(r) for r in batch]
    transport = loadgen.SocketTransport(str(daemon.socket), connections=1)
    try:
        if window is None:
            rung = loadgen.run_open_loop(payloads, rate, transport, _Clock)
        else:
            rung = loadgen.run_closed_loop(payloads, window, transport, _Clock)
    finally:
        transport.close()
    verdicts = [classify(r, line, expected) for r, line in zip(batch, rung.lines)]
    ok_times = [t for t, v in zip(rung.answered, verdicts) if v == "ok"]
    span = (max(ok_times) - rung.due[0]) if ok_times else 0.0
    return Rung(
        rate=rate,
        # a refused request misses any latency limit
        latencies_ms=[
            (answer - due) * 1000.0 if verdict != "refused" else float("inf")
            for due, answer, verdict in zip(rung.due, rung.answered, verdicts)
        ],
        wrong=verdicts.count("wrong"),
        refused=verdicts.count("refused"),
        late_p99_ms=loadgen.percentile(rung.lateness_ms(), 99),
        growing=rung.backlog_growing(),
        ok_per_s=len(ok_times) / span if span > 0 else 0.0,
    )


def run_serve(bench: Bench, pin: bool) -> Dict[str, object]:
    bank_args = [
        "bank", "build", "--strategy", "markov:3", "--corpus", "corpus.txt",
        "--budget", str(BANK_BUDGET), "--out", "m3.bank", "--seed", "0",
    ]
    prep_s, step_s = bench.prepare([bench.corpus_args(), bench.train_args(), bank_args])
    rung_s = bench.seconds * RUNG_SHARE
    # one-second nominal windows, spread over the launched daemons
    per_daemon = max(1, round(bench.seconds * NOMINAL_SHARE / SERVE_LAUNCHES))
    windows = per_daemon * SERVE_LAUNCHES
    largest = max(max(LADDER_RPS) * rung_s, NOMINAL_RPS * windows)
    pool, requests, audits = serve_traffic(bench, int(largest) + 1)
    nominal: List[Rung] = []
    sent: List[list] = []  # each nominal window's requests
    audited: List[Rung] = []
    prefix_digests = set()

    def first(count: float) -> list:
        return requests[:max(1, int(count))]

    def tally(rung: Rung, strict: bool) -> None:
        # refusals are failures at and below the nominal rate; above it
        # they are overload, judged by the rung's pass/fail instead
        bench.attempted += rung.count
        bench.failed += rung.wrong + (rung.refused if strict else 0)
        bench.notes.append(rung.describe())

    def checked(daemon: Daemon) -> dict:
        """Record the prefix answers, then warm the daemon up (unreported)."""
        expected, prefix_digest = prefix_expectations(daemon, pool)
        bench.attempted += 1
        prefix_digests.add(prefix_digest)
        tally(drive_rung(daemon, WARMUP_RPS, first(WARMUP_REQUESTS), expected), True)
        return expected

    def check_prefixes() -> None:
        """Every daemon gave the same prefix answers, and the pinned ones."""
        if len(prefix_digests) > 1:
            bench.failed += 1
            bench.notes.append(f"daemons disagree: prefix digests {sorted(prefix_digests)}")
        elif not bench.expect("-prefix", next(iter(prefix_digests)), pin):
            bench.failed += 1
        bench.notes.append(f"prefix digest {sorted(prefix_digests)}")

    def nominal_window(daemon: Daemon, expected) -> Rung:
        """One second at the nominal rate, over requests no window used yet."""
        k = len(nominal) % windows
        batch = requests[k * NOMINAL_RPS:(k + 1) * NOMINAL_RPS]
        sent.append(batch)
        nominal.append(drive_rung(daemon, NOMINAL_RPS, batch, expected))
        tally(nominal[-1], strict=True)
        return nominal[-1]

    def p50(rungs: List[Rung]) -> float:
        return loadgen.percentile([x for r in rungs for x in r.latencies_ms], 50)

    if bench.trace:
        # enough traced windows that the daemon's latency window, behind
        # serve.server_p99_ms, holds nothing older than them
        traced_windows = max(windows // 2, -(-STATS_WINDOW // NOMINAL_RPS))
        untraced = Daemon(bench, trace=False)
        try:
            expected = checked(untraced)
            plain = [nominal_window(untraced, expected) for _ in range(max(1, windows // 2))]
        finally:
            untraced.stop()
        daemon = Daemon(bench, trace=True)
        try:
            expected = checked(daemon)
            before = daemon.stats()
            phase_start = time.perf_counter()
            traced = [nominal_window(daemon, expected) for _ in range(traced_windows)]
            phase_end = time.perf_counter()
            after = daemon.stats()
        finally:
            launch = daemon.stop()
        check_prefixes()
        # only the nominal windows: not start-up calibration or the prefix;
        # the daemon's counters likewise as the change over those windows
        spans = [s for s in launch.spans if phase_start <= s.start and s.end <= phase_end]
        metrics = tracing.layer_metrics(spans)
        passwords, rows = tracing.evaluated_rows(spans, EVAL_ROWS)
        batches = after["batches"] - before["batches"]
        # only score requests are batched; an unanswered one fails the run
        scores = sum(r["op"] == "score" for batch in sent[-traced_windows:] for r in batch)
        metrics.update({
            "serve.flush_fill": passwords / rows if rows else 0.0,
            "serve.mean_batch_size": scores / batches if batches else 0.0,
            "serve.batches": float(batches),
            "serve.server_p99_ms": float(after["latency"].get("p99_ms", 0.0)),
            "serve.rejected": float(
                sum(after["rejected"].values()) - sum(before["rejected"].values())
            ),
            "loadgen.late_p99_ms": max(r.late_p99_ms for r in traced),
            "trace.overhead_frac": p50(traced) / p50(plain) - 1.0,
        })
        return {"per_layer": metrics}

    # Each daemon launch is timed to its first answered ping, then serves
    # audit phases interleaved with nominal windows, so every figure
    # is a median over several daemons and over the whole run.  The
    # first launch pays one-off costs (bytecode compilation) that a
    # user's later launches do not, so its set-up time is not counted.
    setups, rss_kb, ladder = [], 0, []
    for launch_index in range(SERVE_LAUNCHES):
        daemon = Daemon(bench, trace=False)
        if launch_index:
            setups.append(daemon.ready_s)
        try:
            expected = checked(daemon)
            for _ in range(per_daemon):
                audited.append(drive_rung(daemon, 0, audits, expected, window=AUDIT_WINDOW))
                tally(audited[-1], strict=True)
                nominal_window(daemon, expected)
            if launch_index == SERVE_LAUNCHES - 1:
                for rate in LADDER_RPS:
                    # a rung gets one retry, so a passing stall on this
                    # shared machine is not read as the knee
                    for _ in range(2):
                        ladder.append(drive_rung(daemon, rate, first(rate * rung_s), expected))
                        tally(ladder[-1], strict=rate <= NOMINAL_RPS)
                        if ladder[-1].passed:
                            break
                    if not ladder[-1].passed:
                        break  # past the knee
        finally:
            stopped = daemon.stop()
        if not ladder:  # overload makes the ladder daemon's memory vary
            rss_kb = max(rss_kb, stopped.maxrss_kb)
    check_prefixes()
    nominal_passed = all(r.passed for r in nominal)
    passing = ([NOMINAL_RPS] if nominal_passed else []) + [r.rate for r in ladder if r.passed]
    max_rate = max(passing) if passing else 0.0
    audit_rate = median([phase.ok_per_s * AUDIT_SIZE for phase in audited])
    p99 = median([r.p99_ms for r in nominal])
    p90 = median([loadgen.percentile(r.latencies_ms, 90) for r in nominal])
    rss_mb = rss_kb / 1024.0
    n = sum(r.count for r in nominal)
    human = {
        "setup_s": (median(setups), "s", f"launch to first ping, median; max "
                    f"{max(setups):.4f} over n={len(setups)} launches"),
        "prep_s": (prep_s, "s", "synthesize + train + bank build"),
        "train_s": (step_s["train"], "s", "one fixed-epoch repro train"),
        "latency_p50_ms": (p50(nominal), "ms", f"at {NOMINAL_RPS} req/s; n={n}"),
        "latency_p90_ms": (p90, "ms", f"at {NOMINAL_RPS} req/s, median over {len(nominal)} "
                           f"one-second windows of {NOMINAL_RPS}"),
        "latency_p99_ms": (p99, "ms", f"at {NOMINAL_RPS} req/s, median over {len(nominal)} "
                           f"one-second windows of {NOMINAL_RPS}"),
        "max_rate_rps": (max_rate, "req/s", f"highest rung with p99 < {LATENCY_LIMIT_MS:g} ms, "
                         "nothing refused or wrong, no growing backlog"),
        "audit_passwords_per_s": (audit_rate, "1/s", f"passwords correctly scored per second "
                                  f"in {AUDIT_SIZE}-password requests, {AUDIT_WINDOW} "
                                  f"outstanding; median of {len(audited)} phases of "
                                  f"{AUDIT_REQUESTS}"),
        "peak_rss_mb": (rss_mb, "MiB", "largest daemon that did not climb the ladder"),
        "failed_frac": (bench.failed / max(1, bench.attempted), "fraction",
                        f"{bench.failed}/{bench.attempted} requests"),
    }
    end_to_end = {
        "setup_s": median(setups),
        "throughput_per_s": audit_rate,
        "latency_p50_ms": p50(nominal),
        "peak_rss_mb": rss_mb,
    }
    return {"end_to_end": end_to_end, "human": human}


# ----------------------------------------------------------------------
def declared_metrics() -> Dict[str, Dict[str, str]]:
    spec = json.loads(SPEC.read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def result_line(bench: Bench, metrics: Dict[str, float], units: Dict[str, str]) -> str:
    unknown = sorted(set(metrics) - set(units))
    if unknown:
        raise BenchError(f"undeclared metrics {unknown}")
    absent = sorted(set(units) - set(metrics))
    if absent:
        raise BenchError(f"declared metrics not measured: {absent}")
    return json.dumps({
        "correct": bench.failed == 0,
        "attempted": max(1, bench.attempted),
        "failed": bench.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]} for name in units
        },
    })


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin-digests", action="store_true",
                        help="record this seed's output digests in digests.json")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: no repro sources at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    declared = declared_metrics()
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    env = fingerprint()
    try:
        if args.workload in ATTACKS:
            outcome = run_attack(bench, ATTACKS[args.workload], args.pin_digests)
        else:
            outcome = run_serve(bench, args.pin_digests)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"perfbench: {args.workload} could not run: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    if outcome.get("kernel_backend"):
        env["kernel_backend"] = outcome["kernel_backend"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("fingerprint " + json.dumps(env, sort_keys=True))
    for note in dict.fromkeys(bench.notes):  # each distinct note once, in order
        print(f"note: {note}")
    if args.trace:
        units = declared["per_layer"]
        metrics = outcome.get("per_layer", {})
        if metrics:
            # a layer this workload never enters reads 0
            metrics = dict({name: 0.0 for name in units}, **metrics)
    else:
        units = declared["end_to_end"]
        metrics = outcome.get("end_to_end", {})
        for name, (value, unit, how) in outcome.get("human", {}).items():
            print(f"detail {name:<28} {value:>16.4f} {unit:<10} ({how})")
    for name in units:
        if name in metrics:
            print(f"metric {name:<28} {metrics[name]:>16.6f} {units[name]}")
    if not metrics:
        print("perfbench: no successful measurement", file=sys.stderr)
        return 1
    try:
        print(result_line(bench, metrics, units))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
