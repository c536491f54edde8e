"""Serving-tier services: warm models behind the micro-batcher.

The daemon's config surface is the registry spec grammar
(``family[:variant][?key=value&...]``), one spec per service:

``strength?model=<checkpoint.npz>&corpus=<passwords.txt>``
    A strength-scoring service: the PassFlow checkpoint is loaded
    **once** at startup, calibrated against the corpus, and pinned to
    the service's batcher worker thread -- the warm model pool.  Extra
    parameters: ``sample`` (calibration corpus cap, a positive integer,
    default 5000) and ``name`` (routing key when several models are
    served; requests pick one with their ``model`` field).

``bank:<path.bank>``
    A targeted-guessing lookup service over a memory-mapped guess bank:
    "was this password within the top-N ranked guesses, and at what
    rank?" answered by binary search over the bank's packed-uint64 rank
    index (built eagerly at startup, so first-request latency is flat).
    Extra parameter: ``name`` (requests route with their ``bank`` field).

:class:`ServeApp` owns the services, routes validated
:class:`~repro.serve.protocol.Request` objects to them, and renders
protocol responses; the transport (socket loop or ``--once`` stdin
mode) only moves lines.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional

import numpy as np

from repro.bank import BankError, GuessBank
from repro.core.model import ModelLoadError, PassFlow
from repro.core.strength import (
    BAND_LABELS,
    UNSCORABLE_LABEL,
    UNSCORABLE_SCORE,
    StrengthEstimator,
)
from repro.data.rockyou import load_password_file
from repro.serve import protocol
from repro.serve.batcher import MicroBatcher, ServeError
from repro.serve.clock import SystemClock
from repro.serve.protocol import ProtocolError, Request
from repro.serve.stats import ServeStats
from repro.strategies import SpecError, parse_spec
from repro.utils.rng import spawn_rng
from repro.utils.text import _clip, _clip_names


class ServeConfigError(ValueError):
    """Unusable ``--spec`` configuration (one-line message)."""


def _positive_int(value: Any, param: str) -> int:
    """A ``strength`` spec count, or a one-line :class:`ServeConfigError`."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ServeConfigError(
            f"strength spec parameter {param} must be a positive integer, "
            f"got {_clip(repr(value))}"
        )
    return value


def _float_or_none(value: float) -> Optional[float]:
    """JSON-safe float: ``nan`` (the unencodable sentinel) becomes None."""
    value = float(value)
    return None if np.isnan(value) else value


class StrengthService:
    """One warm strength model and its micro-batcher."""

    def __init__(
        self,
        name: str,
        estimator: StrengthEstimator,
        *,
        max_batch: int = 64,
        max_queue: int = 4096,
        clock=None,
        stats: Optional[ServeStats] = None,
    ) -> None:
        self.name = name
        self.estimator = estimator
        self.stats = stats if stats is not None else ServeStats()
        self.clock = clock if clock is not None else SystemClock()
        # serializes direct (non-batched) model access: guess_number runs
        # the Monte-Carlo estimate outside the batcher worker thread
        self._model_lock = threading.Lock()
        self.batcher = MicroBatcher(
            self._flush,
            max_batch=max_batch,
            max_queue=max_queue,
            clock=self.clock,
            stats=self.stats,
        )

    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, spec, name: str, **batcher_kwargs) -> "StrengthService":
        """Build from a parsed ``strength?...`` spec (loads the model)."""
        params = dict(spec.params)
        params.pop("name", None)
        model_path = params.pop("model", None)
        corpus_path = params.pop("corpus", None)
        sample = _positive_int(params.pop("sample", 5000), "sample")
        if params:
            raise ServeConfigError(
                f"unknown parameter(s) {_clip_names(map(str, params))} for "
                "serve spec 'strength'"
            )
        if not model_path:
            raise ServeConfigError(
                "strength spec needs model=<checkpoint.npz> "
                "(e.g. strength?model=model.npz&corpus=ref.txt)"
            )
        if not corpus_path:
            raise ServeConfigError(
                "strength spec needs corpus=<passwords.txt> for percentile "
                "calibration"
            )
        try:
            model = PassFlow.load(str(model_path))
        except ModelLoadError as exc:
            raise ServeConfigError(str(exc)) from exc
        try:
            reference = load_password_file(
                str(corpus_path),
                alphabet=model.alphabet,
                max_length=model.encoder.max_length,
            )
        except OSError as exc:
            raise ServeConfigError(
                f"cannot read corpus {_clip(corpus_path)}: {exc.strerror or _clip(exc)}"
            ) from exc
        estimator = StrengthEstimator(model)
        try:
            estimator.calibrate(reference[:sample])
        except ValueError as exc:
            raise ServeConfigError(f"calibration failed: {exc}") from exc
        return cls(name, estimator, **batcher_kwargs)

    # ------------------------------------------------------------------
    def _flush(self, passwords: List[str]) -> List[Dict[str, Any]]:
        """The batcher's vectorized evaluation: one result dict per password."""
        log_probs, percentiles, scores = self.estimator.evaluate_batch(passwords)
        return [
            {
                "score": int(score),
                "band": UNSCORABLE_LABEL
                if score == UNSCORABLE_SCORE
                else BAND_LABELS[int(score)],
                "log_prob": _float_or_none(log_prob),
                "percentile": _float_or_none(percentile),
            }
            for score, log_prob, percentile in zip(scores, log_probs, percentiles)
        ]

    def guess_number(self, password: str, sample_size: int, seed: Optional[int]) -> float:
        """Monte-Carlo guess-number estimate (serialized model access).

        ``seed`` pins the estimate: the daemon defaults to 0 so identical
        requests get identical answers regardless of request order.
        """
        rng = spawn_rng(seed if seed is not None else 0, "serve-guess-number")
        with self._model_lock:
            return self.estimator.guess_rank(
                password, sample_size=sample_size, rng=rng
            )

    def start(self) -> None:
        self.batcher.start()

    def close(self, drain: bool = True) -> None:
        self.batcher.close(drain=drain)


class BankLookupService:
    """Rank lookups against one memory-mapped guess bank."""

    def __init__(self, name: str, bank: GuessBank) -> None:
        self.name = name
        self.bank = bank
        # warm the rank index now: lookups are then lock-free reads
        bank._ensure_rank_index()

    @classmethod
    def from_spec(cls, spec, name: str) -> "BankLookupService":
        params = dict(spec.params)
        params.pop("name", None)
        if params:
            raise ServeConfigError(
                f"unknown parameter(s) {_clip_names(map(str, params))} for "
                "serve spec 'bank'"
            )
        if not spec.variant:
            raise ServeConfigError("bank spec needs a path: bank:<artifact dir>")
        try:
            bank = GuessBank.open(spec.variant)
        except BankError as exc:
            raise ServeConfigError(str(exc)) from exc
        return cls(name, bank)

    def lookup(self, passwords: List[str], top: Optional[int]) -> List[Dict[str, Any]]:
        results = []
        for password in passwords:
            rank = self.bank.rank_of(password)
            entry: Dict[str, Any] = {"rank": rank, "found": rank is not None}
            if top is not None:
                entry["within_top"] = rank is not None and rank <= top
            results.append(entry)
        return results


class ServeApp:
    """Routing core of the daemon: specs -> services, request -> response.

    Transport-free: :meth:`handle_line` maps one protocol line to one
    response line, whether the line arrived over a socket, from stdin
    (``serve --once``), or straight from a test.
    """

    def __init__(
        self,
        specs: List[str],
        *,
        max_batch: int = 64,
        max_queue: int = 4096,
        default_deadline_ms: Optional[float] = None,
        clock=None,
    ) -> None:
        self.clock = clock if clock is not None else SystemClock()
        self.stats = ServeStats()
        self.default_deadline_ms = default_deadline_ms
        self.strength: Dict[str, StrengthService] = {}
        self.banks: Dict[str, BankLookupService] = {}
        self._shutdown = threading.Event()
        if not specs:
            raise ServeConfigError("serve needs at least one --spec")
        for raw in specs:
            try:
                spec = parse_spec(raw)
            except SpecError as exc:
                raise ServeConfigError(str(exc)) from exc
            name = str(dict(spec.params).get("name", "default"))
            if spec.family == "strength":
                if name in self.strength:
                    raise ServeConfigError(
                        f"duplicate strength service name {_clip(name)!r} "
                        "(disambiguate with &name=...)"
                    )
                self.strength[name] = StrengthService.from_spec(
                    spec,
                    name,
                    max_batch=max_batch,
                    max_queue=max_queue,
                    clock=self.clock,
                    stats=self.stats,
                )
            elif spec.family == "bank":
                if name in self.banks:
                    raise ServeConfigError(
                        f"duplicate bank service name {_clip(name)!r} "
                        "(disambiguate with ?name=...)"
                    )
                self.banks[name] = BankLookupService.from_spec(spec, name)
            else:
                raise ServeConfigError(
                    f"serve spec family must be strength or bank, "
                    f"got {_clip(spec.family)!r}"
                )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ServeApp":
        for service in self.strength.values():
            service.start()
        return self

    def close(self, drain: bool = True) -> None:
        for service in self.strength.values():
            service.close(drain=drain)

    @property
    def shutdown_requested(self) -> bool:
        return self._shutdown.is_set()

    def request_shutdown(self) -> None:
        """Ask the daemon to stop (what SIGTERM and ``shutdown`` both do)."""
        self._shutdown.set()

    def wait_for_shutdown(self, timeout: Optional[float] = None) -> bool:
        return self._shutdown.wait(timeout)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _pick(self, registry: Dict[str, Any], requested: Optional[str], kind: str):
        if not registry:
            raise ProtocolError(f"no {kind} service is configured on this daemon")
        if requested is None:
            if len(registry) == 1:
                return next(iter(registry.values()))
            if "default" in registry:
                return registry["default"]
            known = ", ".join(sorted(registry))
            raise ProtocolError(
                f"several {kind} services are configured ({known}); "
                f"pick one with the {kind!r} request field"
            )
        service = registry.get(requested)
        if service is None:
            known = ", ".join(sorted(registry))
            raise ProtocolError(f"unknown {kind} {requested!r} (known: {known})")
        return service

    def handle_request(self, request: Request) -> Dict[str, Any]:
        """Serve one validated request that is not a scoring op (those go
        through :meth:`submit_scoring`); always returns a response object."""
        started = self.clock.monotonic()
        if request.op == "guess_number":
            service = self._pick(self.strength, request.model, "model")
            results = [
                {
                    "guess_number": service.guess_number(
                        password, request.sample_size, request.seed
                    )
                }
                if service.estimator.model.encoder.can_encode(password)
                else {"guess_number": None}
                for password in request.passwords
            ]
            self.stats.record_request(self.clock.monotonic() - started)
            return self._shaped(request, results)
        if request.op == "lookup":
            service = self._pick(self.banks, request.bank, "bank")
            results = service.lookup(request.passwords, request.top)
            self.stats.record_request(self.clock.monotonic() - started)
            return self._shaped(request, results)
        if request.op == "stats":
            self.stats.record_request(self.clock.monotonic() - started)
            return protocol.ok_response("stats", request.id, **self.stats_payload())
        if request.op == "ping":
            self.stats.record_request(self.clock.monotonic() - started)
            return protocol.ok_response("ping", request.id)
        if request.op == "shutdown":
            self._shutdown.set()
            return protocol.ok_response("shutdown", request.id)
        raise ProtocolError(f"unhandled op {request.op!r}")  # unreachable

    def submit_scoring(self, request: Request):
        """Queue a scoring request; returns its batcher ticket.

        Raises :class:`ProtocolError` for routing mistakes and
        :class:`~repro.serve.batcher.ServeError` for backpressure
        (:class:`QueueFull`) -- both render as one-line error responses.
        """
        service = self._pick(self.strength, request.model, "model")
        deadline = (
            request.deadline_ms
            if request.deadline_ms is not None
            else self.default_deadline_ms
        )
        return service.batcher.submit(request.passwords, deadline_ms=deadline)

    def finish_scoring(self, request: Request, ticket) -> Dict[str, Any]:
        """Wait on a scoring ticket; returns the response object."""
        try:
            results = ticket.result()
        except ServeError as exc:
            return protocol.error_response(str(exc), request.id)
        if request.op == "band":
            results = [{"band": entry["band"]} for entry in results]
        return self._shaped(request, results)

    def _shaped(self, request: Request, results: List[Dict[str, Any]]) -> Dict[str, Any]:
        """Scalar reply shape for ``password``, list shape for ``passwords``."""
        if request.single:
            return protocol.ok_response(request.op, request.id, **results[0])
        merged: Dict[str, List[Any]] = {}
        for key in results[0]:
            merged[key + "s"] = [entry[key] for entry in results]
        return protocol.ok_response(
            request.op, request.id, count=len(results), **merged
        )

    def submit_line(self, line: str):
        """One request line in, work started; the pipelining entry point.

        Scoring requests return ``(request, ticket)`` so the transport's
        reader can keep reading while the micro-batcher works (that is
        what lets one connection's pipelined requests share a flush);
        everything else -- including every error -- comes back as the
        finished response line.  Never raises :class:`ProtocolError` or
        :class:`ServeError`; they become one-line error responses.
        """
        try:
            request = protocol.parse_request(line)
        except ProtocolError as exc:
            self.stats.record_rejection("protocol")
            return protocol.encode_response(protocol.error_response(str(exc)))
        if request.op in protocol.SCORING_OPS:
            try:
                return request, self.submit_scoring(request)
            except ProtocolError as exc:
                self.stats.record_rejection("protocol")
                response = protocol.error_response(str(exc), request.id)
            except ServeError as exc:
                response = protocol.error_response(str(exc), request.id)
            return protocol.encode_response(response)
        try:
            response = self.handle_request(request)
        except ProtocolError as exc:
            self.stats.record_rejection("protocol")
            response = protocol.error_response(str(exc), request.id)
        except Exception as exc:  # the daemon's last line of defense
            response = protocol.error_response(f"internal error: {exc}", request.id)
        return protocol.encode_response(response)

    def handle_line(self, line: str) -> str:
        """One protocol line in -> one response line out; never raises."""
        try:
            result = self.submit_line(line)
            if isinstance(result, str):
                return result
            request, ticket = result
            return protocol.encode_response(self.finish_scoring(request, ticket))
        except Exception as exc:  # pragma: no cover - defensive
            return protocol.encode_response(
                protocol.error_response(f"internal error: {exc}")
            )

    # ------------------------------------------------------------------
    def stats_payload(self) -> Dict[str, Any]:
        depth = sum(s.batcher.queue_depth for s in self.strength.values())
        payload = self.stats.snapshot(queue_depth=depth)
        payload["services"] = {
            "strength": sorted(self.strength),
            "bank": sorted(self.banks),
        }
        return payload
