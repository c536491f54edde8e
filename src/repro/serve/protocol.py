"""The serving tier's wire protocol: newline-delimited JSON.

One request object per line in, one response object per line out, in
request order.  The grammar is deliberately tiny and typo-proof -- the
same philosophy as the strategy spec registry: unknown operations and
malformed fields come back as **one-line error responses**, never as a
dropped connection or a server-side traceback.

Requests::

    {"op": "score",        "password": "love12"}          # or "passwords": [...]
    {"op": "band",         "password": "love12"}
    {"op": "guess_number", "password": "love12", "sample_size": 4096, "seed": 0}
    {"op": "lookup",       "password": "love12", "top": 100000}
    {"op": "stats"}
    {"op": "ping"}
    {"op": "shutdown"}

Optional fields on any scoring/lookup request: ``id`` (echoed verbatim in
the response), ``model`` / ``bank`` (route to a named service when the
daemon serves several), ``deadline_ms`` (per-request latency budget --
requests still queued when it expires are rejected, not scored late).

Responses always carry ``"ok"``: ``{"ok": true, "op": ..., "id": ...,
...payload}`` or ``{"ok": false, "error": "<one line>", "id": ...}``.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List, Optional

#: Operations the daemon understands.
OPS = ("score", "band", "guess_number", "lookup", "stats", "ping", "shutdown")

#: Operations answered by a strength service's micro-batcher.
SCORING_OPS = ("score", "band")

#: Hard cap on passwords in one request: a single caller cannot wedge the
#: shared queue (and a multi-megabyte line is rejected before parsing).
MAX_PASSWORDS_PER_REQUEST = 1024

#: Longest request line accepted, bytes (fits MAX_PASSWORDS_PER_REQUEST
#: max-length passwords with generous JSON overhead).
MAX_LINE_BYTES = 1 << 20


class ProtocolError(ValueError):
    """Malformed request; the message is the one-line client-facing error."""


class Request:
    """A validated request: ``op`` plus op-specific fields."""

    __slots__ = ("op", "id", "passwords", "single", "model", "bank",
                 "deadline_ms", "sample_size", "seed", "top")

    def __init__(
        self,
        op: str,
        *,
        id: Any = None,
        passwords: Optional[List[str]] = None,
        single: bool = False,
        model: Optional[str] = None,
        bank: Optional[str] = None,
        deadline_ms: Optional[float] = None,
        sample_size: int = 4096,
        seed: Optional[int] = None,
        top: Optional[int] = None,
    ) -> None:
        self.op = op
        self.id = id
        self.passwords = passwords or []
        self.single = single  # request used "password" (scalar reply shape)
        self.model = model
        self.bank = bank
        self.deadline_ms = deadline_ms
        self.sample_size = sample_size
        self.seed = seed
        self.top = top


def _require_str_list(value: Any, field: str) -> List[str]:
    if not isinstance(value, list) or not all(isinstance(p, str) for p in value):
        raise ProtocolError(f"{field!r} must be a list of strings")
    if not value:
        raise ProtocolError(f"{field!r} must not be empty")
    if len(value) > MAX_PASSWORDS_PER_REQUEST:
        raise ProtocolError(
            f"at most {MAX_PASSWORDS_PER_REQUEST} passwords per request "
            f"(got {len(value)})"
        )
    return list(value)


def _optional_number(payload: Dict[str, Any], field: str, minimum: float = 0.0):
    value = payload.get(field)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(f"{field!r} must be a number")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer beyond float range
        finite = False
    if not finite:
        raise ProtocolError(f"{field!r} must be a finite number")
    if value < minimum:
        raise ProtocolError(f"{field!r} must be >= {minimum}")
    return value


def parse_request(line: str) -> Request:
    """Parse and validate one request line; :class:`ProtocolError` on misuse."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(f"request line longer than {MAX_LINE_BYTES} bytes")
    if not line.strip():
        raise ProtocolError("empty request line")
    try:
        payload = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError("request must be a JSON object")
    op = payload.get("op")
    if not isinstance(op, str) or op not in OPS:
        known = "|".join(OPS)
        raise ProtocolError(f"unknown op {op!r} (known: {known})")
    request_id = payload.get("id")
    if request_id is not None and not isinstance(request_id, (str, int)):
        raise ProtocolError("'id' must be a string or integer")
    for field in ("model", "bank"):
        value = payload.get(field)
        if value is not None and not isinstance(value, str):
            raise ProtocolError(f"{field!r} must be a string")
    deadline_ms = _optional_number(payload, "deadline_ms")
    known_fields = {"op", "id", "model", "bank", "deadline_ms"}

    passwords: Optional[List[str]] = None
    single = False
    if op in ("score", "band", "guess_number", "lookup"):
        has_single = "password" in payload
        has_many = "passwords" in payload
        if has_single == has_many:
            raise ProtocolError(
                f"op {op!r} needs exactly one of 'password' or 'passwords'"
            )
        if has_single:
            if not isinstance(payload["password"], str):
                raise ProtocolError("'password' must be a string")
            passwords, single = [payload["password"]], True
        else:
            passwords = _require_str_list(payload["passwords"], "passwords")
        known_fields |= {"password", "passwords"}

    sample_size = 4096
    seed = None
    if op == "guess_number":
        raw = _optional_number(payload, "sample_size", minimum=1)
        sample_size = 4096 if raw is None else int(raw)
        raw_seed = payload.get("seed")
        if raw_seed is not None:
            if isinstance(raw_seed, bool) or not isinstance(raw_seed, int):
                raise ProtocolError("'seed' must be an integer")
            seed = raw_seed
        known_fields |= {"sample_size", "seed"}

    top = None
    if op == "lookup":
        raw = _optional_number(payload, "top", minimum=1)
        top = None if raw is None else int(raw)
        known_fields |= {"top"}

    unknown = sorted(set(payload) - known_fields)
    if unknown:
        raise ProtocolError(
            f"unknown field(s) {', '.join(unknown)} for op {op!r}"
        )
    return Request(
        op,
        id=request_id,
        passwords=passwords,
        single=single,
        model=payload.get("model"),
        bank=payload.get("bank"),
        deadline_ms=deadline_ms,
        sample_size=sample_size,
        seed=seed,
        top=top,
    )


def ok_response(op: str, request_id: Any = None, **payload: Any) -> Dict[str, Any]:
    """A success response object (``encode_response`` renders the line)."""
    response: Dict[str, Any] = {"ok": True, "op": op}
    if request_id is not None:
        response["id"] = request_id
    response.update(payload)
    return response


def error_response(message: str, request_id: Any = None) -> Dict[str, Any]:
    """A one-line error response; newlines are flattened defensively."""
    response: Dict[str, Any] = {
        "ok": False,
        "error": " ".join(str(message).split()) or "error",
    }
    if request_id is not None:
        response["id"] = request_id
    return response


def encode_response(response: Dict[str, Any]) -> str:
    """Render a response object as its single protocol line (no newline)."""
    return json.dumps(response, sort_keys=True, separators=(",", ":"))
