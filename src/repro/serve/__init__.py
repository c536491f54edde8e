"""Strength-audit serving tier: a micro-batched scoring daemon.

The paper's defensive story -- the flow doubling as a strength meter --
only matters operationally if scoring is cheap at request time.  This
package turns the one-shot CLI paths into a long-lived service:

* :mod:`repro.serve.protocol` -- the NDJSON request/response schema,
* :mod:`repro.serve.batcher` -- the micro-batching scheduler (bounded
  queue, flush as soon as the worker is free, per-request deadlines),
* :mod:`repro.serve.service` -- warm model pool + request routing,
* :mod:`repro.serve.server` -- the socket transport and ``--once`` loop,
* :mod:`repro.serve.client` -- a minimal line client for tests/scripts,
* :mod:`repro.serve.clock` -- the virtual-time seam the deadline tests use,
* :mod:`repro.serve.stats` -- the ``stats`` endpoint's counters.

See ``docs/serve.md`` for the protocol and the determinism contract
(batched answers are bitwise identical to serial scoring).
"""

from repro.serve.batcher import (
    BatcherClosed,
    DeadlineExceeded,
    MicroBatcher,
    QueueFull,
    ServeError,
    Ticket,
)
from repro.serve.clock import FakeClock, SystemClock
from repro.serve.client import ServeClient
from repro.serve.protocol import (
    ProtocolError,
    Request,
    encode_response,
    error_response,
    ok_response,
    parse_request,
)
from repro.serve.server import ScoringServer, run_once
from repro.serve.service import (
    BankLookupService,
    ServeApp,
    ServeConfigError,
    StrengthService,
)
from repro.serve.stats import ServeStats, batch_bucket

__all__ = [
    "BankLookupService",
    "BatcherClosed",
    "DeadlineExceeded",
    "FakeClock",
    "MicroBatcher",
    "ProtocolError",
    "QueueFull",
    "Request",
    "ScoringServer",
    "ServeApp",
    "ServeClient",
    "ServeConfigError",
    "ServeError",
    "ServeStats",
    "StrengthService",
    "SystemClock",
    "Ticket",
    "batch_bucket",
    "encode_response",
    "error_response",
    "ok_response",
    "parse_request",
    "run_once",
]
