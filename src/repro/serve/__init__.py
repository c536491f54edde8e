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

Names load their submodule on first use (:mod:`repro.utils.lazy`).
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".batcher": [
            "BatcherClosed",
            "DeadlineExceeded",
            "MicroBatcher",
            "QueueFull",
            "ServeError",
            "Ticket",
        ],
        ".clock": ["FakeClock", "SystemClock"],
        ".client": ["ServeClient"],
        ".protocol": [
            "ProtocolError",
            "Request",
            "encode_response",
            "error_response",
            "ok_response",
            "parse_request",
        ],
        ".server": ["ScoringServer", "run_once"],
        ".service": [
            "BankLookupService",
            "ServeApp",
            "ServeConfigError",
            "StrengthService",
        ],
        ".stats": ["ServeStats", "batch_bucket"],
    },
)
