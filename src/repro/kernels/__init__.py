"""Fused kernel backends for the flow/NN hot paths.

Every numeric hot loop in the system -- coupling forward/inverse, the
logit and actnorm transforms, the residual-MLP forward, the fused
autograd backwards, and the Adam step -- dispatches through one of the
backends registered here instead of being spelled inline:

``reference``
    A plain-numpy transliteration of the seed-era :class:`Tensor`
    compositions, op for op.  It is the semantics anchor: the parity
    suite (``tests/kernels/``) pins every other backend against it.
``numpy``
    The default.  Same floating-point operations in the same order as
    ``reference`` (results are bit-identical), but fused: one per-thread
    MLP workspace shared by every module, ``out=`` arithmetic, no per-op
    temporaries.
``numba``
    Optional (``pip install numba``): ``@njit``-compiled loops.  Decoded
    guess streams and bank artifacts are identical to ``numpy``; raw
    float intermediates may differ at the last ulp (see
    ``docs/kernels.md`` for the exact contract).

Selection follows the same pattern as ``REPRO_ATTACK_WORKERS``: the
``REPRO_KERNELS`` environment variable (``auto`` / ``numpy`` / ``numba``
/ ``reference``, default ``auto`` = numba when importable, else numpy)
resolved lazily on first use, or an explicit ``--kernels`` CLI flag /
:func:`select` call.  Invalid values raise a one-line :class:`ValueError`.

Importing this package sets numpy's BLAS to one thread (:mod:`.blas`):
the process spends its cores on its own threads and worker processes
instead (``docs/kernels.md``, "Threads").
"""

from __future__ import annotations

import contextlib
import importlib.util
import os
import sys
from typing import Iterator, Optional

from repro.kernels import blas

VALID_BACKENDS = ("auto", "numpy", "numba", "reference")

_MODULES = {
    "reference": "repro.kernels.reference",
    "numpy": "repro.kernels.numpy_backend",
    "numba": "repro.kernels.numba_backend",
}

_active = None  # lazily resolved backend module

blas.set_threads(1)


def numba_available() -> bool:
    """Whether the optional numba dependency can be imported."""
    return importlib.util.find_spec("numba") is not None


def resolve(name: Optional[str] = None) -> str:
    """Resolve a backend name (or the ``REPRO_KERNELS`` env default).

    ``auto`` picks ``numba`` when importable, else ``numpy``.  Raises a
    one-line :class:`ValueError` for unknown names and for an explicit
    ``numba`` request when numba is not installed.
    """
    if name is None:
        name = os.environ.get("REPRO_KERNELS", "auto")
    if name not in VALID_BACKENDS:
        raise ValueError(
            f"REPRO_KERNELS must be one of auto|numpy|numba|reference, got {name!r}"
        )
    if name == "auto":
        return "numba" if numba_available() else "numpy"
    if name == "numba" and not numba_available():
        raise ValueError(
            "kernels backend 'numba' requested but numba is not installed "
            "(pip install numba, or select the numpy backend)"
        )
    return name


def _load(name: str):
    # ``__import__`` rather than ``importlib``, so ``python -X importtime``
    # lists the backend a command loads
    __import__(_MODULES[name])
    return sys.modules[_MODULES[name]]


def select(name: Optional[str] = None) -> str:
    """Set the process-wide backend (``None`` = re-resolve from env).

    Returns the resolved backend name.  The choice sticks until the next
    :func:`select`; worker processes resolve independently from their own
    environment, which is why the CLI exports ``REPRO_KERNELS`` when
    ``--kernels`` is given.
    """
    global _active
    _active = _load(resolve(name))
    return _active.NAME


def active():
    """The active backend module, resolving ``REPRO_KERNELS`` on first use."""
    global _active
    if _active is None:
        _active = _load(resolve())
    return _active


def active_name() -> str:
    """Name of the active backend (``numpy`` / ``numba`` / ``reference``).

    Resolved from ``REPRO_KERNELS`` without importing a backend when none
    is loaded yet.
    """
    return _active.NAME if _active is not None else resolve()


@contextlib.contextmanager
def use_backend(name: str) -> Iterator[None]:
    """Temporarily switch backends (parity tests and benchmarks)."""
    global _active
    previous = _active
    _active = _load(resolve(name))
    try:
        yield
    finally:
        _active = previous


__all__ = [
    "VALID_BACKENDS",
    "active",
    "active_name",
    "numba_available",
    "resolve",
    "select",
    "use_backend",
]
