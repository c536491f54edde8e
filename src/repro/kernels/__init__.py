"""Fused kernel backends for the flow/NN hot paths.

Every numeric hot loop in the system -- coupling forward/inverse, the
logit and actnorm transforms, the residual-MLP forward, the fused
autograd backwards, and the Adam step -- dispatches through one of the
backends registered here instead of being spelled inline:

``numpy``
    The backend every command runs.  Fused: one per-thread MLP workspace
    shared by every module, ``out=`` arithmetic, no per-op temporaries.
``reference``
    A plain-numpy transliteration of the seed-era :class:`Tensor`
    compositions, op for op, with the same floating-point operations in
    the same order as ``numpy`` (results are bit-identical).  It is the
    semantics anchor: the parity suite (``tests/kernels/``) switches to
    it through :func:`use_backend` and pins ``numpy`` against it.

The ``numpy`` backend loads on first use (:func:`active`), so a command
that runs no flow math imports none.

Importing this package sets numpy's BLAS to one thread (:mod:`.blas`):
the process spends its cores on its own threads and worker processes
instead (``docs/kernels.md``, "Threads").
"""

from __future__ import annotations

import contextlib
import sys
from typing import Iterator, Optional

from repro.kernels import blas

_MODULES = {
    "numpy": "repro.kernels.numpy_backend",
    "reference": "repro.kernels.reference",
}

_active = None  # the loaded backend module, once one is used

blas.set_threads(1)


def resolve(name: Optional[str] = None) -> str:
    """Check a backend name: ``None`` is ``numpy``; an unknown name is a
    one-line :class:`ValueError`."""
    if name is None:
        return "numpy"
    if name not in _MODULES:
        raise ValueError(f"kernel backend must be numpy or reference, got {name!r}")
    return name


def _load(name: str):
    # ``__import__`` rather than ``importlib``, so ``python -X importtime``
    # lists the backend a command loads
    __import__(_MODULES[name])
    return sys.modules[_MODULES[name]]


def active():
    """The active backend module, loading ``numpy`` on first use."""
    global _active
    if _active is None:
        _active = _load(resolve())
    return _active


def active_name() -> str:
    """Name of the active backend (``numpy``, or ``reference`` inside
    :func:`use_backend`), without importing a backend when none is
    loaded yet."""
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


__all__ = ["active", "active_name", "resolve", "use_backend"]
