"""The BLAS thread count numpy's matrix products run at.

numpy's bundled OpenBLAS starts one thread per core and splits every large
gemm across them.  This process already spends its cores elsewhere: a
coupling's two networks run on two threads (``mlp_forward_pair``), shard
workers are whole processes, and the daemon's batcher shares its process
with the connection threads.  BLAS threads on top of those fight them for
the same cores, so :mod:`repro.kernels` sets BLAS to one thread when it is
imported, before any flow math runs.  Forked pool workers inherit the
setting.

The library is found without adding a package: ``np.show_config`` names
the BLAS numpy was built with, ``/proc/self/maps`` (or numpy's bundled
``numpy.libs``/``.dylibs`` directory) gives the loaded file, and ``ctypes``
binds its thread-count symbols.  When none of the known symbols is there,
BLAS is left alone and :func:`describe` reports ``"threads": None``.

One thread cannot move a bit: OpenBLAS splits a gemm among its threads by
rows and columns of the output, never along the summed dimension, so each
output element is the same sum in the same order whatever the count.
"""

from __future__ import annotations

import ctypes
import functools
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

import numpy as np

#: ``(setter, getter)`` symbol pairs, tried in order: numpy's bundled
#: scipy-openblas, an ILP64 OpenBLAS, a plain OpenBLAS.
SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)

Binding = Tuple[Callable[[int], None], Callable[[], int]]


def library_name() -> Optional[str]:
    """``"<name> <version>"`` of the BLAS numpy was built with, if known."""
    try:
        config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:  # noqa: BLE001 - older numpy has no dict mode
        return None
    return f"{config.get('name')} {config.get('version')}"


def _loaded_paths() -> list:
    """Files of this process's loaded libraries that look like a BLAS."""
    paths = []
    try:
        with open("/proc/self/maps") as maps:
            for line in maps:
                path = line.rsplit(None, 1)[-1]
                if "blas" in path.rsplit("/", 1)[-1] and path not in paths:
                    paths.append(path)
    except OSError:  # no procfs: look where numpy's wheels bundle it
        root = Path(np.__file__).resolve().parent
        for bundled in (root.parent / "numpy.libs", root / ".dylibs"):
            if bundled.is_dir():
                paths.extend(str(p) for p in sorted(bundled.glob("*blas*")))
    return paths


def bind(library) -> Optional[Binding]:
    """The first known ``(set, get)`` thread-count pair ``library`` exports."""
    for setter, getter in SYMBOLS:
        try:
            set_threads = getattr(library, setter)
            get_threads = getattr(library, getter)
        except AttributeError:
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        return set_threads, get_threads
    return None


@functools.lru_cache(maxsize=None)
def _binding() -> Optional[Binding]:
    for path in _loaded_paths():
        try:
            binding = bind(ctypes.CDLL(path))
        except OSError:
            continue
        if binding is not None:
            return binding
    return None


def set_threads(count: int) -> bool:
    """Run BLAS at ``count`` threads; ``False`` (and no change) when unmanaged."""
    binding = _binding()
    if binding is None:
        return False
    binding[0](int(count))
    return True


def threads() -> Optional[int]:
    """BLAS's current thread count, or ``None`` when it is not managed here."""
    binding = _binding()
    return None if binding is None else int(binding[1]())


def describe() -> Dict[str, object]:
    """``{"library": ..., "threads": ...}`` for reports; ``threads`` is
    ``None`` when no known thread-count symbol was found."""
    return {"library": library_name(), "threads": threads()}


__all__ = ["SYMBOLS", "bind", "describe", "library_name", "set_threads", "threads"]
