"""Package exports that load on first use (PEP 562).

With ``__getattr__, __dir__, __all__ = lazy_exports(__name__, {".model":
["PassFlow"]})`` in ``repro/core/__init__.py``, ``from repro.core import
PassFlow`` imports :mod:`repro.core.model` only when it runs.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[Callable, Callable, List[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``.

    ``exports`` maps a module, named relative to ``package`` as in a
    relative import (``".model"``, ``"..bank.replay"``), to the public
    names it defines; a name equal to its module's last part exports the
    module itself.  A name is imported once, then cached in the package
    namespace.
    """
    owners = {name: module for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        module = owners.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        loaded = importlib.import_module(module, package)
        value = loaded if module.endswith(f".{name}") else getattr(loaded, name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(owners))

    return __getattr__, __dir__, list(owners)
