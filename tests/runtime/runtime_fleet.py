"""Fleet helpers shared by the runtime test modules.

* :class:`ShardedSource` -- a heterogeneous fleet built through the
  index-aware ``for_shard`` seam: shard ``i`` builds ``specs[i]``
  whichever process builds it.  A pop-in-build-order factory would hand
  every forked pool worker ``specs[0]``, because each worker pops from
  its own inherited copy.
* :func:`fork_pool` -- a fork-server pool, or a skip on platforms
  without the ``fork`` start method.

The specs name the fault families the suite's ``conftest.py`` registers.
"""

from __future__ import annotations

import pytest

from repro.runtime import ProcessPoolExecutor
from repro.strategies.registry import build


class ShardedSource:
    """Shard ``i`` builds ``specs[i]``, whichever process builds it."""

    def __init__(self, specs):
        self.specs = list(specs)

    def for_shard(self, index):
        return build(self.specs[index])


def fork_pool() -> ProcessPoolExecutor:
    """A :class:`ProcessPoolExecutor`, or skip where ``fork`` is missing."""
    try:
        return ProcessPoolExecutor()
    except RuntimeError:
        pytest.skip("no fork start method on this platform")
