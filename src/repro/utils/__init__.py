"""Shared utilities: seeding, logging, checkpoint IO, progress reporting.

Names load their submodule on first use (:mod:`.lazy`).
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".rng": ["RngStream", "spawn_rng"],
        ".logging": ["get_logger"],
        ".serialization": ["save_checkpoint", "load_checkpoint"],
        ".progress": ["ProgressReporter"],
    },
)
