"""Memory-mapped guess banks: sample a strategy once, replay it everywhere.

The bank subsystem turns a strategy's ranked guess stream into an on-disk
artifact of packed uint64 keys (:mod:`repro.bank.artifact`), built by
driving the strategy exactly like a serial attack
(:mod:`repro.bank.builder`) and replayed through the ``bank`` registry
family as interned-id batches straight into ``observe_encoded``
(:mod:`repro.bank.replay`) -- no model, no string materialization, and
reports bit-identical to the live-sampled run across worker counts and
schedules.  See ``docs/bank.md`` for the artifact layout and the
determinism contract.

Names load their submodule on first use (:mod:`repro.utils.lazy`).
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".artifact": [
            "BankError",
            "GuessBank",
            "codec_from_header",
            "codec_header",
            "same_codec",
            "write_bank",
        ],
        ".builder": ["build_bank"],
        ".replay": [
            "BANK_DIR_ENV",
            "BankReplayStrategy",
            "bank_path_for",
            "replay_attack",
            "resolve_bank",
            "restore_stream_samples",
            "stream_samples",
        ],
    },
)
