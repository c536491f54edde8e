"""On-disk guess-bank artifacts: a key array plus a JSON manifest.

A bank is a directory holding one strategy's ranked guess stream,
materialized once and replayed everywhere, in two files:

* ``keys.npy`` -- the stream as uint64 interned-id keys in generation
  order (the :meth:`~repro.data.encoding.PasswordEncoder.pack_indices`
  layout, ``sum(idx_i * V**i)``, identical to
  :class:`~repro.core.guesser.KeyedCheckpointDelta` payloads).  Loaded
  with ``mmap_mode="r"`` so replaying shards never page in more than the
  slices they read.
* ``manifest.json`` -- the identity key ``(spec, seed, rng_label,
  alphabet, budget)`` plus a codec header (alphabet characters, max
  length, vocabulary size) sufficient to rebuild the exact
  :class:`~repro.data.encoding.PasswordEncoder` in a fresh process, and a
  SHA-256 checksum of ``keys.npy``.

The format version is the key layout's record: version 2 keys are
base-V numbers, and a version 1 bank (bit-packed keys) must be rebuilt.

Artifacts are byte-deterministic: the same ``(strategy, seed, budget)``
build writes identical files (no timestamps, sorted JSON keys), so banks
can be diffed, cached and content-addressed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.data.alphabet import Alphabet
from repro.data.encoding import PasswordEncoder

FORMAT = "repro-guess-bank"
VERSION = 2

KEYS_NAME = "keys.npy"
MANIFEST_NAME = "manifest.json"

#: Manifest fields every reader relies on, with their JSON types.
_MANIFEST_FIELDS = {"total": int, "unique": int, "seed": int, "spec": str,
                    "method": str, "sha256": str, "codec": dict}

#: Chunk length (keys) for streaming checksum/round-trip passes, so
#: ``verify`` never materializes the whole array either.
_VERIFY_CHUNK = 1 << 16


class BankError(RuntimeError):
    """Unusable bank artifact: missing, corrupt, or wrong for the request."""


def codec_header(codec: PasswordEncoder) -> Dict[str, object]:
    """The manifest's codec header: everything needed to rebuild ``codec``."""
    return {
        "alphabet": codec.alphabet.chars,
        "max_length": int(codec.max_length),
        "vocab_size": int(codec.vocab_size),
    }


def codec_from_header(header: Dict[str, object]) -> PasswordEncoder:
    """Rebuild the exact :class:`PasswordEncoder` a codec header describes.

    The redundant ``vocab_size`` is cross-checked against the rebuilt
    encoder so a hand-edited or corrupt manifest fails loudly instead of
    silently reinterpreting keys; a geometry too large for 64-bit keys is
    the encoder's own one-line refusal.
    """
    try:
        alphabet = Alphabet(str(header["alphabet"]))
        codec = PasswordEncoder(alphabet, max_length=int(header["max_length"]))
        vocab_size = int(header.get("vocab_size", codec.vocab_size))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise BankError(f"unusable codec header: {exc}") from exc
    if vocab_size != codec.vocab_size:
        raise BankError(
            "codec header is internally inconsistent (vocab_size "
            f"{vocab_size} does not match its {codec.vocab_size}-symbol alphabet)"
        )
    return codec


def same_codec(a, b) -> bool:
    """Whether two codecs intern passwords to the same uint64 keys."""
    return (
        a.vocab_size == b.vocab_size
        and a.max_length == b.max_length
        and getattr(getattr(a, "alphabet", None), "chars", None)
        == getattr(getattr(b, "alphabet", None), "chars", None)
    )


def _sha256_of(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def write_bank(
    path: Union[str, Path],
    keys: np.ndarray,
    *,
    codec: PasswordEncoder,
    spec: str,
    method: str,
    seed: int,
    rng_label: str = "",
) -> "GuessBank":
    """Write a bank artifact directory and return it re-opened (mmapped).

    ``keys`` is the full guess stream as uint64 interned ids in generation
    order.  Existing artifact files at ``path`` are overwritten -- builds
    are deterministic, so rewriting is idempotent.
    """
    keys = np.ascontiguousarray(keys, dtype=np.uint64)
    if keys.ndim != 1 or keys.size == 0:
        raise BankError("a bank needs a non-empty 1-D uint64 key stream")
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    np.save(path / KEYS_NAME, keys)
    manifest = {
        "format": FORMAT,
        "version": VERSION,
        "spec": spec,
        "method": method,
        "seed": int(seed),
        "rng_label": rng_label,
        "total": int(keys.size),
        "unique": int(np.unique(keys).size),
        "codec": codec_header(codec),
        "sha256": _sha256_of(path / KEYS_NAME),
    }
    (path / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    return GuessBank.open(path)


class GuessBank:
    """A read-only, memory-mapped view of one bank artifact directory.

    ``keys`` is the uint64 stream opened with ``numpy.load(...,
    mmap_mode="r")``: strided or contiguous slices of it are views into
    the file, so a shard replaying positions ``i, i+W, i+2W, ...`` only
    ever pages in the chunks it actually unpacks.
    """

    def __init__(self, path: Path, manifest: Dict[str, object], keys: np.ndarray) -> None:
        self.path = path
        self.manifest = manifest
        self.keys = keys
        self.codec = codec_from_header(manifest["codec"])
        # lazily built rank index (sorted unique keys + first-occurrence
        # ranks); None until the first lookup pays the one-time sort
        self._rank_index: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------
    @classmethod
    def open(cls, path: Union[str, Path]) -> "GuessBank":
        """Memory-map the artifact at ``path`` (read-only), validating it.

        Every way a manifest can be malformed -- not a JSON object, a
        foreign format or version, a missing or mistyped field, no usable
        codec header -- raises one :class:`BankError` line, and so does a
        path the system cannot read (too long, not permitted).
        """
        path = Path(path)
        manifest_path = path / MANIFEST_NAME
        try:
            if not manifest_path.is_file():
                raise BankError(f"no bank at {path} (missing {MANIFEST_NAME})")
            manifest = json.loads(manifest_path.read_text())
        except OSError as exc:
            from repro.strategies.registry import _clip

            raise BankError(
                f"cannot read bank at {_clip(path)}: {exc.strerror or exc}"
            ) from exc
        except ValueError as exc:
            raise BankError(f"unreadable manifest at {manifest_path}: {exc}") from exc
        if not isinstance(manifest, dict) or manifest.get("format") != FORMAT:
            raise BankError(f"{manifest_path} is not a {FORMAT} manifest")
        if manifest.get("version") != VERSION:
            raise BankError(
                f"bank {path} has format version {manifest.get('version')!r}; "
                f"this build reads version {VERSION}: rebuild the bank"
            )
        for name, kind in _MANIFEST_FIELDS.items():
            if type(manifest.get(name)) is not kind:
                raise BankError(
                    f"bank {path}: manifest {name} {manifest.get(name)!r} "
                    f"is not of type {kind.__name__}"
                )
        try:
            keys = np.load(path / KEYS_NAME, mmap_mode="r")
        except (OSError, ValueError) as exc:
            raise BankError(f"cannot map {path / KEYS_NAME}: {exc}") from exc
        if keys.dtype != np.uint64 or keys.ndim != 1:
            raise BankError(f"{path / KEYS_NAME} is not a 1-D uint64 array")
        if keys.size != manifest["total"]:
            raise BankError(
                f"bank {path}: manifest total {manifest.get('total')} != "
                f"{keys.size} stored keys"
            )
        return cls(path, manifest, keys)

    # ------------------------------------------------------------------
    @property
    def total(self) -> int:
        """Stream length: the budget the bank was materialized at."""
        return int(self.manifest["total"])

    @property
    def unique(self) -> int:
        """Distinct keys in the full stream (from the manifest)."""
        return int(self.manifest["unique"])

    @property
    def spec(self) -> str:
        """Canonical spec of the strategy the stream was sampled from."""
        return str(self.manifest["spec"])

    @property
    def method(self) -> str:
        """Report display name of the banked strategy (e.g. ``Markov-3``)."""
        return str(self.manifest["method"])

    @property
    def seed(self) -> int:
        """The RNG seed the stream was sampled under."""
        return int(self.manifest["seed"])

    @property
    def rng_label(self) -> str:
        """The ``spawn_rng`` label of the build ("" = root ``default_rng``)."""
        return str(self.manifest.get("rng_label", ""))

    def replay_spec(self) -> str:
        """The ``bank:<path>`` spec string that replays this artifact."""
        from repro.strategies.registry import format_spec

        return format_spec("bank", str(self.path))

    # ------------------------------------------------------------------
    # rank lookups (the serving tier's targeted-guessing endpoint)
    # ------------------------------------------------------------------
    def _ensure_rank_index(self) -> Tuple[np.ndarray, np.ndarray]:
        """Build (once) the sorted-key index behind :meth:`rank_of_keys`.

        A stable argsort of the stream keeps positions increasing inside
        each run of equal keys, so the first occurrence of every unique
        key is the one at its group start.  The index is two dense arrays
        -- sorted unique keys and their first-occurrence stream positions
        -- against which lookups are a binary search, never a scan of the
        mmapped stream.
        """
        if self._rank_index is None:
            order = np.argsort(self.keys, kind="stable")
            sorted_keys = np.asarray(self.keys)[order]
            unique_keys, group_starts = np.unique(sorted_keys, return_index=True)
            self._rank_index = (unique_keys, order[group_starts])
        return self._rank_index

    def rank_of_keys(self, keys: np.ndarray) -> np.ndarray:
        """1-based first-occurrence ranks for packed keys; -1 when absent.

        The rank of a guess is its position in the bank's generation-order
        stream (rank 1 = the strategy's first guess); a key the stream
        never produced maps to -1.  Vectorized: one ``searchsorted`` over
        the lazily built rank index per call.
        """
        unique_keys, first_positions = self._ensure_rank_index()
        keys = np.atleast_1d(np.asarray(keys, dtype=np.uint64))
        slots = np.searchsorted(unique_keys, keys)
        slots = np.minimum(slots, unique_keys.size - 1)
        present = unique_keys[slots] == keys
        ranks = np.full(keys.shape, -1, dtype=np.int64)
        ranks[present] = first_positions[slots[present]] + 1
        return ranks

    def rank_of(self, password: str) -> Optional[int]:
        """1-based rank of ``password`` in the banked stream, else ``None``.

        Answers the targeted-guessing question "was this password within
        the top-N ranked guesses, and at what rank?" -- ``rank_of(p) is
        not None and rank_of(p) <= N``.  Passwords the bank's codec cannot
        represent are by definition never in the stream (``None``).
        """
        if not self.codec.can_encode(password):
            return None
        rank = int(self.rank_of_keys(self.codec.pack_passwords([password]))[0])
        return None if rank < 0 else rank

    # ------------------------------------------------------------------
    def verify(self) -> List[str]:
        """Integrity-check the artifact; returns problems (empty == OK).

        Checks the keys checksum against the manifest, and that every key
        is canonical (``pack(unpack(k)) == k``, chunked so the pass streams
        through the mmap) -- a key at or above ``V**D``, or with a symbol
        after its first PAD, would silently denote a different password
        under a rebuilt codec.
        """
        problems: List[str] = []
        digest = _sha256_of(self.path / KEYS_NAME)
        if digest != self.manifest.get("sha256"):
            problems.append(
                f"keys checksum mismatch: manifest {self.manifest.get('sha256')}, "
                f"file {digest}"
            )
        unique_seen = 0
        blocks = []
        for start in range(0, self.total, _VERIFY_CHUNK):
            chunk = np.asarray(self.keys[start : start + _VERIFY_CHUNK])
            round_trip = self.codec.pack_indices(self.codec.unpack_keys(chunk))
            if (round_trip != chunk).any():
                problems.append(
                    f"non-canonical key at position "
                    f"{start + int(np.argmax(round_trip != chunk))}"
                )
                break
            blocks.append(np.unique(chunk))
        else:
            if blocks:
                unique_seen = int(np.unique(np.concatenate(blocks)).size)
            if unique_seen != self.unique:
                problems.append(
                    f"manifest records {self.unique} unique keys, stream has "
                    f"{unique_seen}"
                )
        return problems

    def describe_lines(self) -> List[str]:
        """Human-readable manifest summary (the ``bank info`` body)."""
        codec = self.codec
        return [
            f"path:       {self.path}",
            f"spec:       {self.spec}",
            f"method:     {self.method}",
            f"seed:       {self.seed}",
            f"rng_label:  {self.rng_label or '(root rng)'}",
            f"total:      {self.total}",
            f"unique:     {self.unique}",
            f"alphabet:   {len(codec.alphabet.chars)} chars + PAD "
            f"(vocab {codec.vocab_size})",
            f"max_length: {codec.max_length}",
            f"sha256:     {self.manifest['sha256']}",
        ]
