"""Composition-policy filtering: the ``policy(<spec>)`` wrapper family.

A :class:`CompositionPolicy` models a site's password composition rules
(minimum/maximum length, required character classes, denylisted
substrings).  Wrapped around any registry spec --
``policy(passflow:dynamic)?min_len=8&classes=lud`` -- it filters the
inner guess stream *before* accounting, so the attack budget is spent
only on guesses a policy-enforcing target would even accept, and match
rates are comparable against a policy-conformant test slice
(``PasswordDataset(..., test_filter=policy.conforms)``).

Two filter paths, bitwise identical by construction:

* **encoded batches** (``passwords=None`` + index matrix): the mask is
  computed directly on the ``(N, D)`` alphabet-index rows -- lengths from
  the PAD structure, required classes through a per-alphabet class-bit
  lookup table and one ``bitwise_or`` reduction -- so no strings are
  materialized except for the denylist's surviving candidates;
* **string batches**: the scalar :meth:`CompositionPolicy.conforms`
  reference predicate per password.

The wrapper forwards ``bind``/``bind_shard``/``on_matches`` to the inner
strategy, so policy-filtered attacks shard, replay from banks, and keep
Dynamic Sampling's latent feedback exactly like unwrapped ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.data.alphabet import Alphabet
from repro.strategies.base import GuessBatch, GuessingStrategy
from repro.strategies.registry import (
    BuildResources,
    ParamReader,
    ParamValue,
    SpecError,
    StrategySpec,
    build,
    format_spec,
    parse_spec,
    register,
)

#: Character-class codes: lowercase, uppercase, digit, symbol.
CLASS_CODES = "luds"


def char_class(ch: str) -> str:
    """The class code of one character (anything non-alnum is a symbol)."""
    if ch.islower():
        return "l"
    if ch.isupper():
        return "u"
    if ch.isdigit():
        return "d"
    return "s"


def _class_bit(code: str) -> int:
    return 1 << CLASS_CODES.index(code)


@lru_cache(maxsize=None)
def _class_bits_lut(chars: str) -> np.ndarray:
    """Alphabet-index -> class-bit lookup table (PAD at index 0 -> 0)."""
    lut = np.zeros(len(chars) + 1, dtype=np.uint8)
    for i, ch in enumerate(chars):
        lut[i + 1] = _class_bit(char_class(ch))
    return lut


@dataclass(frozen=True)
class CompositionPolicy:
    """A password composition policy, canonicalized on construction.

    ``classes`` is a string of required class codes drawn from
    :data:`CLASS_CODES` (each listed class must appear at least once);
    ``deny`` is a tuple of forbidden substrings.  Both are normalized
    (sorted, deduplicated) so equal policies compare equal and emit one
    canonical spec.
    """

    min_len: int = 1
    max_len: Optional[int] = None
    classes: str = ""
    deny: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.min_len < 0:
            raise ValueError("min_len must be >= 0")
        if self.max_len is not None and self.max_len < self.min_len:
            raise ValueError(
                f"max_len={self.max_len} is below min_len={self.min_len}"
            )
        bad = sorted(set(self.classes) - set(CLASS_CODES))
        if bad:
            raise ValueError(
                f"unknown class code(s) {''.join(bad)!r}; "
                f"codes are {CLASS_CODES!r} (lower/upper/digit/symbol)"
            )
        object.__setattr__(self, "classes", "".join(sorted(set(self.classes))))
        deny = tuple(sorted(set(self.deny)))
        for pattern in deny:
            if not pattern:
                raise ValueError("deny patterns must be non-empty")
            if "," in pattern:
                raise ValueError(
                    f"deny pattern {pattern!r} contains ',' (the list separator)"
                )
        object.__setattr__(self, "deny", deny)

    # ------------------------------------------------------------------
    # construction from spec parameters
    # ------------------------------------------------------------------
    @classmethod
    def from_params(cls, params: Mapping[str, ParamValue]) -> "CompositionPolicy":
        """Build from a spec-parameter mapping (unknown keys raise)."""
        allowed = {"min_len", "max_len", "classes", "deny"}
        unknown = sorted(set(params) - allowed)
        if unknown:
            raise ValueError(
                f"unknown policy parameter(s) {', '.join(unknown)} "
                f"(allowed: {', '.join(sorted(allowed))})"
            )
        deny_raw = str(params.get("deny", "") or "")
        return cls(
            min_len=int(params.get("min_len", 1)),
            max_len=(
                int(params["max_len"]) if params.get("max_len") is not None else None
            ),
            classes=str(params.get("classes", "") or ""),
            deny=tuple(p.strip() for p in deny_raw.split(",") if p.strip()),
        )

    @classmethod
    def from_query(cls, query: str) -> "CompositionPolicy":
        """Build from a bare query string (``"min_len=8&classes=ld"``)."""
        spec = parse_spec(f"policy?{query}" if query else "policy")
        return cls.from_params(spec.param_dict)

    def spec_params(self) -> Dict[str, ParamValue]:
        """The non-default parameters, as they appear in a canonical spec."""
        params: Dict[str, ParamValue] = {}
        if self.min_len != 1:
            params["min_len"] = self.min_len
        if self.max_len is not None:
            params["max_len"] = self.max_len
        if self.classes:
            params["classes"] = self.classes
        if self.deny:
            params["deny"] = ",".join(self.deny)
        return params

    def wrap(self, inner_spec: str) -> str:
        """The canonical ``policy(<inner>)?...`` spec applying this policy."""
        return format_spec(
            "policy",
            params=self.spec_params(),
            inner=parse_spec(inner_spec).canonical(),
        )

    # ------------------------------------------------------------------
    # the predicate, scalar and vectorized
    # ------------------------------------------------------------------
    def conforms(self, password: str) -> bool:
        """Scalar reference predicate: does ``password`` satisfy the policy?"""
        if len(password) < self.min_len:
            return False
        if self.max_len is not None and len(password) > self.max_len:
            return False
        for code in self.classes:
            if not any(char_class(ch) == code for ch in password):
                return False
        for pattern in self.deny:
            if pattern in password:
                return False
        return True

    def mask_strings(self, passwords: Sequence[str]) -> np.ndarray:
        """Boolean keep-mask over a password list (the per-string path)."""
        return np.fromiter(
            (self.conforms(p) for p in passwords),
            dtype=bool,
            count=len(passwords),
        )

    def mask_indices(self, index_matrix: np.ndarray, codec) -> np.ndarray:
        """Boolean keep-mask over an ``(N, D)`` alphabet-index matrix.

        Vectorized pre-image filtering for encoded batches: lengths and
        required classes never materialize strings; denylist patterns
        decode only the rows that survive the cheap checks.  Bitwise
        equal to ``mask_strings(codec.strings_from_indices(...))``.
        """
        matrix = np.atleast_2d(np.asarray(index_matrix, dtype=np.int64))
        keep = np.logical_and.accumulate(matrix != Alphabet.PAD_INDEX, axis=1)
        lengths = keep.sum(axis=1, dtype=np.int64)
        mask = lengths >= self.min_len
        if self.max_len is not None:
            mask &= lengths <= self.max_len
        if self.classes and mask.any():
            lut = _class_bits_lut(codec.alphabet.chars)
            # canonical rows: indices after the first PAD are dead cells
            bits = lut[np.where(keep, matrix, Alphabet.PAD_INDEX)]
            present = np.bitwise_or.reduce(bits, axis=1)
            required = np.uint8(sum(_class_bit(code) for code in self.classes))
            mask &= (present & required) == required
        if self.deny:
            candidates = np.flatnonzero(mask)
            if candidates.size:
                decoded = codec.strings_from_indices(matrix[candidates])
                for row, password in zip(candidates, decoded):
                    if any(pattern in password for pattern in self.deny):
                        mask[row] = False
        return mask


class PolicyFilterStrategy(GuessingStrategy):
    """Filter an inner strategy's stream through a :class:`CompositionPolicy`.

    Nonconforming guesses are dropped *before* they reach accounting, so
    the guess budget counts only policy-conformant attempts.  Batch
    provenance (``latents``/``features``) is filtered with the same mask,
    keeping Dynamic Sampling's match feedback aligned.

    Because the budget only counts *emitted* guesses, an inner stream
    whose output the policy rejects wholesale would spin forever;
    ``patience`` bounds that starvation deterministically -- after that
    many *consecutive* filtered-out inner guesses the stream declares
    itself dry (any conforming guess resets the counter), so the guard
    is a pure function of the stream content and never perturbs runs
    that produce conformant guesses at any reasonable rate.
    """

    DEFAULT_PATIENCE = 1_000_000

    def __init__(
        self,
        inner: GuessingStrategy,
        policy: CompositionPolicy,
        spec: Optional[str] = None,
        patience: Optional[int] = None,
    ) -> None:
        super().__init__(spec=spec)
        self.inner = inner
        self.policy = policy
        self.patience = self.DEFAULT_PATIENCE if patience is None else int(patience)
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        self.name = f"{inner.name}+Policy"
        self.replayable = bool(getattr(inner, "replayable", False))
        self._starved = 0

    # -- context plumbing: the wrapper and its inner strategy share state
    def bind(self, context) -> None:
        super().bind(context)
        self.inner.bind(self._context)

    def bind_shard(self, index: int, workers: int) -> None:
        self.inner.bind_shard(index, workers)

    def on_matches(self, batch: GuessBatch, indices: Sequence[int]) -> None:
        self.inner.on_matches(batch, indices)

    # ------------------------------------------------------------------
    def _filter(self, batch: GuessBatch) -> Optional[GuessBatch]:
        """The batch with nonconforming rows removed (None when empty)."""
        if batch.passwords is None:
            mask = self.policy.mask_indices(batch.index_matrix, batch.codec)
        else:
            mask = self.policy.mask_strings(batch.passwords)
        if mask.all():
            return batch
        if not mask.any():
            return None
        latents = batch.latents[mask] if batch.latents is not None else None
        features = batch.features[mask] if batch.features is not None else None
        if batch.passwords is None:
            return GuessBatch(
                None,
                latents=latents,
                features=features,
                index_matrix=batch.index_matrix[mask],
                codec=batch.codec,
            )
        passwords = [p for p, ok in zip(batch.passwords, mask) if ok]
        return GuessBatch(passwords, latents=latents, features=features)

    def iter_guesses(self, rng: np.random.Generator) -> Iterator[GuessBatch]:
        for batch in self.inner.iter_guesses(rng):
            size = len(batch)
            filtered = self._filter(batch)
            if filtered is None:
                # starvation counter survives generator re-entry (elastic
                # chunks), like any other wrapper position state
                self._starved += size
                if self._starved >= self.patience:
                    return
                continue
            self._starved = 0
            yield filtered


@register(
    "policy",
    "composition-policy pre-image filter over a wrapped spec: "
    "policy(<spec>)?min_len=8&classes=lud&deny=password",
    bankable="inherits the wrapped spec's replayability",
)
def _build_policy(spec: StrategySpec, resources: BuildResources) -> GuessingStrategy:
    if spec.inner is None:
        raise SpecError(
            "policy wraps another spec: policy(<spec>)?min_len=8&classes=lud"
        )
    reader = ParamReader(spec)
    raw = {
        name: reader.take(name)
        for name in ("min_len", "max_len", "classes", "deny")
        if name in spec.param_dict
    }
    patience = reader.take("patience", None, int)
    reader.finish()
    try:
        policy = CompositionPolicy.from_params(raw)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"policy spec {spec.canonical()!r}: {exc}") from None
    inner = build(
        spec.inner,
        model=resources.model,
        corpus=resources.corpus,
        alphabet=resources.alphabet,
    )
    params = dict(policy.spec_params())
    if patience is not None:
        params["patience"] = patience
    canonical = format_spec("policy", params=params, inner=inner.describe())
    try:
        return PolicyFilterStrategy(
            inner, policy, spec=canonical, patience=patience
        )
    except ValueError as exc:
        raise SpecError(f"policy spec {spec.canonical()!r}: {exc}") from None
