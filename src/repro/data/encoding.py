"""Password <-> feature-vector encoding.

Sec. IV-D: "Before feeding the data for training we convert the passwords in
feature vectors that contain their numerical representation and then we
normalize by the size of the alphabet."

A password of length <= D becomes a length-D integer vector of alphabet
indices (PAD-filled), then a float vector by mapping index ``k`` to the bin
center ``(k + 0.5) / V`` where ``V = len(alphabet)`` (PAD included).  Each
symbol therefore owns a width-``1/V`` bin in (0, 1); decoding is binning.

Training a continuous-density flow on discrete symbols requires
dequantization (spreading each symbol's probability mass over its bin);
:meth:`PasswordEncoder.dequantize` adds uniform noise within the bin, the
same device Pasquini et al. [33] use for their GAN and the standard practice
for flows on discrete data.

Decoding is a guessing-attack hot path (every generated guess passes
through it), so it is batch-vectorized: a character lookup table turns a
whole (N, D) index matrix into N strings in one numpy pass
(:meth:`PasswordEncoder.decode_batch`), with the original per-character
loop kept in :meth:`PasswordEncoder.from_indices` for single passwords.

For the accounting core's interned-id fast path, index rows can be
*canonicalized* (everything after the first PAD zeroed, so row <-> decoded
string is a bijection) and packed into single uint64 keys
(:meth:`PasswordEncoder.pack_indices`), letting set membership over
millions of guesses run as integer array operations.  A key is the
canonical row read as a base-V number, ``sum(idx_i * V**i)``: the D
normalized indices above are its digits.  Every codec packs, because one
whose ``V**D`` exceeds ``2**64`` is refused at construction (the compact
alphabet fits up to D = 12, the default one up to D = 10).  The inverse
(:meth:`PasswordEncoder.unpack_keys` / :meth:`PasswordEncoder.strings_from_keys`)
is exact, which is what lets the sharded runtime transport checkpoint
deltas as packed key arrays and materialize strings only on demand.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np

from repro.data.alphabet import Alphabet


class PasswordEncoder:
    """Fixed-length numeric codec for passwords.

    Parameters
    ----------
    alphabet:
        The symbol set.
    max_length:
        Model dimensionality D; the paper uses 10.
    """

    def __init__(self, alphabet: Alphabet, max_length: int = 10) -> None:
        if max_length < 1:
            raise ValueError("max_length must be >= 1")
        self.alphabet = alphabet
        self.max_length = int(max_length)
        self.vocab_size = len(alphabet)  # includes PAD
        # a key is a base-V number of max_length digits; V >= 2, so a
        # length past 64 never fits and its power is never evaluated
        if self.max_length > 64 or self.vocab_size**self.max_length > 2**64:
            raise ValueError(
                f"a {self.vocab_size}-symbol alphabet (PAD included) at "
                f"max_length={self.max_length} does not fit 64-bit keys "
                f"({self.vocab_size}^{self.max_length} > 2^64)"
            )
        self._radix = np.array(
            [self.vocab_size**i for i in range(self.max_length)], dtype=np.uint64
        )
        self.bin_width = 1.0 / self.vocab_size
        # vectorized-decode lookup table: index -> character ('' for PAD)
        self._char_lut = np.array(
            [alphabet.char_at(i) for i in range(self.vocab_size)], dtype="<U1"
        )
        # vectorized-encode lookup table: unicode code point -> index
        # (-1 marks out-of-alphabet; 0 is PAD / the NUL padding cell)
        top = max(ord(ch) for ch in alphabet.chars)
        self._codepoint_lut = np.full(top + 1, -1, dtype=np.int64)
        self._codepoint_lut[0] = Alphabet.PAD_INDEX
        for i, ch in enumerate(alphabet.chars):
            self._codepoint_lut[ord(ch)] = i + 1

    # ------------------------------------------------------------------
    # string <-> indices
    # ------------------------------------------------------------------
    def to_indices(self, password: str) -> np.ndarray:
        """Integer index vector, PAD-filled to ``max_length``."""
        if len(password) > self.max_length:
            raise ValueError(
                f"password longer than max_length={self.max_length}: {password!r}"
            )
        indices = np.full(self.max_length, Alphabet.PAD_INDEX, dtype=np.int64)
        for i, ch in enumerate(password):
            indices[i] = self.alphabet.index_of(ch)
        return indices

    def from_indices(self, indices: Sequence[int]) -> str:
        """Inverse of :meth:`to_indices`; stops at the first PAD."""
        chars: List[str] = []
        for index in indices:
            if index == Alphabet.PAD_INDEX:
                break
            chars.append(self.alphabet.char_at(int(index)))
        return "".join(chars)

    # ------------------------------------------------------------------
    # indices <-> floats
    # ------------------------------------------------------------------
    def indices_to_floats(self, indices: np.ndarray) -> np.ndarray:
        """Map indices to bin centers in (0, 1)."""
        return (np.asarray(indices, dtype=np.float64) + 0.5) * self.bin_width

    def floats_to_indices(self, values: np.ndarray) -> np.ndarray:
        """Bin float features back to alphabet indices (clipped to range)."""
        raw = np.floor(np.asarray(values, dtype=np.float64) * self.vocab_size)
        return np.clip(raw, 0, self.vocab_size - 1).astype(np.int64)

    # ------------------------------------------------------------------
    # batch-level convenience
    # ------------------------------------------------------------------
    def encode(self, password: str) -> np.ndarray:
        """Single password -> float feature vector of shape (D,)."""
        return self.indices_to_floats(self.to_indices(password))

    def encode_batch(self, passwords: Iterable[str]) -> np.ndarray:
        """Passwords -> (N, D) float matrix."""
        return self.indices_to_floats(self.indices_from_strings(passwords))

    def indices_from_strings(self, passwords: Iterable[str]) -> np.ndarray:
        """Passwords -> (N, D) index matrix, no per-character Python loop.

        Vectorized equivalent of :meth:`to_indices` per password: raises
        :class:`ValueError` for over-length passwords and :class:`KeyError`
        for out-of-alphabet characters, like the scalar path.
        """
        passwords = (
            passwords if isinstance(passwords, (list, tuple)) else list(passwords)
        )
        if not passwords:
            return np.empty((0, self.max_length), dtype=np.int64)
        raw = np.asarray(passwords)
        if raw.dtype.kind != "U":
            raise TypeError("passwords must be strings")
        if raw.dtype.itemsize // 4 > self.max_length:
            longest = max(passwords, key=len)
            raise ValueError(
                f"password longer than max_length={self.max_length}: {longest!r}"
            )
        padded = raw.astype(f"<U{self.max_length}")
        codepoints = padded.view(np.uint32).reshape(len(passwords), self.max_length)
        in_table = codepoints < self._codepoint_lut.size
        indices = np.where(
            in_table,
            self._codepoint_lut[np.minimum(codepoints, self._codepoint_lut.size - 1)],
            -1,
        )
        if (indices < 0).any():
            row, col = np.argwhere(indices < 0)[0]
            raise KeyError(f"character {passwords[row][col]!r} not in alphabet")
        if (indices != self._canonical(indices)).any():
            # a non-PAD index after a PAD cell means an embedded NUL
            raise KeyError(f"character {Alphabet.PAD_CHAR!r} not in alphabet")
        # trailing NULs vanish into numpy's U-dtype padding, so 'abc\0'
        # would otherwise alias 'abc': compare recovered vs true lengths
        recovered = (indices != Alphabet.PAD_INDEX).sum(axis=1)
        true_lengths = np.fromiter(map(len, passwords), dtype=np.int64, count=len(passwords))
        if (recovered != true_lengths).any():
            raise KeyError(f"character {Alphabet.PAD_CHAR!r} not in alphabet")
        return indices

    def decode(self, values: np.ndarray) -> str:
        """Float feature vector -> password string."""
        return self.from_indices(self.floats_to_indices(values))

    def decode_batch(self, values: np.ndarray) -> List[str]:
        """(N, D) float matrix -> list of passwords (one vectorized pass)."""
        values = np.atleast_2d(np.asarray(values))
        return self.strings_from_indices(self.floats_to_indices(values))

    def strings_from_indices(self, index_matrix: np.ndarray) -> List[str]:
        """(N, D) index matrix -> N passwords, no per-character Python loop.

        Vectorized equivalent of :meth:`from_indices` per row: characters
        after the first PAD are dropped.  Out-of-range indices must have
        been clipped already (as :meth:`floats_to_indices` guarantees).
        """
        index_matrix = np.atleast_2d(np.asarray(index_matrix, dtype=np.int64))
        if index_matrix.shape[0] == 0:
            return []
        chars = self._char_lut[self._canonical(index_matrix)]
        # (N, D) single-character cells concatenate into one fixed-width
        # string per row; masked cells are NUL, which only ever appears as
        # a suffix here and is stripped by the unicode view conversion
        width = index_matrix.shape[1]
        return chars.view(f"<U{width}").ravel().tolist()

    @staticmethod
    def _canonical(index_matrix: np.ndarray) -> np.ndarray:
        """Zero every position at or after a row's first PAD.

        Distinct raw rows can decode to the same string (decoding stops at
        the first PAD, so trailing symbols are dead); canonical rows are in
        bijection with decoded strings.
        """
        keep = np.logical_and.accumulate(index_matrix != Alphabet.PAD_INDEX, axis=1)
        return np.where(keep, index_matrix, Alphabet.PAD_INDEX)

    # ------------------------------------------------------------------
    # interned ids: canonical rows packed into uint64 keys
    # ------------------------------------------------------------------
    def pack_indices(self, index_matrix: np.ndarray) -> np.ndarray:
        """(N, D) index matrix -> N uint64 keys, one per password.

        Rows are canonicalized first, so ``pack_indices(a) == pack_indices(b)``
        exactly when the rows decode to the same string: the keys are
        collision-free interned ids, fit for exact vectorized set
        membership (:meth:`repro.core.guesser.GuessAccounting.observe_encoded`).
        A key is ``sum(idx_i * V**i)``; every partial sum is below
        ``V**D <= 2**64``, so the uint64 arithmetic never wraps.
        """
        index_matrix = np.atleast_2d(np.asarray(index_matrix, dtype=np.int64))
        canonical = self._canonical(index_matrix).astype(np.uint64)
        return canonical @ self._radix

    def can_encode(self, password: str) -> bool:
        """Whether this codec can represent ``password`` at all."""
        return (
            len(password) <= self.max_length
            and Alphabet.PAD_CHAR not in password
            and self.alphabet.is_representable(password)
        )

    def pack_passwords(self, passwords: Iterable[str]) -> np.ndarray:
        """Passwords -> uint64 interned-id keys (one vectorized pass)."""
        indices = self.indices_from_strings(passwords)
        if not indices.size:
            return np.empty(0, dtype=np.uint64)
        return self.pack_indices(indices)

    def unpack_keys(self, keys: np.ndarray) -> np.ndarray:
        """uint64 keys -> (N, D) canonical index matrix (pack inverse).

        Digit ``i`` is ``key // V**i % V``; a key at or above ``V**D``
        loses its high part, so ``pack(unpack(k)) != k`` exposes it.
        """
        rest = np.array(keys, dtype=np.uint64).reshape(-1)
        digits = np.empty((rest.size, self.max_length), dtype=np.int64)
        base = np.uint64(self.vocab_size)
        for position in range(self.max_length):
            quotient = rest // base
            digits[:, position] = rest - quotient * base
            rest = quotient
        return digits

    def strings_from_keys(self, keys: np.ndarray) -> List[str]:
        """uint64 interned-id keys -> password strings (exact inverse).

        One vectorized unpack + decode pass; the lazy-materialization hook
        for :class:`~repro.core.guesser.KeyedCheckpointDelta` payloads.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        if keys.size == 0:
            return []
        return self.strings_from_indices(self.unpack_keys(keys))

    def dequantize(self, features: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Add uniform within-bin noise: U(-w/2, w/2) with w = bin width."""
        noise = rng.uniform(-0.5 * self.bin_width, 0.5 * self.bin_width, size=features.shape)
        return features + noise

    def clamp_to_data_range(self, values: np.ndarray) -> np.ndarray:
        """Clip floats into the open unit interval covered by the bins."""
        eps = 0.25 * self.bin_width
        return np.clip(values, eps, 1.0 - eps)
