"""Guessing-attack accounting and reports.

Every evaluation in the paper reduces to: generate N guesses from some
model/sampler, count how many *unique test-set passwords* were matched and
how many *unique guesses* were produced, at a series of guess budgets
(Tables II and III).  This module owns that accounting so every sampler and
baseline reports identically.

The accounting core is the hot path of the whole reproduction -- millions
of guesses flow through it per attack -- so :meth:`GuessAccounting.observe`
is batch-vectorized: test-set membership is decided for a whole batch at
once with a sorted int64 hash array and :func:`numpy.searchsorted`
(candidate hits are then verified exactly against the real set, so hash
collisions cannot corrupt a report), and uniqueness bookkeeping runs as
C-level set operations instead of a per-password Python loop.  The original
per-password loop survives as :meth:`GuessAccounting.observe_scalar` and is
the reference the parity tests compare against.

:meth:`GuessAccounting.observe_encoded` is the highest-throughput mode:
batches arrive as the (N, D) alphabet-index matrices every PassFlow static
and dynamic strategy, smoothed or not, produces *before* string decoding,
are interned into exact uint64 keys
(:meth:`repro.data.encoding.PasswordEncoder.pack_indices`), and membership,
uniqueness and checkpointing all run as integer array operations --
strings are materialized only for the handful of matches and report
samples.  String batches come from the baselines, ``passflow:conditional``
and the string wrappers.  An accounting instance locks into string or
encoded mode on its first observation and raises a one-line
``ValueError`` on a switch; the two modes produce identical reports for
identical guess streams.

For the sharded runtime (:mod:`repro.runtime`) accounting states are
**delta-tracked**: with ``track_deltas=True`` every checkpoint records the
uniques/matches added since the previous checkpoint, which is what lets a
merger reconstruct global Table II/III rows from per-shard streams.
String-mode accountings emit :class:`CheckpointDelta` (string lists);
encoded-mode accountings emit :class:`KeyedCheckpointDelta` (packed uint64
arrays), so a 10^7-guess shard's delta payload is a few megabytes of
integers instead of tens of megabytes of strings, and merging runs as
sorted-array set operations.  A delta's type is its space: nothing else
records how a shard accounted.  Every accounting keeps at most
:data:`SAMPLE_CAP` matched and non-matched report samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Union

import numpy as np

from repro import kernels


@dataclass
class BudgetRow:
    """One row of a Table II/III-style report."""

    guesses: int
    unique: int
    matched: int
    match_percent: float

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict form (JSON reports, cross-run row comparisons)."""
        return {
            "guesses": self.guesses,
            "unique": self.unique,
            "matched": self.matched,
            "match_percent": self.match_percent,
        }


@dataclass
class GuessingReport:
    """Full result of one guessing attack.

    ``shard_errors`` is non-empty only for elastic parallel runs in which
    a shard's strategy crashed and its budget was re-absorbed by the
    surviving shards: the rows are still exact for the guesses actually
    made, but the sample of the attack is smaller than requested, and
    consumers (the CLI prints a warning) should know.
    """

    method: str
    test_size: int
    rows: List[BudgetRow] = field(default_factory=list)
    non_matched_samples: List[str] = field(default_factory=list)
    matched_samples: List[str] = field(default_factory=list)
    shard_errors: List[str] = field(default_factory=list)
    kernel_backend: str = field(default_factory=kernels.active_name)

    def row_at(self, guesses: int) -> BudgetRow:
        """The checkpoint row at exactly ``guesses``; KeyError if absent."""
        for row in self.rows:
            if row.guesses == guesses:
                return row
        raise KeyError(f"no checkpoint at {guesses} guesses")

    def final(self) -> BudgetRow:
        """The last checkpoint row reached; ValueError on an empty report."""
        if not self.rows:
            raise ValueError("report has no rows")
        return self.rows[-1]

    def as_dict(self) -> Dict[str, object]:
        """Machine-readable form (``repro attack --report out.json``).

        ``kernel_backend`` records which kernel backend (see
        :mod:`repro.kernels`) produced the run, so reports from mixed
        environments stay attributable.  ``shard_errors`` appears only
        when a shard crashed.
        """
        payload: Dict[str, object] = {
            "method": self.method,
            "test_size": self.test_size,
            "kernel_backend": self.kernel_backend,
            "rows": [row.as_dict() for row in self.rows],
            "matched_samples": list(self.matched_samples),
            "non_matched_samples": list(self.non_matched_samples),
        }
        if self.shard_errors:
            payload["shard_errors"] = list(self.shard_errors)
        return payload


@dataclass
class CheckpointDelta:
    """Uniques/matches first seen between two consecutive checkpoints.

    The string-mode delta payload: ``new_unique`` holds every distinct
    guess first produced inside the checkpoint window, ``new_matched``
    every test-set password first hit inside it.  Contents are unordered
    (they are only ever unioned during merges).  Encoded-mode accountings
    emit :class:`KeyedCheckpointDelta` instead.
    """

    new_unique: List[str]
    new_matched: List[str]


@dataclass
class KeyedCheckpointDelta:
    """A checkpoint delta in interned-id key space (packed uint64 arrays).

    The encoded-mode counterpart of :class:`CheckpointDelta`:
    ``new_unique_keys`` is the *sorted* array of interned uint64 keys
    (:meth:`repro.data.encoding.PasswordEncoder.pack_indices`) first seen
    inside the checkpoint window; ``new_matched_keys`` the keys of test-set
    passwords first matched inside it.  Keys are in bijection with decoded
    strings (rows are canonicalized before packing), so unioning keyed
    deltas counts exactly what unioning the corresponding string deltas
    would -- at 8 bytes per unique guess instead of a Python string.
    The codec's ``strings_from_keys`` turns either array back into strings.
    """

    new_unique_keys: np.ndarray
    new_matched_keys: np.ndarray

    @property
    def nbytes(self) -> int:
        """Raw transport payload size of both key arrays, in bytes."""
        return int(self.new_unique_keys.nbytes + self.new_matched_keys.nbytes)


#: Either delta flavor; one accounting emits only one flavor (its mode is
#: locked at first observation), and one merge takes only one flavor.
Delta = Union[CheckpointDelta, KeyedCheckpointDelta]


#: Report samples kept per list: the first this-many distinct matched and
#: non-matched guesses, in stream order.
SAMPLE_CAP = 16


def _hash_array(passwords: Iterable[str], count: int) -> np.ndarray:
    """int64 hashes of ``passwords`` (CPython caches str hashes, so later
    exact set operations on the same strings re-use this work)."""
    return np.fromiter(map(hash, passwords), dtype=np.int64, count=count)


def _sorted_contains(sorted_array: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Vectorized membership mask of ``values`` against a sorted array."""
    if sorted_array.size == 0:
        return np.zeros(len(values), dtype=bool)
    positions = np.minimum(
        np.searchsorted(sorted_array, values), sorted_array.size - 1
    )
    return sorted_array[positions] == values


def insert_sorted(sorted_array: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Merge sorted ``values``, none of them in ``sorted_array``, into it."""
    return np.insert(sorted_array, np.searchsorted(sorted_array, values), values)


def seen_in_strings(seen: Set[str], keys: np.ndarray, codec) -> np.ndarray:
    """Membership in ``seen`` of the strings ``codec`` decodes ``keys`` to."""
    strings = codec.strings_from_keys(keys)
    return np.fromiter(map(seen.__contains__, strings), dtype=bool, count=len(strings))


def validate_budgets(budgets: Sequence[int]) -> List[int]:
    """The one guess-budget invariant: distinct, ascending, positive.

    Shared by the accounting, the shard planner, and (via a caught
    ValueError) the CLI, so the rule and its messages live in one place.
    """
    if not budgets:
        raise ValueError("at least one guess budget is required")
    if sorted(budgets) != list(budgets):
        raise ValueError("budgets must be sorted ascending")
    if len(set(budgets)) != len(budgets):
        raise ValueError("budgets must be distinct")
    if any(b < 1 for b in budgets):
        raise ValueError("budgets must be positive")
    return list(budgets)


def packed_test_keys(codec, test_set: Set[str]) -> np.ndarray:
    """The sorted packed keys of every test password ``codec`` can encode.

    Targets the codec cannot represent (over-length, out-of-alphabet) can
    never be produced by an encoded stream, so dropping them from the
    packed filter is exact.  Encoded-mode accounting and the bank's
    stream-order sample scan share this one filter.
    """
    if not test_set:
        return np.empty(0, dtype=np.uint64)
    try:
        packed = codec.pack_passwords(test_set)
    except (KeyError, ValueError):
        packed = codec.pack_passwords([p for p in test_set if codec.can_encode(p)])
    return np.sort(packed)


def extend_samples(destination: List[str], additions: Sequence[str]) -> None:
    """Append fresh ``additions`` to a sample list, up to :data:`SAMPLE_CAP`."""
    seen = set(destination)
    for password in additions:
        if len(destination) >= SAMPLE_CAP:
            return
        if password not in seen:
            destination.append(password)
            seen.add(password)


class GuessAccounting:
    """Streaming accounting of generated guesses against a test set.

    Mirrors Algorithm 1's bookkeeping: ``total`` counts every generated
    guess (the num_guesses budget), ``unique`` the distinct guesses,
    ``matched`` the distinct test-set passwords hit (the set P).  Checkpoint
    rows are emitted exactly when the total crosses each requested budget.
    """

    def __init__(
        self,
        test_set: Set[str],
        budgets: Sequence[int],
        track_deltas: bool = False,
    ) -> None:
        self.test_set = test_set
        self.budgets = validate_budgets(budgets)
        self.total = 0
        self.unique: Set[str] = set()
        self.matched: Set[str] = set()
        self.rows: List[BudgetRow] = []
        self.non_matched_samples: List[str] = []
        self.matched_samples: List[str] = []
        self._next_budget_index = 0
        self._track_deltas = bool(track_deltas)
        self.deltas: List[CheckpointDelta] = []
        self._pending_unique: Set[str] = set()
        self._pending_matched: List[str] = []
        # Sorted hash array backing the vectorized membership test; hash
        # hits are always verified against the real set, so this is a
        # filter, never an oracle.
        if test_set:
            self._test_hashes: Optional[np.ndarray] = np.sort(
                _hash_array(test_set, len(test_set))
            )
        else:
            self._test_hashes = None
        # Encoded ("interned id") mode state: an accounting locks into
        # string or encoded mode on first observation.  The seen keys are
        # a large sorted array plus a small sorted tail of newer keys.
        self._mode: Optional[str] = None
        self._packed_test: Optional[np.ndarray] = None
        self._seen_keys = np.empty(0, dtype=np.uint64)
        self._tail_keys = np.empty(0, dtype=np.uint64)
        # Encoded delta tracking: the keys first seen, and the keys of
        # matches made, since the previous checkpoint.
        self._pending_new_keys: List[np.ndarray] = []
        self._pending_matched_keys: List[int] = []

    @property
    def done(self) -> bool:
        """True once the largest budget has been reached."""
        return self._next_budget_index >= len(self.budgets)

    @property
    def remaining(self) -> int:
        """Guesses still to generate before the final budget."""
        if self.done:
            return 0
        return self.budgets[-1] - self.total

    def _lock_mode(self, mode: str) -> None:
        if self._mode is None:
            self._mode = mode
        elif self._mode != mode:
            raise ValueError(
                f"accounting already observed in {self._mode!r} mode; "
                f"cannot switch to {mode!r}"
            )

    def _unique_count(self) -> int:
        """Distinct guesses so far (exact in both modes)."""
        if self._mode == "encoded":
            return int(self._seen_keys.size + self._tail_keys.size)
        return len(self.unique)

    # ------------------------------------------------------------------
    # vectorized path (the default)
    # ------------------------------------------------------------------
    def observe(self, passwords: Iterable[str]) -> List[int]:
        """Account a batch; returns indices (within batch) of new matches.

        Batch-vectorized: equivalent to :meth:`observe_scalar` item for
        item (same counters, rows, samples, and returned indices) but runs
        set membership and uniqueness updates at batch granularity.
        """
        self._lock_mode("strings")
        if self.done:
            return []
        batch = passwords if isinstance(passwords, list) else list(passwords)
        new_match_indices: List[int] = []
        offset = 0
        while offset < len(batch) and not self.done:
            # split at the next budget boundary so every checkpoint row
            # captures the counters at exactly the crossing guess
            boundary = self.budgets[self._next_budget_index] - self.total
            take = min(len(batch) - offset, boundary)
            self._observe_segment(batch[offset : offset + take], offset, new_match_indices)
            self.total += take
            offset += take
            self._maybe_checkpoint()
        return new_match_indices

    def _observe_segment(
        self, segment: List[str], offset: int, new_match_indices: List[int]
    ) -> None:
        """Account one budget-aligned slice of a batch (no checkpointing)."""
        # -- matches: vectorized hash filter, exact verification on hits --
        if self._test_hashes is not None and segment:
            hashes = _hash_array(segment, len(segment))
            hits = np.nonzero(_sorted_contains(self._test_hashes, hashes))[0]
            for i in hits.tolist():
                password = segment[i]
                if password in self.matched or password not in self.test_set:
                    continue  # repeat match, or a raw hash collision
                self.matched.add(password)
                new_match_indices.append(offset + i)
                if self._track_deltas:
                    self._pending_matched.append(password)
                if (
                    password not in self.unique
                    and len(self.matched_samples) < SAMPLE_CAP
                ):
                    self.matched_samples.append(password)
        # -- non-matched samples: ordered scan only until the cap fills --
        if len(self.non_matched_samples) < SAMPLE_CAP:
            seen_in_scan: Set[str] = set()
            for password in segment:
                if len(self.non_matched_samples) >= SAMPLE_CAP:
                    break
                if (
                    password
                    and password not in seen_in_scan
                    and password not in self.unique
                    and password not in self.test_set
                ):
                    self.non_matched_samples.append(password)
                seen_in_scan.add(password)
        # -- uniqueness: one C-level set union --
        if self._track_deltas:
            fresh = set(segment)
            fresh.difference_update(self.unique)
            self._pending_unique |= fresh
        self.unique.update(segment)

    # ------------------------------------------------------------------
    # scalar reference path (parity tests, Algorithm 1 verbatim)
    # ------------------------------------------------------------------
    def observe_scalar(self, passwords: Iterable[str]) -> List[int]:
        """The original per-password loop; semantics-defining reference."""
        self._lock_mode("strings")
        new_match_indices: List[int] = []
        for i, password in enumerate(passwords):
            if self.done:
                break
            self.total += 1
            if password not in self.unique:
                self.unique.add(password)
                if self._track_deltas:
                    self._pending_unique.add(password)
                if password in self.test_set:
                    if password not in self.matched:
                        self._note_match(password, i, new_match_indices, sample=True)
                elif len(self.non_matched_samples) < SAMPLE_CAP and password:
                    self.non_matched_samples.append(password)
            elif password in self.test_set and password not in self.matched:
                self._note_match(password, i, new_match_indices, sample=False)
            self._maybe_checkpoint()
        return new_match_indices

    def _note_match(
        self, password: str, index: int, out: List[int], sample: bool
    ) -> None:
        self.matched.add(password)
        out.append(index)
        if self._track_deltas:
            self._pending_matched.append(password)
        if sample and len(self.matched_samples) < SAMPLE_CAP:
            self.matched_samples.append(password)

    # ------------------------------------------------------------------
    # encoded path (interned uint64 ids; strings only for matches/samples)
    # ------------------------------------------------------------------
    def observe_encoded(self, index_matrix: np.ndarray, codec) -> List[int]:
        """Account a batch given as an (N, D) alphabet-index matrix.

        ``codec`` is a :class:`~repro.data.encoding.PasswordEncoder` (or
        anything with ``pack_indices`` / ``pack_passwords`` /
        ``strings_from_indices`` / ``strings_from_keys``).  Rows are
        interned into exact uint64 keys, so membership and uniqueness run
        entirely on integer arrays; the report is identical to
        ``observe(codec.strings_from_indices(m))`` but skips string
        materialization for everything except matches and samples.  With
        ``track_deltas`` each checkpoint emits a
        :class:`KeyedCheckpointDelta` -- packed key arrays, never strings
        -- which is how shard workers keep result-queue traffic compact.
        An accounting cannot mix string and encoded observations.
        """
        self._lock_mode("encoded")
        index_matrix = np.asarray(index_matrix, dtype=np.int64)
        if self.done or index_matrix.size == 0:
            return []
        index_matrix = np.atleast_2d(index_matrix)
        keys = codec.pack_indices(index_matrix)
        if self._packed_test is None:
            self._packed_test = packed_test_keys(codec, self.test_set)
        new_match_indices: List[int] = []
        offset = 0
        while offset < len(keys) and not self.done:
            boundary = self.budgets[self._next_budget_index] - self.total
            take = min(len(keys) - offset, boundary)
            self._observe_keys_segment(
                keys[offset : offset + take],
                index_matrix[offset : offset + take],
                offset,
                codec,
                new_match_indices,
            )
            self.total += take
            offset += take
            self._maybe_checkpoint()
        return new_match_indices

    def _observe_keys_segment(
        self,
        seg_keys: np.ndarray,
        seg_rows: np.ndarray,
        offset: int,
        codec,
        new_match_indices: List[int],
    ) -> None:
        sampling = len(self.non_matched_samples) < SAMPLE_CAP
        # -- matches: exact interned-id membership, decode hits only --
        if self._packed_test.size:
            hits = np.nonzero(_sorted_contains(self._packed_test, seg_keys))[0]
            if hits.size:
                hit_strings = codec.strings_from_indices(seg_rows[hits])
                # a match is a sample only when no earlier segment made it
                new = ~self.seen_mask(seg_keys[hits], codec)
                for i, password, fresh in zip(hits.tolist(), hit_strings, new.tolist()):
                    if password in self.matched:
                        continue
                    self.matched.add(password)
                    new_match_indices.append(offset + int(i))
                    if self._track_deltas:
                        self._pending_matched_keys.append(int(seg_keys[i]))
                    if fresh and len(self.matched_samples) < SAMPLE_CAP:
                        self.matched_samples.append(password)
        # -- non-matched samples: first occurrences of fresh non-test keys --
        if sampling:
            first_keys, first_positions = np.unique(seg_keys, return_index=True)
            wanted = first_keys != 0  # drop the empty password
            wanted &= ~_sorted_contains(self._packed_test, first_keys)
            wanted &= ~self.seen_mask(first_keys, codec)
            for i in np.sort(first_positions[wanted]).tolist():
                if len(self.non_matched_samples) >= SAMPLE_CAP:
                    break
                self.non_matched_samples.append(
                    codec.strings_from_indices(seg_rows[i : i + 1])[0]
                )
        # -- uniqueness: fresh keys join the small sorted tail, which merges
        # into the large sorted array once it holds a tenth as many keys,
        # so a segment never rewrites the large array --
        keys = np.sort(seg_keys)
        # deduplicated by hand: a plain np.unique imports numpy.ma (about
        # 15 ms) on first use, which every keyed attack would pay
        keys = keys[np.append(True, keys[1:] != keys[:-1])]
        fresh = keys[~self.seen_mask(keys, codec)]
        if self._track_deltas:
            self._pending_new_keys.append(fresh)
        self._tail_keys = insert_sorted(self._tail_keys, fresh)
        if 10 * self._tail_keys.size > self._seen_keys.size:
            self._seen_keys = insert_sorted(self._seen_keys, self._tail_keys)
            self._tail_keys = np.empty(0, dtype=np.uint64)

    def seen_mask(self, keys: np.ndarray, codec) -> np.ndarray:
        """Which packed ``keys`` name a guess observed so far.

        Encoded mode tests the sorted seen keys; string mode tests the
        strings ``codec`` decodes the keys to against :attr:`unique`.
        """
        if self._mode == "strings":
            return seen_in_strings(self.unique, keys, codec)
        seen = _sorted_contains(self._seen_keys, keys)
        return seen | _sorted_contains(self._tail_keys, keys)

    # ------------------------------------------------------------------
    def _emit_row(self, guesses: int) -> BudgetRow:
        """Append one checkpoint row (and its delta, when tracked)."""
        percent = (
            100.0 * len(self.matched) / len(self.test_set) if self.test_set else 0.0
        )
        row = BudgetRow(
            guesses=guesses,
            unique=self._unique_count(),
            matched=len(self.matched),
            match_percent=percent,
        )
        self.rows.append(row)
        if self._track_deltas:
            self.deltas.append(self._take_delta())
        return row

    def _maybe_checkpoint(self) -> None:
        """Emit a row (and delta, when tracked) per budget the total crossed."""
        while (
            self._next_budget_index < len(self.budgets)
            and self.total >= self.budgets[self._next_budget_index]
        ):
            self._emit_row(self.budgets[self._next_budget_index])
            self._next_budget_index += 1

    def cut_checkpoint(self) -> Optional[BudgetRow]:
        """Force a checkpoint at the current total, off the budget grid.

        The elastic runtime closes every budget *window* with a cut: a row
        labeled with exactly the guesses accounted so far plus (when delta
        tracking is on) the delta of everything added since the previous
        checkpoint -- which is how a shard that ran dry mid-window still
        ships its tail guesses to the merger.  A no-op returning ``None``
        when the total already sits on the last emitted checkpoint (or
        nothing was observed yet), so callers may invoke it defensively.
        """
        if self.total == 0 or (self.rows and self.rows[-1].guesses == self.total):
            return None
        return self._emit_row(self.total)

    def _take_delta(self) -> Delta:
        """Collect what this checkpoint window added, resetting the window.

        Encoded mode sorts the keys its segments found fresh (disjoint
        arrays, so their union is their concatenation) into a
        :class:`KeyedCheckpointDelta`; string mode drains the pending
        string sets into a :class:`CheckpointDelta`.
        """
        if self._mode == "encoded":
            fresh, self._pending_new_keys = self._pending_new_keys, []
            new_unique_keys = np.sort(np.concatenate([np.empty(0, np.uint64), *fresh]))
            new_matched_keys = np.array(self._pending_matched_keys, dtype=np.uint64)
            self._pending_matched_keys = []
            return KeyedCheckpointDelta(
                new_unique_keys=new_unique_keys, new_matched_keys=new_matched_keys
            )
        delta = CheckpointDelta(
            new_unique=list(self._pending_unique),
            new_matched=list(self._pending_matched),
        )
        self._pending_unique = set()
        self._pending_matched = []
        return delta

    def report(self, method: str) -> GuessingReport:
        """Finalize into a :class:`GuessingReport`."""
        return GuessingReport(
            method=method,
            test_size=len(self.test_set),
            rows=list(self.rows),
            non_matched_samples=list(self.non_matched_samples),
            matched_samples=list(self.matched_samples),
        )
