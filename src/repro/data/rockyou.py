"""Loader for real password files (e.g. the user's own ``rockyou.txt``).

The repository ships no leaked data; when a user has a local copy of the
RockYou file (or any newline-separated password list) this loader applies
the same filtering the paper does: keep passwords of length <= 10 that are
representable in the chosen alphabet.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional

from repro.data.alphabet import Alphabet, default_alphabet
from repro.utils.logging import get_logger

logger = get_logger("data.rockyou")


def load_password_file(
    path: str | Path,
    alphabet: Optional[Alphabet] = None,
    max_length: int = 10,
    limit: Optional[int] = None,
    encoding: str = "latin-1",
) -> List[str]:
    """Read a newline-separated password list, applying Sec. IV-D filtering.

    Parameters
    ----------
    path:
        File to read.  RockYou is traditionally latin-1 encoded.  A file
        that cannot be opened raises the system's :class:`OSError`
        (:class:`FileNotFoundError` when it is missing).
    alphabet:
        Characters to allow (default: the library's full alphabet).
    max_length:
        Maximum password length to keep (paper: 10).
    limit:
        Optional cap on the number of *kept* passwords (reads lazily).
    """
    alphabet = alphabet or default_alphabet()
    path = Path(path)
    kept: List[str] = []
    dropped = 0
    with path.open("r", encoding=encoding, errors="ignore") as handle:
        for line in handle:
            password = line.rstrip("\r\n")
            if not password or len(password) > max_length:
                dropped += 1
                continue
            if not alphabet.is_representable(password):
                dropped += 1
                continue
            kept.append(password)
            if limit is not None and len(kept) >= limit:
                break
    logger.info("loaded %d passwords from %s (%d dropped)", len(kept), path, dropped)
    return kept
