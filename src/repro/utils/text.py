"""Error-line text: untrusted strings shortened to a bounded length.

Specs, parameter values, causes and file paths all reach error lines;
each line repeats at most a head of such a string, so a hostile input
still fails with one short line.
"""

from __future__ import annotations

#: An error line repeats at most this many characters of a spec, a
#: value, a cause or a path, and at most this many unknown parameter names.
_CLIP_CHARS = 80
_CLIP_NAMES = 5


def _clip(text: object) -> str:
    """``text`` shortened for an error line: its head plus its length."""
    text = str(text)
    if len(text) <= _CLIP_CHARS:
        return text
    return f"{text[:_CLIP_CHARS]}...[{len(text)} chars]"


def _clip_names(names) -> str:
    """The first ``_CLIP_NAMES`` sorted names, plus how many more."""
    names = sorted(names)
    shown = ", ".join(_clip(name) for name in names[:_CLIP_NAMES])
    if len(names) > _CLIP_NAMES:
        shown += f" and {len(names) - _CLIP_NAMES} more"
    return shown
