"""Documentation link integrity: docs/ and README cross-references resolve.

Every relative markdown link in ``docs/*.md`` and ``README.md`` must point
at a file that exists in the repository (and, for ``#fragment`` links, at
a heading that exists in the target file).  External ``http(s)`` links are
out of scope -- the suite must pass offline.
"""

import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DOC_FILES = sorted([REPO / "README.md", *(REPO / "docs").glob("*.md")])

#: ``[text](target)`` links, excluding images; fenced code blocks are
#: stripped before matching so example markdown doesn't count.
LINK = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")
FENCE = re.compile(r"```.*?```", re.DOTALL)
HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)


def github_slug(heading: str) -> str:
    """GitHub's anchor slug for a heading (enough of it for our docs)."""
    text = heading.strip().lower()
    text = re.sub(r"[`*_]", "", text)
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def anchors_of(path: Path) -> set:
    return {github_slug(h) for h in HEADING.findall(path.read_text())}


def links_of(path: Path):
    text = FENCE.sub("", path.read_text())
    return LINK.findall(text)


def test_docs_exist():
    """The docs subsystem ships every guide plus the README."""
    names = {path.name for path in DOC_FILES}
    assert {
        "README.md",
        "architecture.md",
        "strategies.md",
        "parallel.md",
        "kernels.md",
    } <= names


@pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: str(p.relative_to(REPO)))
def test_relative_links_resolve(path):
    broken = []
    for target in links_of(path):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        file_part, _, fragment = target.partition("#")
        resolved = (path.parent / file_part).resolve() if file_part else path
        if file_part and not resolved.exists():
            broken.append(f"{target} (missing file)")
            continue
        if fragment and resolved.suffix == ".md":
            if github_slug(fragment) not in anchors_of(resolved):
                broken.append(f"{target} (missing heading)")
    assert not broken, f"broken links in {path.name}:\n  " + "\n  ".join(broken)


@pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: str(p.relative_to(REPO)))
def test_no_stale_contract_phrases(path):
    """Phrases describing removed contracts must not reappear: the
    pre-keyed-transport world, accounting merge/snapshot, the knobs no
    caller set, pool affinity folding, the pool's shared result channel
    with its corpse watch and the planner's second quota path, the
    codec-carrying decode of keyed deltas into a mixed-mode merge, the
    bit-packed key layout with its segment table and unpackable codecs,
    PassFlow's smoothed string stream, and the kernel backend selector."""
    text = path.read_text()
    stale = [
        "Not available with ``track_deltas``",
        "does not track deltas",
        "merge/snapshot",
        "stop_when",
        "max_batches",
        "sample_cap",
        "chunk_size",
        "batch_size=)",
        "i % P",
        "corpse watch",
        "ShardPlanner.replan",
        "_ResultChannel",
        "decode(codec)",
        "decoded through their shard's codec",
        "_keyed_merge_possible",
        "segments.npy",
        "pack_bits",
        "does not support packing",
        "smoother-free",
        "REPRO_KERNELS",
        "--kernels",
    ]
    assert [phrase for phrase in stale if phrase in text] == []
