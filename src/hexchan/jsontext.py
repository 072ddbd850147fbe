"""Report text: JSON laid out exactly as ``json.dumps(..., indent=2)`` lays
it out, and the chunks that the per-(PAN, cycle) reports are streamed in.

The report writers render each distinct value once and assemble the document
from the pieces, instead of building a dict for the pure-Python indenting
encoder.  ``level`` is the nesting depth of the container: 0 for the
document itself, 1 for a value of a top-level key, and so on.

The reports that grow with PANs x cycles or PANs are yielded in chunks of
at most ``WRITE_CHUNK`` characters, so no report is ever held whole.
"""

from __future__ import annotations

import json
from typing import Iterator, Sequence

# Largest chunk of a streamed report, in characters.
WRITE_CHUNK = 1 << 20


def chunk_size(longest: int) -> int:
    """Pieces per chunk of a report made of pieces no longer than
    ``longest`` characters: as many as fit in ``WRITE_CHUNK`` characters,
    and at least one, so only a piece longer than the bound makes a longer
    chunk."""
    return max(1, WRITE_CHUNK // longest)


def flush_chunks(pieces: list[str], size: int) -> Iterator[str]:
    """Yield the text of ``pieces`` in chunks of at most ``size`` pieces and
    empty the list.  Writers flush before a block of units would pass
    ``size``, so only a block longer than a chunk is cut."""
    if len(pieces) <= size:
        if pieces:
            yield "".join(pieces)
    else:
        for start in range(0, len(pieces), size):
            yield "".join(pieces[start : start + size])
    pieces.clear()


def _container(items: list[str], level: int, brackets: str) -> str:
    # One join: the first and last item take the brackets and their padding.
    if not items:
        return brackets
    pad = "\n" + "  " * (level + 1)
    items[0] = brackets[0] + pad + items[0]
    items[-1] += "\n" + "  " * level + brackets[1]
    return ("," + pad).join(items)


def json_array(items: list[str], level: int) -> str:
    """Pre-rendered ``items`` as a JSON array nested ``level`` deep; uses up the list."""
    return _container(items, level, "[]")


def json_object(fields: Sequence[tuple[str, str]], level: int) -> str:
    """(key, pre-rendered value) pairs as a JSON object nested ``level`` deep."""
    return _container([f"{json.dumps(key)}: {value}" for key, value in fields], level, "{}")
