"""JSON text laid out exactly as ``json.dumps(..., indent=2)`` lays it out.

The report writers render each distinct value once and assemble the document
from the pieces, instead of building a dict for the pure-Python indenting
encoder.  ``level`` is the nesting depth of the container: 0 for the
document itself, 1 for a value of a top-level key, and so on.
"""

from __future__ import annotations

import json
from typing import Sequence


def _container(items: Sequence[str], level: int, brackets: str) -> str:
    if not items:
        return brackets
    pad = "\n" + "  " * (level + 1)
    return brackets[0] + pad + ("," + pad).join(items) + "\n" + "  " * level + brackets[1]


def json_array(items: Sequence[str], level: int) -> str:
    """Pre-rendered ``items`` as a JSON array nested ``level`` deep."""
    return _container(items, level, "[]")


def json_object(fields: Sequence[tuple[str, str]], level: int) -> str:
    """(key, pre-rendered value) pairs as a JSON object nested ``level`` deep."""
    return _container([f"{json.dumps(key)}: {value}" for key, value in fields], level, "{}")
