"""Indented JSON text, the bytes of `json.dumps(obj, indent=2, sort_keys=True)`.

CPython's `json` module uses its C encoder only when `indent` is None, so an
indented report would go through the pure-Python one, generator by
generator.  `indented_json` gives the same text from one recursive function:
strings through `encode_basestring_ascii`, finite floats through
`float.__repr__`, and null, booleans, ints, NaN and ±Infinity as the
standard library spells them.  Dict keys must be str; any other key or value
type raises TypeError.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _str

__all__ = ["indented_json"]


def _encode(o, nl: str) -> str:
    """o as JSON text; nl is the line break and indent of o's own line."""
    if isinstance(o, str):
        return _str(o)
    inner = nl + "  "
    if isinstance(o, dict):
        if not o:
            return "{}"
        # sorted refuses mixed key types, _str any key that is not a str
        items = [_str(k) + ": " + _encode(o[k], inner) for k in sorted(o)]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        return "[" + inner + ("," + inner).join([_encode(v, inner) for v in o]) + nl + "]"
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if math.isfinite(o):
            return float.__repr__(o)
        return "NaN" if o != o else "Infinity" if o > 0 else "-Infinity"
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def indented_json(obj) -> str:
    """obj as `json.dumps(obj, indent=2, sort_keys=True)` writes it."""
    return _encode(obj, "\n")
