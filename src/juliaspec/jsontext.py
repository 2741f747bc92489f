"""Indented JSON text, the bytes of `json.dumps(obj, indent=2, sort_keys=True)`.

CPython's `json` module uses its C encoder only when `indent` is None, so an
indented report would go through the pure-Python one, generator by
generator.  `indented_json` gives the same text from one recursive call per
container: strings through `encode_basestring_ascii`, finite floats through
`float.__repr__`, and null, booleans, ints, NaN and ±Infinity as the
standard library spells them.  A container formats its str, int and float
values in its own loop, with no call per scalar.  A report repeats its
floats (a λ appears once per space), so each distinct nonzero finite float
is formatted once per document and its text kept in a per-call dict.  0.0
and -0.0 are equal as dict keys, so zeros are never kept there and each
keeps its own sign; NaN and ±Infinity are never kept either.  Dict keys must
be str; any other key or value type raises TypeError.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _str

__all__ = ["indented_json"]


def _float(v: float, floats: dict) -> str:
    """v as JSON text, kept in floats when it is a nonzero finite value."""
    if not math.isfinite(v):
        return "NaN" if v != v else "Infinity" if v > 0 else "-Infinity"
    text = float.__repr__(v)
    if v:
        floats[v] = text
    return text


def _encode(o, nl: str, floats: dict) -> str:
    """o as JSON text; nl is the line break and indent of o's own line, floats the kept texts."""
    if isinstance(o, dict):
        if not o:
            return "{}"
        keys = sorted(o)  # refuses mixed key types, and _str below any key that is not a str
        values = [o[k] for k in keys]
    elif isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        keys, values = None, o
    else:
        return _scalar(o, floats)
    inner = nl + "  "
    texts = []
    for v in values:
        cls = type(v)
        if cls is str:
            texts.append(_str(v))
        elif cls is float:
            texts.append(floats.get(v) or _float(v, floats))
        elif cls is int:
            texts.append(int.__repr__(v))
        else:
            texts.append(_encode(v, inner, floats))
    if keys is None:
        return "[" + inner + ("," + inner).join(texts) + nl + "]"
    items = [_str(k) + ": " + t for k, t in zip(keys, texts)]
    return "{" + inner + ("," + inner).join(items) + nl + "}"


def _scalar(o, floats: dict) -> str:
    """o, which is no container, as JSON text."""
    if isinstance(o, str):
        return _str(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return floats.get(o) or _float(o, floats)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def indented_json(obj) -> str:
    """obj as `json.dumps(obj, indent=2, sort_keys=True)` writes it."""
    return _encode(obj, "\n", {})
