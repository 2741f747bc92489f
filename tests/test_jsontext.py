"""`indented_json` against the standard library it stands in for.

Every report the CLI prints and `verify`'s `summary.json` go through
`indented_json`, which must give the bytes of
`json.dumps(obj, indent=2, sort_keys=True)` for every value it accepts.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from juliaspec.canonical import canonical_config
from juliaspec.jsontext import indented_json
from juliaspec.spectra import classify, parse_space, spectrum_summary

TEXT = st.one_of(
    st.text(max_size=6),
    st.text(st.characters(max_codepoint=0x7F), max_size=6),  # '"', '\\' and the control characters
    st.sampled_from(["", "\x00\x1f\x7f", "é€😀", "\ud800", '"\\/\b\f\n\r\t', " "]),
)
FLOATS = st.one_of(
    st.floats(),
    st.floats().map(np.float64),
    st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf, 1e-320, 1e16]),
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**1000), 10**1000),
    FLOATS,
    TEXT,
)
VALUES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(TEXT, children, max_size=5),
    ),
    max_leaves=24,
)


@given(VALUES)
def test_indented_json_is_the_stdlib_text(obj):
    assert indented_json(obj) == json.dumps(obj, indent=2, sort_keys=True)


def test_indented_json_on_reports():
    rc = canonical_config("binary-p34")
    payloads = [
        classify(rc.system(), 0.3 + 0.2j, parse_space(space), budget=60, depth=4).to_json()
        for space in ("l1", "c", "c0", "linf")
    ]
    payloads.append(spectrum_summary(rc.chain(), rc.system(), lams=[0.1j, 0.9 - 0.4j, 2.5], budget=60, depth=4))
    payloads += [{}, [], {"a": [], "b": {}, "c": [{}]}]
    for obj in payloads:
        assert indented_json(obj) == json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize("obj", [
    1j,
    np.int64(3),
    np.bool_(True),
    {1: "a"},
    {None: 0},
    {1.5: 0},
    {("a",): 0},
    {"a": 0, 1: 0},
    [0, {"x": [1j]}],
    {"x": {2: 0}},
    {1, 2},
    b"bytes",
])
def test_unsupported_values_raise_type_error(obj):
    with pytest.raises(TypeError):
        indented_json(obj)
