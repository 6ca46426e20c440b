"""The CLI's report writer against json.dumps(obj, indent=2, sort_keys=True)
on drawn JSON trees: empty and nested containers, tuples, every scalar kind
(NaN and the infinities included), string, integer, float and boolean keys,
and non-ASCII text and escapes in keys and strings.  conftest checks every
report the other tests write the same way.

Runs only where hypothesis is installed; the package itself does not
depend on it.
"""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from isodescent.cli import _json_text  # noqa: E402

SCALARS = (st.none() | st.booleans() | st.integers()
           | st.floats(allow_nan=True, allow_infinity=True)
           | st.text() | st.sampled_from(["", "\"\\/\b\f\n\r\t\x00\x1f", "é", " ", "😀"]))


def trees(keys):
    return st.recursive(
        SCALARS,
        lambda children: (st.lists(children, max_size=5)
                          | st.lists(children, max_size=3).map(tuple)
                          | st.dictionaries(keys, children, max_size=5)),
        max_leaves=30)


@settings(max_examples=300, deadline=None, database=None)
@given(trees(st.text()))
def test_string_keyed_trees_match_json_dumps(tree):
    assert _json_text(tree) == json.dumps(tree, indent=2, sort_keys=True)


# json.dumps sorts the keys before it converts them to strings, so one
# dict holds keys of types that sort together: ints and bools, or floats
@settings(max_examples=100, deadline=None, database=None)
@given(trees(st.integers() | st.booleans()) | trees(st.floats(allow_nan=False)))
def test_scalar_keyed_trees_match_json_dumps(tree):
    assert _json_text(tree) == json.dumps(tree, indent=2, sort_keys=True)


def test_empty_containers_and_scalars():
    for obj in ({}, [], (), {"a": {}, "b": [], "c": ()}, [[]], [{}], None, True,
                False, 0, -7, 2.5, -0.0, float("nan"), float("-inf"), "é\n"):
        assert _json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)
