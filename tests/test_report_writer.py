"""The CLI's report writer against json.dumps(obj, indent=2, sort_keys=True)
on drawn JSON trees: empty and nested containers, tuples, every scalar kind
(NaN and the infinities included), string, integer, float and boolean keys,
non-ASCII text and escapes in keys and strings, and one list referenced at
several depths, which the writer writes once per depth.  conftest checks
every report the other tests write the same way.

Runs only where hypothesis is installed; the package itself does not
depend on it.
"""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from isodescent import cli  # noqa: E402
from isodescent.cli import _json_text  # noqa: E402
from isodescent.descent import descend  # noqa: E402
from isodescent.exactfield import FieldElement  # noqa: E402

from conftest import bundle_path  # noqa: E402

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


def nonempty_lists(obj):
    """Every nonempty list or tuple in obj, obj included."""
    found, todo = [], [obj]
    while todo:
        o = todo.pop()
        if isinstance(o, dict):
            todo.extend(o.values())
        elif isinstance(o, (list, tuple)):
            found.extend([o] if o else [])
            todo.extend(o)
    return found


@st.composite
def trees_sharing_a_list(draw):
    """A drawn tree, then references to one of its lists placed at several
    depths, each wrapped in lists, tuples and dicts under drawn keys."""
    tree = draw(st.lists(trees(st.text()), min_size=1, max_size=4))
    shared = draw(st.sampled_from(nonempty_lists(tree)))
    refs = []
    for _ in range(draw(st.integers(2, 6))):
        node = shared
        for _ in range(draw(st.integers(0, 3))):
            node = draw(st.sampled_from([
                lambda x: [x, shared], lambda x: (x,), lambda x: [shared, x],
                lambda x: {draw(st.text(max_size=3)): x, "s": shared}]))(node)
        refs.append(node)
    return {draw(st.text(max_size=3)): tree, "refs": refs}


@settings(max_examples=100, deadline=None, database=None)
@given(trees_sharing_a_list())
def test_trees_sharing_a_list_match_json_dumps(tree):
    assert _json_text(tree) == json.dumps(tree, indent=2, sort_keys=True)


def test_charpoly_table_is_serialized_once_per_class(monkeypatch):
    # B_3 x B_2 over Q at ell = 5: order 384 in dimension 5, where the K
    # charpoly table holds one shared list per conjugacy class
    rep, _ = cli.load_bundle(str(bundle_path("block_b3xb2_q5")))
    res = descend(rep)
    serialize, calls = FieldElement.serialize, []

    def counted(x):
        calls.append(x)
        return serialize(x)
    monkeypatch.setattr(FieldElement, "serialize", counted)
    table = cli._ser(res.charpoly_table_K, {})
    n, classes = rep.dim, len(set(rep.conjugacy_classes()))
    assert (rep.order, n, classes) == (384, 5, 50)
    assert len(calls) == classes * (n + 1)
    assert table == [[x.serialize() for x in cp] for cp in res.charpoly_table_K]


def test_empty_containers_and_scalars():
    for obj in ({}, [], (), {"a": {}, "b": [], "c": ()}, [[]], [{}], None, True,
                False, 0, -7, 2.5, -0.0, float("nan"), float("-inf"), "é\n"):
        assert _json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)
