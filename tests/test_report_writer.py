"""The report writer against its oracle, json.dumps(indent=2, sort_keys=True)."""

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kacpal.cli import report_text


def oracle(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


texts = st.text(st.sampled_from('"\\/\n\t\x00\x1f\x7fé \U0001d11eab') | st.characters(), max_size=8)
ints = st.integers() | st.sampled_from([-(2**80), 10**30, -1, 0])
floats = st.floats() | st.sampled_from([-0.0, 1e300, -1e-300, math.nan, math.inf, -math.inf])
scalars = texts | ints | floats | st.booleans() | st.none()
# short lists over values that hash equal (0, False; 1, True, 1.0) or print
# alike (1, "1"), often side by side, so that lists a memo keyed by value
# would confuse meet at one depth, and the same list at several
lookalikes = st.lists(st.sampled_from([0, 1, True, False, 1.0, "1"]), min_size=1, max_size=2)
leaves = scalars | lookalikes | st.lists(lookalikes, min_size=2, max_size=4)


def containers(children):
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(texts, children, max_size=4)
    )


trees = st.recursive(leaves, containers, max_leaves=20)


@st.composite
def trees_with_shared_objects(draw):
    """A tree in which a few containers appear at several places and depths,
    as ``export`` shares one label dict across rows."""
    pool = draw(st.lists(trees.filter(lambda t: isinstance(t, (list, tuple, dict))),
                         min_size=1, max_size=3))
    return draw(st.recursive(leaves | st.sampled_from(pool), containers, max_leaves=30))


LEAF_LOOKALIKES = {
    "a": [True], "b": [1], "c": [1.0], "d": [[1], [True], [1.0], ["1"]],
    "e": {"x": [1], "y": [True]}, "f": [{"x": [1]}, {"x": [True]}],
}
SHARED_LEAF = [0, 1, "w"]
SHARED_DICT = {"exponents": SHARED_LEAF, "perm": [2, 1]}
# export shares one term dict, and one result list, across the result
# lists of many rows at the same depth
SHARED_TERM = {"coeff": ["1/2", "0/1"], "exponents": [1, 0], "perm": [1, 0], "word": [1]}
SHARED_RESULT = [SHARED_TERM, {"coeff": ["-1/2", "0/1"], "exponents": [0, 0], "perm": [1, 0], "word": [1]}]
SHARED_TERMS = {
    "mul": [
        {"left": SHARED_DICT, "result": SHARED_RESULT},
        {"left": SHARED_DICT, "result": [SHARED_TERM]},
        {"left": {"exponents": [1]}, "result": SHARED_RESULT},
        {"left": [SHARED_TERM], "result": [{"x": SHARED_TERM}, SHARED_TERM]},
    ],
}
# dicts of one shape whose keys hash equal but print differently, beside a
# str-keyed dict of the same printed key
KEY_LOOKALIKES = [{True: [1]}, {1: [1]}, {1.0: [1]}, {"1": [1]}, {1.0: [1]}, {True: [1]}]
# a list that is not a leaf list, reached three times at depth 1 and three
# times at depth 2
SHARED_LIST = [{"a": 1}, [2, "x"]]
SHARED_TWICE_DEEP = {
    "p": SHARED_LIST, "q": [SHARED_LIST, SHARED_LIST, SHARED_LIST],
    "r": SHARED_LIST, "s": SHARED_LIST,
}
SHARING = {
    "basis": [SHARED_DICT, SHARED_DICT],
    "rows": [{"left": SHARED_DICT, "right": [SHARED_DICT, {"deep": SHARED_DICT}]}],
    "leaf": SHARED_LEAF,
}


@settings(max_examples=200, deadline=None)
@given(trees_with_shared_objects())
@example(LEAF_LOOKALIKES)
@example(SHARING)
@example(SHARED_TERMS)
@example(KEY_LOOKALIKES)
@example(SHARED_TWICE_DEEP)
@example([[], {}, (), [[]], {"": {}}])
def test_writer_matches_json_dumps(obj):
    assert report_text(obj) == oracle(obj)


def test_non_string_keys_match_json_dumps():
    for obj in ({3: [1], 2: {}, -1: True}, {1.5: 0, -0.0: 1, math.inf: 2}, {True: 1}, {None: 2}):
        assert report_text(obj) == oracle(obj)


@pytest.mark.parametrize("bad", [{3: 1, "a": 2}, {(1,): 2}, [object()], {"a": {1, 2}}])
def test_unserializable_input_raises_type_error(bad):
    with pytest.raises(TypeError):
        oracle(bad)
    with pytest.raises(TypeError):
        report_text(bad)
