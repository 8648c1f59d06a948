"""The package's one JSON writer against json.dumps.

``incidence.to_json`` writes every indented JSON document of the CLI.
It must give ``json.dumps(value, indent=2, sort_keys=True)`` byte for
byte on the types it takes, and refuse every other type.
"""

import enum
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higgsstrata import incidence
from higgsstrata.incidence import to_json

# Quotes, backslashes and control characters next to any other character,
# non-ASCII and lone surrogates included.
TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\/\x00\x08\t\n\x0c\r\x1f\x7f \xe9\U0001d11e'),
        st.characters(),
    ),
    max_size=12,
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64 - 2, max_value=2**200),
    st.integers(min_value=-(2**200), max_value=-(2**64) + 2),
    TEXT,
)
DOCUMENTS = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(TEXT, children, max_size=5),
    ),
    max_leaves=20,
)


def test_strings_are_written_by_the_stdlib_c_encoder():
    # incidence takes the function from _json so as not to import json;
    # it must be the very function json.dumps writes strings with.
    assert incidence._json_string is json.encoder.encode_basestring_ascii


@settings(max_examples=200, deadline=None)
@given(doc=DOCUMENTS)
def test_writes_what_json_dumps_writes(doc):
    assert to_json(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_bools_next_to_ints_and_empty_containers():
    doc = {"b": [True, 1, False, 0, None], "a": {}, "c": [[], (), {"x": ()}], "d": 2**70}
    assert to_json(doc) == json.dumps(doc, indent=2, sort_keys=True)
    for scalar in (None, True, False, 0, -(2**65), "", "é\"\\\n"):
        assert to_json(scalar) == json.dumps(scalar, indent=2, sort_keys=True)


def test_subclasses_of_str_and_int():
    class Text(str):
        pass

    class Count(enum.IntEnum):
        ONE = 1

    doc = {Text("k"): [Text("v"), Count.ONE], "n": Count.ONE}
    assert to_json(doc) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "value",
    [1.0, Fraction(1, 2), {1, 2}, frozenset(), b"x", [0, 0.5], {"a": {"b": Fraction(1)}}, {1: 2}],
    ids=["float", "Fraction", "set", "frozenset", "bytes", "nested float", "nested Fraction", "int key"],
)
def test_other_types_raise_type_error(value):
    with pytest.raises(TypeError):
        to_json(value)
