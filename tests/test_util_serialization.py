"""Tests for the canonical encoding used for signing."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util import decode, encode

# Recursive strategy over the supported canonical value space.
canonical_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**128), max_value=2**128)
    | st.binary(max_size=64)
    | st.text(max_size=32),
    lambda children: st.lists(children, max_size=5).map(tuple)
    | st.dictionaries(st.text(max_size=8), children, max_size=5),
    max_leaves=20,
)


class TestRoundTrip:
    @given(canonical_values)
    def test_round_trip(self, value):
        assert decode(encode(value)) == value

    def test_lists_decode_as_tuples(self):
        assert decode(encode([1, 2, 3])) == (1, 2, 3)

    def test_nested_structure(self):
        value = {"a": (1, b"two", "three"), "b": {"c": None, "d": True}}
        assert decode(encode(value)) == value


class TestCanonicality:
    def test_dict_key_order_irrelevant(self):
        assert encode({"a": 1, "b": 2}) == encode({"b": 2, "a": 1})

    def test_distinct_values_distinct_encodings(self):
        assert encode(0) != encode(False)
        assert encode("") != encode(b"")
        assert encode(()) != encode({})

    def test_int_bool_disambiguated(self):
        assert decode(encode(True)) is True
        assert decode(encode(1)) == 1
        assert decode(encode(1)) is not True


class TestErrors:
    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            encode(3.14)

    def test_non_string_dict_key(self):
        with pytest.raises(TypeError):
            encode({1: "x"})

    def test_trailing_bytes_rejected(self):
        with pytest.raises(ValueError):
            decode(encode(1) + b"x")

    def test_truncated_rejected(self):
        data = encode(b"hello world")
        with pytest.raises(ValueError):
            decode(data[:-1])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            decode(b"")

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            decode(b"Z")
