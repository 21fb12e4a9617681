"""Tests for GUIDs and digit arithmetic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util import DIGIT_BITS, GUID, GUID_BITS, GUID_DIGITS, secure_hash

guid_values = st.integers(min_value=0, max_value=(1 << GUID_BITS) - 1)


class TestGUIDBasics:
    def test_round_trip_bytes(self):
        g = GUID(0x1234ABCD)
        assert GUID.from_bytes(g.to_bytes()) == g

    def test_from_bytes_wrong_length(self):
        with pytest.raises(ValueError):
            GUID.from_bytes(b"\x00" * 5)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            GUID(-1)
        with pytest.raises(ValueError):
            GUID(1 << GUID_BITS)

    def test_hash_of_deterministic(self):
        assert GUID.hash_of(b"a", b"b") == GUID.hash_of(b"a", b"b")

    def test_hash_of_injective_on_boundaries(self):
        # Length prefixing means ("ab","c") != ("a","bc").
        assert GUID.hash_of(b"ab", b"c") != GUID.hash_of(b"a", b"bc")

    def test_hex_width(self):
        assert len(GUID(0).hex()) == GUID_BITS // 4

    def test_ordering(self):
        assert GUID(1) < GUID(2)
        assert GUID(2) > GUID(1)

    def test_usable_as_dict_key(self):
        d = {GUID(7): "x"}
        assert d[GUID(7)] == "x"


class TestDigits:
    def test_digit_extraction(self):
        # 0x4598: digits from least significant are 8, 9, 5, 4, 0, 0, ...
        g = GUID(0x4598)
        assert g.digit(0) == 8
        assert g.digit(1) == 9
        assert g.digit(2) == 5
        assert g.digit(3) == 4
        assert g.digit(4) == 0

    def test_digit_out_of_range(self):
        with pytest.raises(ValueError):
            GUID(0).digit(GUID_DIGITS)
        with pytest.raises(ValueError):
            GUID(0).digit(-1)

    def test_digits_tuple_length(self):
        assert len(GUID(0xFF).digits()) == GUID_DIGITS

    @given(guid_values)
    def test_digits_reconstruct_value(self, value):
        g = GUID(value)
        reconstructed = sum(
            d << (i * DIGIT_BITS) for i, d in enumerate(g.digits())
        )
        assert reconstructed == value


class TestSalt:
    def test_salts_differ(self):
        g = GUID.hash_of(b"object")
        assert g.with_salt(0) != g.with_salt(1)

    def test_salt_deterministic(self):
        g = GUID.hash_of(b"object")
        assert g.with_salt(3) == g.with_salt(3)

    def test_salted_differs_from_original(self):
        g = GUID.hash_of(b"object")
        assert g.with_salt(0) != g


class TestSecureHash:
    def test_length(self):
        assert len(secure_hash(b"x")) == 20

    def test_prefix_injective(self):
        assert secure_hash(b"ab", b"c") != secure_hash(b"a", b"bc")
