"""Tests for GF(256), Reed-Solomon, and Tornado erasure codes."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.archival import CodedFragment, CodingError, ReedSolomonCode, TornadoCode
from repro.archival.gf256 import (
    gf_div,
    gf_inv,
    gf_mat_inv,
    gf_matmul,
    gf_mul,
    gf_pow,
)

field_elements = st.integers(min_value=0, max_value=255)
nonzero_elements = st.integers(min_value=1, max_value=255)


class TestGF256:
    @given(field_elements, field_elements)
    def test_mul_commutative(self, a, b):
        assert gf_mul(a, b) == gf_mul(b, a)

    @given(field_elements, field_elements, field_elements)
    @settings(max_examples=50)
    def test_mul_associative(self, a, b, c):
        assert gf_mul(gf_mul(a, b), c) == gf_mul(a, gf_mul(b, c))

    @given(field_elements, field_elements, field_elements)
    @settings(max_examples=50)
    def test_distributive_over_xor(self, a, b, c):
        assert gf_mul(a, b ^ c) == gf_mul(a, b) ^ gf_mul(a, c)

    @given(field_elements)
    def test_mul_identity(self, a):
        assert gf_mul(a, 1) == a
        assert gf_mul(a, 0) == 0

    @given(nonzero_elements)
    def test_inverse(self, a):
        assert gf_mul(a, gf_inv(a)) == 1

    @given(field_elements, nonzero_elements)
    def test_div_inverts_mul(self, a, b):
        assert gf_div(gf_mul(a, b), b) == a

    def test_div_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            gf_div(5, 0)
        with pytest.raises(ZeroDivisionError):
            gf_inv(0)

    def test_pow(self):
        assert gf_pow(2, 0) == 1
        assert gf_pow(2, 1) == 2
        assert gf_pow(0, 5) == 0
        # alpha has order 255
        assert gf_pow(2, 255) == 1

    @given(field_elements)
    def test_mul_bytes_matches_scalar(self, scalar):
        # A 1x1 matrix times one row: every byte times the scalar.
        data = np.arange(256, dtype=np.uint8)
        expected = np.array([gf_mul(scalar, int(x)) for x in data], dtype=np.uint8)
        product = gf_matmul(np.array([[scalar]], dtype=np.uint8), data[None, :])
        assert np.array_equal(product[0], expected)

    def test_mat_inv_round_trip(self):
        rng = random.Random(0)
        for _ in range(5):
            while True:
                m = np.array(
                    [[rng.randrange(256) for _ in range(4)] for _ in range(4)],
                    dtype=np.uint8,
                )
                try:
                    inv = gf_mat_inv(m)
                    break
                except ValueError:
                    continue
            product = gf_matmul(m, inv)
            assert np.array_equal(product, np.eye(4, dtype=np.uint8))

    def test_singular_rejected(self):
        singular = np.zeros((3, 3), dtype=np.uint8)
        with pytest.raises(ValueError):
            gf_mat_inv(singular)


def split_data(data: bytes, k: int) -> list[bytes]:
    size = len(data) // k
    return [data[i * size : (i + 1) * size] for i in range(k)]


class TestReedSolomon:
    def test_round_trip_all_fragments(self):
        code = ReedSolomonCode(k=4, n=8)
        data = split_data(bytes(range(64)), 4)
        fragments = code.encode(data)
        assert code.decode(fragments) == data

    def test_any_k_subset_decodes(self):
        code = ReedSolomonCode(k=4, n=8)
        data = split_data(b"The essential property of erasure codes!" + bytes(23), 4)
        fragments = code.encode(data)
        import itertools

        for subset in itertools.combinations(fragments, 4):
            assert code.decode(list(subset)) == data

    def test_parity_only_decodes(self):
        code = ReedSolomonCode(k=3, n=6)
        data = split_data(bytes(range(30)), 3)
        fragments = code.encode(data)
        assert code.decode(fragments[3:]) == data

    def test_insufficient_fragments_rejected(self):
        code = ReedSolomonCode(k=4, n=8)
        data = split_data(bytes(64), 4)
        fragments = code.encode(data)
        with pytest.raises(CodingError):
            code.decode(fragments[:3])

    def test_duplicate_indices_dont_count(self):
        code = ReedSolomonCode(k=3, n=6)
        data = split_data(bytes(range(30)), 3)
        fragments = code.encode(data)
        duplicated = [fragments[0]] * 3 + [fragments[1]]
        with pytest.raises(CodingError):
            code.decode(duplicated)

    def test_systematic_prefix(self):
        code = ReedSolomonCode(k=3, n=6)
        data = split_data(bytes(range(30)), 3)
        fragments = code.encode(data)
        for i in range(3):
            assert fragments[i].payload == data[i]

    def test_invalid_params(self):
        with pytest.raises(CodingError):
            ReedSolomonCode(k=0, n=4)
        with pytest.raises(CodingError):
            ReedSolomonCode(k=4, n=4)
        with pytest.raises(CodingError):
            ReedSolomonCode(k=4, n=300)

    def test_wrong_fragment_count_encode(self):
        code = ReedSolomonCode(k=4, n=8)
        with pytest.raises(CodingError):
            code.encode([b"ab"] * 3)

    def test_ragged_fragments_rejected(self):
        code = ReedSolomonCode(k=2, n=4)
        with pytest.raises(CodingError):
            code.encode([b"abc", b"ab"])

    @given(
        st.binary(min_size=16, max_size=64).filter(lambda b: len(b) % 4 == 0),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25)
    def test_random_erasures_property(self, data, seed):
        code = ReedSolomonCode(k=4, n=10)
        chunks = split_data(data.ljust(16 + (len(data) % 4), b"\0")[: (len(data) // 4) * 4] or bytes(16), 4)
        if any(len(c) == 0 for c in chunks):
            chunks = split_data(bytes(16), 4)
        fragments = code.encode(chunks)
        rng = random.Random(seed)
        survivors = rng.sample(fragments, 4)
        assert code.decode(survivors) == chunks


class TestTornado:
    def test_round_trip_full(self):
        code = TornadoCode(k=8, n=16, seed=1)
        data = split_data(bytes(range(128)), 8)
        fragments = code.encode(data)
        assert code.decode(fragments) == data

    def test_systematic_prefix(self):
        code = TornadoCode(k=4, n=8, seed=2)
        data = split_data(bytes(range(32)), 4)
        fragments = code.encode(data)
        for i in range(4):
            assert fragments[i].payload == data[i]

    def test_decodes_with_slightly_more_than_k(self):
        # The footnote-12 property: a bit over k usually suffices.
        code = TornadoCode(k=16, n=48, seed=3)
        data = split_data(bytes(range(256)) * 2, 16)
        fragments = code.encode(data)
        rng = random.Random(7)
        successes = 0
        trials = 30
        for _ in range(trials):
            survivors = rng.sample(fragments, 24)  # 1.5x k
            try:
                if code.decode(survivors) == data:
                    successes += 1
            except CodingError:
                pass
        assert successes / trials > 0.8

    def test_exactly_k_often_insufficient(self):
        # Unlike RS, exactly-k subsets frequently stall the peeler.
        code = TornadoCode(k=16, n=32, seed=4)
        data = split_data(bytes(range(128)) + bytes(128), 16)
        fragments = code.encode(data)
        rng = random.Random(8)
        failures = 0
        for _ in range(30):
            survivors = rng.sample(fragments, 16)
            try:
                code.decode(survivors)
            except CodingError:
                failures += 1
        assert failures > 0

    def test_deterministic_given_seed(self):
        data = split_data(bytes(range(64)), 4)
        a = TornadoCode(k=4, n=8, seed=5).encode(data)
        b = TornadoCode(k=4, n=8, seed=5).encode(data)
        assert [f.payload for f in a] == [f.payload for f in b]

    def test_unknown_index_rejected(self):
        code = TornadoCode(k=4, n=8, seed=6)
        data = split_data(bytes(32), 4)
        fragments = code.encode(data)
        bogus = fragments[:4] + [CodedFragment(index=99, payload=bytes(8))]
        # Data fragments 0-3 are complete, so decode succeeds before the
        # bogus parity is touched; force reliance on it instead.
        with pytest.raises(CodingError):
            code.decode([fragments[0], fragments[1], fragments[2], bogus[-1]])

    def test_stall_reports_error(self):
        code = TornadoCode(k=8, n=10, seed=7)
        data = split_data(bytes(64), 8)
        fragments = code.encode(data)
        with pytest.raises(CodingError):
            code.decode(fragments[:4])

    def test_invalid_params(self):
        with pytest.raises(CodingError):
            TornadoCode(k=5, n=5)
