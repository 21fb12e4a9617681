"""Archival encode differential harness: one-pass kernels vs the obvious forms.

Three parts of the archival encode path were rewritten for speed, and
each must produce the very bytes its reference in
``reference_archival.py`` produces:

* :class:`~repro.archival.gf256.PackedMatrix` packs a matrix's products
  into per-column uint64 tables, so a product is one gather of k*L words
  and an XOR over k.  Hypothesis draws matrices with r in 1..20 (r not a
  multiple of 8 included) and k in 1..16, and data rows of 1..700 bytes,
  and checks ``gf_matmul`` and a code's cached table against the
  (r, k, L) gather byte for byte.
* :func:`~repro.util.serialization.encode` appends to one buffer and
  dispatches on the exact type; subclasses (``IntEnum``, ``str``
  subclasses, named tuples) take the isinstance order.  Nested values of
  every supported type, and values that must raise, encode to the same
  bytes or raise the same ``TypeError`` with the same message.
* :func:`~repro.archival.gf256.gf_mat_inv` clears a pivot's column
  from every row in one table lookup.  Square matrices up to 16 x 16,
  singular ones included, invert to the same bytes as scalar
  Gauss-Jordan or raise the same error.
* :class:`~repro.crypto.merkle.MerkleTree` keeps every node hash in one
  blob and reads a proof out of it on demand.  For 1..40 leaves the
  root, the blob and every proof equal the per-leaf walk over separate
  levels, odd-width promotion included.

The Tornado code's parities, now XORed as rows of one byte array, equal
the per-neighbor big-int XOR.  Last, whole archival objects -- every
fragment payload, proof, Merkle root, archival GUID and wire size --
equal the reference composition of the parts, although the fragments of
one archive share one tree and one store key; and a
:class:`~repro.archival.reconstruction.FragmentStore` keyed by that
shared key still tells two archives on one server apart.
"""

from __future__ import annotations

import enum
import random
from collections import namedtuple

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_archival import (
    ReferenceMerkleTree,
    reference_encode,
    reference_gf_mat_inv,
    reference_gf_matmul,
    reference_tornado_parity,
)
from repro.archival import (
    FragmentFetcher,
    FragmentStore,
    ReedSolomonCode,
    TornadoCode,
    encode_archival,
    reconstruct_archival,
    verify_fragment,
)
from repro.archival.fragments import _chunk_for_code
from repro.archival.reconstruction import _corrupt
from repro.archival.gf256 import PackedMatrix, gf_mat_inv, gf_matmul
from repro.archival.reed_solomon import cauchy_matrix
from repro.crypto.merkle import MerkleTree, verify_proof
from repro.sim import Kernel, Network
from repro.util.ids import GUID
from repro.util.serialization import encode


@st.composite
def matrix_and_data(draw):
    rows = draw(st.integers(min_value=1, max_value=20))
    k = draw(st.integers(min_value=1, max_value=16))
    length = draw(st.integers(min_value=1, max_value=700))
    matrix = np.frombuffer(draw(st.binary(min_size=rows * k, max_size=rows * k)), dtype=np.uint8)
    # Data bytes from a seed: Hypothesis shrinks a seed far faster than
    # up to 11 KiB of drawn binary.
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    data = np.random.default_rng(seed).integers(0, 256, (k, length), dtype=np.uint8)
    return matrix.reshape(rows, k), data


class TestPackedMatrix:
    @given(matrix_and_data())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_full_gather(self, case):
        matrix, data = case
        expected = reference_gf_matmul(matrix, data)
        product = gf_matmul(matrix, data)
        assert product.dtype == np.uint8
        assert product.shape == expected.shape
        assert product.tobytes() == expected.tobytes()

    @given(matrix_and_data(), st.integers(min_value=1, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_one_table_serves_many_products(self, case, uses):
        matrix, data = case
        packed = PackedMatrix(matrix)
        for shift in range(uses):
            rotated = np.roll(data, shift, axis=1)
            assert np.array_equal(packed @ rotated, reference_gf_matmul(matrix, rotated))

    @pytest.mark.parametrize("value", [0, 1, 255])
    def test_constant_matrices(self, value):
        data = np.arange(256, dtype=np.uint8).reshape(2, 128)
        for rows in (1, 8, 9, 17):
            matrix = np.full((rows, 2), value, dtype=np.uint8)
            assert np.array_equal(gf_matmul(matrix, data), reference_gf_matmul(matrix, data))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            gf_matmul(np.ones((3, 4), dtype=np.uint8), np.ones((5, 10), dtype=np.uint8))

    @given(
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=1, max_value=20),
        st.binary(min_size=1, max_size=3000),
    )
    @settings(max_examples=60, deadline=None)
    def test_code_parity_matches_the_full_gather(self, k, parity_rows, data):
        code = ReedSolomonCode(k=k, n=k + parity_rows)
        chunks = _chunk_for_code(data, k)
        stacked = np.frombuffer(b"".join(chunks), dtype=np.uint8).reshape(k, -1)
        expected = reference_gf_matmul(cauchy_matrix(k, parity_rows), stacked)
        coded = code.encode(chunks)
        assert [f.payload for f in coded[:k]] == chunks
        assert [f.payload for f in coded[k:]] == [row.tobytes() for row in expected]


@st.composite
def square_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=16))
    rows = [draw(st.binary(min_size=n, max_size=n)) for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        # A repeated row (or a zero one) makes the matrix singular.
        rows[draw(st.integers(0, n - 1))] = draw(st.sampled_from([rows[0], bytes(n)]))
    return np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(n, n)


def _inverse_or_error(invert, matrix):
    try:
        return invert(matrix).tobytes()
    except ValueError as exc:
        return str(exc)


class TestMatrixInverse:
    @given(square_matrices())
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_gauss_jordan(self, matrix):
        expected = _inverse_or_error(reference_gf_mat_inv, matrix)
        assert _inverse_or_error(gf_mat_inv, matrix) == expected
        if isinstance(expected, bytes):
            assert np.array_equal(gf_matmul(matrix, gf_mat_inv(matrix)), np.eye(len(matrix)))

    @given(st.integers(min_value=1, max_value=16), st.data())
    @settings(max_examples=40, deadline=None)
    def test_code_decode_matrices(self, k, data):
        # Every decode inverts k rows of a code's generator.
        code = ReedSolomonCode(k=k, n=2 * k)
        chosen = sorted(data.draw(st.sets(st.integers(0, 2 * k - 1), min_size=k, max_size=k)))
        matrix = code._generator[chosen]
        assert gf_mat_inv(matrix).tobytes() == reference_gf_mat_inv(matrix).tobytes()


class TestTornadoParity:
    @given(
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=0, max_value=2**16),
        st.binary(min_size=1, max_size=2000),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_the_big_int_xor(self, k, parity_rows, seed, data):
        code = TornadoCode(k=k, n=k + parity_rows, seed=seed)
        chunks = _chunk_for_code(data, k)
        coded = code.encode(chunks)
        assert [f.payload for f in coded[:k]] == chunks
        assert [f.payload for f in coded[k:]] == reference_tornado_parity(code, chunks)


class _Level(enum.IntEnum):
    LOW = -3
    HIGH = 2**70


class _Name(str):
    pass


class _Blob(bytes):
    pass


_Pair = namedtuple("_Pair", "left right")

leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.sampled_from(list(_Level))
    | st.binary(max_size=40)
    | st.binary(max_size=8).map(_Blob)
    | st.text(max_size=16)
    | st.text(max_size=8).map(_Name)
)


def _containers(children):
    keys = st.text(max_size=6) | st.text(max_size=6).map(_Name)
    return (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.tuples(children, children).map(lambda pair: _Pair(*pair))
        | st.dictionaries(keys, children, max_size=5)
    )


canonical_values = st.recursive(leaves, _containers, max_leaves=25)

#: values the encoder must refuse: unsupported types, non-str keys,
#: keys that cannot be sorted against each other
unsupported = (
    st.floats(allow_nan=False)
    | st.binary(max_size=4).map(bytearray)
    | st.frozensets(st.integers(), max_size=3)
    | st.builds(object)
    | st.dictionaries(st.integers(), st.none(), min_size=1, max_size=3)
    | st.just({1: "x", "a": 2})
    | st.just({b"k": 1})
)

hostile_values = st.recursive(
    leaves | unsupported, _containers, max_leaves=15
)


def _outcome(fn, value):
    try:
        return ("ok", fn(value))
    except TypeError as exc:
        return ("TypeError", str(exc))


class TestCanonicalEncoder:
    @given(canonical_values)
    @settings(max_examples=200, deadline=None)
    def test_matches_the_recursive_encoder(self, value):
        assert encode(value) == reference_encode(value)

    @given(hostile_values)
    @settings(max_examples=200, deadline=None)
    def test_errors_match_the_recursive_encoder(self, value):
        assert _outcome(encode, value) == _outcome(reference_encode, value)

    @pytest.mark.parametrize(
        "value",
        [3.14, bytearray(b"x"), {1: "x"}, {1: "x", "a": 2}, [1, {"k": {2: 3}}], {"a": 1.5}],
    )
    def test_pinned_errors(self, value):
        expected = _outcome(reference_encode, value)
        assert expected[0] == "TypeError"
        assert _outcome(encode, value) == expected

    def test_subclasses_encode_as_their_base(self):
        assert encode(_Level.LOW) == encode(-3)
        assert encode(_Name("x")) == encode("x")
        assert encode(_Blob(b"x")) == encode(b"x")
        assert encode(_Pair(1, 2)) == encode((1, 2)) == encode([1, 2])


class TestMerkleProofs:
    @given(st.lists(st.binary(max_size=16), min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_matches_the_per_leaf_walk(self, leaves):
        tree = MerkleTree(leaves)
        reference = ReferenceMerkleTree(leaves)
        assert tree.root == reference.root
        assert tree.nodes == b"".join(h for level in reference.levels for h in level)
        for i, leaf in enumerate(leaves):
            assert tree.proof(i) == reference.proof(i)
            assert verify_proof(leaf, tree.proof(i), tree.root)

    @pytest.mark.parametrize("count", [2, 5, 16, 17, 40])
    def test_sibling_leaves_share_the_steps_above_them(self, count):
        tree = MerkleTree([bytes([i]) for i in range(count)])
        for left in range(0, count - 1, 2):
            assert tree.proof(left).path[1:] == tree.proof(left + 1).path[1:]

    @pytest.mark.parametrize("count", [3, 5, 7, 9, 17, 33])
    def test_odd_width_promotion(self, count):
        # The last leaf of an odd-width level has no sibling there: its
        # proof skips that level rather than pairing it with itself.
        leaves = [bytes([i]) for i in range(count)]
        tree, reference = MerkleTree(leaves), ReferenceMerkleTree(leaves)
        last = tree.proof(count - 1)
        assert last == reference.proof(count - 1)
        assert len(last.path) < len(reference.levels) - 1

    def test_trees_compare_by_value(self):
        leaves = [b"a", b"b", b"c"]
        assert MerkleTree(leaves) == MerkleTree(list(leaves))
        assert hash(MerkleTree(leaves)) == hash(MerkleTree(list(leaves)))
        assert MerkleTree(leaves) != MerkleTree([b"a", b"b", b"d"])


class TestArchivalObjects:
    @given(
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=1, max_value=16),
        st.binary(max_size=2000),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_fragment_matches_the_reference_composition(self, k, parity_rows, data):
        code = ReedSolomonCode(k=k, n=k + parity_rows)
        archival = encode_archival(data, code)
        chunks = _chunk_for_code(data, k)
        stacked = np.frombuffer(b"".join(chunks), dtype=np.uint8).reshape(k, -1)
        parity = reference_gf_matmul(cauchy_matrix(k, parity_rows), stacked)
        payloads = chunks + [row.tobytes() for row in parity]
        tree = ReferenceMerkleTree(payloads)
        assert archival.archival_guid == GUID.hash_of(tree.root)
        assert [f.index for f in archival.fragments] == list(range(k + parity_rows))
        for i, fragment in enumerate(archival.fragments):
            assert fragment.payload == payloads[i]
            assert fragment.proof == tree.proof(i)
            assert fragment.merkle_root == tree.root
            assert fragment.guid_bytes == archival.archival_guid.to_bytes()
            assert fragment.verify()

    @given(st.integers(min_value=1, max_value=8), st.binary(max_size=600))
    @settings(max_examples=40, deadline=None)
    def test_one_tree_per_archive_and_value_equal_re_encodes(self, k, data):
        code = ReedSolomonCode(k=k, n=2 * k)
        archival = encode_archival(data, code)
        first = archival.fragments[0]
        assert all(f.tree is first.tree for f in archival.fragments)
        assert all(f.guid_bytes is first.guid_bytes for f in archival.fragments)
        again = encode_archival(data, code)
        assert again.fragments[0].tree is not first.tree
        assert again == archival
        assert [hash(f) for f in again.fragments] == [hash(f) for f in archival.fragments]

    @given(st.integers(min_value=0, max_value=15), st.binary(min_size=1, max_size=600))
    @settings(max_examples=40, deadline=None)
    def test_a_corrupted_fragment_is_rejected(self, index, data):
        code = ReedSolomonCode(k=4, n=16)
        archival = encode_archival(data, code)
        corrupted = _corrupt(archival.fragments[index])
        assert corrupted.tree is archival.fragments[index].tree
        assert corrupted != archival.fragments[index]
        assert not corrupted.verify()
        root = archival.fragments[0].merkle_root
        assert not verify_fragment(corrupted, root)
        offered = [corrupted] + [f for f in archival.fragments if f.index != index]
        assert reconstruct_archival(offered, code, root) == data


class TestFragmentStore:
    def test_two_archives_on_one_server(self):
        code = ReedSolomonCode(k=2, n=4)
        first = encode_archival(b"first archive", code)
        second = encode_archival(b"second archive", code)
        kernel = Kernel()
        graph = nx.complete_graph(3)
        nx.set_edge_attributes(graph, 30.0, "latency_ms")
        network = Network(kernel, graph)
        stores = {node: FragmentStore() for node in range(3)}
        # Server 0 holds fragments of both archives, one of them twice
        # (a repair re-encode lands beside the original).
        for fragment in first.fragments[:2] + second.fragments[:1]:
            stores[0].put(fragment)
        stores[0].put(encode_archival(b"first archive", code).fragments[0])
        stores[1].put(second.fragments[1])
        first_key = first.archival_guid.to_bytes()
        second_key = second.archival_guid.to_bytes()
        assert stores[0].get(first_key) == [*first.fragments[:2], first.fragments[0]]
        assert stores[0].get(second_key) == [second.fragments[0]]
        assert stores[2].get(first_key) == []
        assert len(stores[0].fragments) == 2
        assert all(isinstance(held, tuple) for held in stores[0].fragments.values())
        fetcher = FragmentFetcher(kernel, network, stores, random.Random(0))
        assert fetcher.holders_of(first_key) == [0]
        assert fetcher.holders_of(second_key) == [0, 1]
        network.set_down(0)
        assert fetcher.holders_of(second_key) == [1]
