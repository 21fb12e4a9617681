"""E9 -- Figure 4 + Section 4.4.2: operating on ciphertext.

Demonstrates and measures the full predicate/action repertoire the paper
claims is possible over encrypted data: compare-version, compare-size,
compare-block, search; replace-block, insert-block, delete-block,
append -- and quantifies the structural overhead insert/delete indirection
accumulates (the traffic-analysis caveat's "re-encrypt the object in
whole" escape hatch).
"""

from __future__ import annotations

import random

from conftest import fmt, print_table, record_result
from repro.crypto import KeyRing, make_principal, server_search
from repro.data import (
    ClientCodec,
    DataObjectState,
    UpdateBuilder,
    apply_update,
)
from repro.naming import object_guid


def make_env(seed: int = 0):
    principal = make_principal("author", random.Random(seed), bits=256)
    ring = KeyRing(principal, random.Random(seed + 1))
    guid = object_guid(principal.public_key, "fig4")
    codec = ClientCodec(ring.create_object_key(guid))
    return principal, guid, codec


def test_fig4_insert_without_reencryption(benchmark):
    """The Figure 4 walk-through: insert touches no existing ciphertext."""
    principal, guid, codec = make_env()
    state = DataObjectState()
    _, state = apply_update(
        state,
        UpdateBuilder(codec, state)
        .append(b"block-41")
        .append(b"block-42")
        .append(b"block-43")
        .build(principal, guid, 1.0),
    )
    ciphertexts_before = {
        bid: blk.ciphertext for bid, blk in state.data.logical_blocks()
    }

    def do_insert():
        update = (
            UpdateBuilder(codec, state)
            .insert(1, b"block-41.5")
            .build(principal, guid, 2.0)
        )
        return apply_update(state, update)

    outcome, working = benchmark(do_insert)
    assert outcome.committed
    assert codec.read_document(working.data) == b"block-41block-41.5block-42block-43"
    # No pre-existing block was re-encrypted (the server never learned
    # anything beyond "a pointer moved").
    after = dict(working.data.logical_blocks())
    for bid, ct in ciphertexts_before.items():
        assert after[bid].ciphertext == ct
    record_result("fig4_insert", {"reencrypted_blocks": 0})


def test_fig4_predicate_repertoire(benchmark):
    """All four predicates evaluate correctly on ciphertext alone."""
    principal, guid, codec = make_env(seed=2)
    state = DataObjectState()
    _, state = apply_update(
        state,
        UpdateBuilder(codec, state)
        .append(b"alpha-block")
        .index_words(["alpha", "beta"])
        .build(principal, guid, 1.0),
    )

    from repro.data import CompareSize, CompareVersion

    checks = {
        "compare-version(1)": CompareVersion(1).evaluate(state),
        "compare-version(9)": not CompareVersion(9).evaluate(state),
        "compare-size": CompareSize(state.size_bytes).evaluate(state),
        "compare-block": codec.compare_block_predicate(state.data, 0).evaluate(state),
        "search(alpha)": codec.search_predicate("alpha").evaluate(state),
        "search(gamma)": not codec.search_predicate("gamma").evaluate(state),
    }
    benchmark(lambda: codec.search_predicate("alpha").evaluate(state))
    rows = [[name, "pass" if ok else "FAIL"] for name, ok in checks.items()]
    print_table("Section 4.4.2: predicates over ciphertext", ["predicate", "result"], rows)
    record_result("fig4_predicates", {k: bool(v) for k, v in checks.items()})
    assert all(checks.values())


def test_fig4_server_learns_only_structure(benchmark):
    """Plaintext never appears server-side; equal plaintext blocks yield
    distinct ciphertext at distinct positions."""
    principal, guid, codec = make_env(seed=3)
    state = DataObjectState()
    secret = b"the secret plan"
    update = (
        UpdateBuilder(codec, state)
        .append(secret)
        .append(secret)  # same plaintext twice
        .build(principal, guid, 1.0)
    )
    _, state = benchmark.pedantic(
        lambda: apply_update(state, update), rounds=3, iterations=1
    )
    stored = state.data.logical_ciphertext()
    assert all(secret not in ct for ct in stored)
    assert stored[0] != stored[1]  # position-dependence hides equality
    record_result(
        "fig4_confidentiality",
        {"plaintext_leaked": False, "equal_blocks_distinguishable": False},
    )


def test_fig4_structural_overhead_and_reencryption_escape(benchmark):
    """Insert/delete indirection grows structure; periodic whole-object
    re-encryption (the paper's escape hatch) resets it.

    The document starts with eight top-level slots.  A delete empties a
    slot but keeps it, so with one slot the walk would delete the whole
    document and measure nothing."""
    principal, guid, codec = make_env(seed=4)
    state = DataObjectState()
    seed = UpdateBuilder(codec, state)
    for j in range(8):
        seed.append(f"seed-{j}".encode())
    _, state = apply_update(state, seed.build(principal, guid, 1.0))
    rng = random.Random(9)
    for i in range(40):
        builder = UpdateBuilder(codec, state)
        slot = rng.randrange(len(state.data.slots))
        if rng.random() < 0.5:
            builder.insert(slot, f"ins-{i}".encode())
        else:
            builder.delete(slot)
        _, state = apply_update(state, builder.build(principal, guid, float(i + 2)))
    logical = state.data.logical_length
    total_blocks = len(state.data.blocks)
    overhead = total_blocks / max(logical, 1)

    def reencrypt_whole():
        plaintext = codec.read_document(state.data)
        fresh = DataObjectState()
        fresh.version = state.version
        update = UpdateBuilder(codec, fresh).append(plaintext).build(
            principal, guid, 100.0
        )
        return apply_update(fresh, update)[1]

    fresh = benchmark(reencrypt_whole)
    fresh_overhead = len(fresh.data.blocks) / max(fresh.data.logical_length, 1)
    print_table(
        "Structural overhead after 40 inserts/deletes",
        ["state", "logical blocks", "stored blocks", "blocks per logical"],
        [
            ["accumulated", logical, total_blocks, fmt(overhead, 2)],
            ["re-encrypted", fresh.data.logical_length, len(fresh.data.blocks), fmt(fresh_overhead, 2)],
        ],
    )
    record_result(
        "fig4_overhead",
        {"accumulated": overhead, "after_reencryption": fresh_overhead},
    )
    assert overhead > fresh_overhead
    assert codec.read_document(state.data) == codec.read_document(fresh.data)


def test_fig4_search_reveals_only_positions(benchmark):
    """server_search with a trapdoor yields positions, nothing else; a
    server cannot mint its own trapdoors."""
    principal, guid, codec = make_env(seed=5)
    state = DataObjectState()
    _, state = apply_update(
        state,
        UpdateBuilder(codec, state)
        .index_words(["urgent", "routine", "urgent"])
        .build(principal, guid, 1.0),
    )
    trapdoor = codec.search_predicate("urgent")
    from repro.crypto.searchable import SearchTrapdoor

    wire = SearchTrapdoor(trapdoor.encrypted_word, trapdoor.word_key)
    matches = benchmark(lambda: server_search(state.search_cells, wire))
    assert [m.position for m in matches] == [0, 2]
    # A different key's trapdoor finds nothing (no server-side search).
    other_codec = make_env(seed=99)[2]
    foreign = other_codec.search_predicate("urgent")
    assert server_search(
        state.search_cells, SearchTrapdoor(foreign.encrypted_word, foreign.word_key)
    ) == []
    record_result("fig4_search", {"positions": [m.position for m in matches]})
