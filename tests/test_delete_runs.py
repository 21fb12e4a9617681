"""Delete runs: an ascending run of deletes travels as one action.

A whole-document overwrite empties every slot and appends one, so with
one :class:`DeleteBlock` per slot its encoding grew with the object's
history.  :meth:`UpdateBuilder.delete` now extends a run that ends just
below the new slot, and ``DeleteBlock(slot, count)`` empties the run in
ascending order.  Checked here:

1. a run that is empty or leaves the slot range fails closed, before it
   touches the state, and a huge count costs nothing;
2. an overwrite's size is flat across history, through ``client.write``
   and through the update builder;
3. a Hypothesis property: a builder program's merged update and the same
   edits as per-slot deletes give the very same outcome and state;
4. the PBFT catch-up response, now walked from the requester's horizon,
   equals the one built by sorting every certificate.
"""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
from reference_backend import LocalBackend
from repro.api import OceanStoreHandle
from repro.consistency.pbft import (
    NOOP_DIGEST,
    SMALL_MESSAGE_BYTES,
    CatchUpRequest,
    CatchUpResponse,
)
from repro.crypto import KeyRing, make_principal
from repro.data import (
    AppendBlock,
    ClientCodec,
    DataObjectState,
    DeleteBlock,
    TruePredicate,
    UpdateBranch,
    UpdateBuilder,
    apply_update,
    make_update,
)
from repro.data.blocks import BlockStructureError
from repro.naming import object_guid

AUTHOR = make_principal("delete-runs-author", random.Random(550), bits=256)
GUID = object_guid(AUTHOR.public_key, "delete-runs")
CODEC = ClientCodec(KeyRing(AUTHOR, random.Random(551)).create_object_key(GUID))


def state_with(slots: int) -> DataObjectState:
    state = DataObjectState()
    for i in range(slots):
        state.data.append(bytes([i + 1]))
    return state


def snapshot(state: DataObjectState) -> tuple:
    data = state.data
    return (
        state.version,
        list(data.slots),
        dict(data.blocks),
        set(data.retired),
        data.next_block_id,
        list(state.search_cells),
    )


def signed(actions):
    return make_update(AUTHOR, GUID, [UpdateBranch(TruePredicate(), tuple(actions))], 1.0)


class TestHostileRange:
    @pytest.mark.parametrize(
        "slot, count",
        [(0, 0), (0, -1), (0, 2**62), (1, 3), (3, 1), (-1, 2), (2**62, 1)],
    )
    def test_bad_run_raises_before_touching_state(self, slot, count):
        state = state_with(3)
        before = snapshot(state)
        started = time.perf_counter()
        with pytest.raises(BlockStructureError):
            DeleteBlock(slot, count).apply(state)
        assert time.perf_counter() - started < 0.5  # no loop over the count
        assert snapshot(state) == before

    @pytest.mark.parametrize("count", [0, -1, 2**62])
    def test_update_aborts(self, count):
        state = state_with(3)
        before = snapshot(state)
        outcome, after = apply_update(
            state, signed([AppendBlock(b"x"), DeleteBlock(0, count)])
        )
        assert not outcome.committed
        assert after is state
        assert snapshot(state) == before

    def test_run_to_the_last_slot_commits(self):
        outcome, after = apply_update(state_with(3), signed([DeleteBlock(1, 2)]))
        assert outcome.committed
        assert after.data.logical_ciphertext() == [b"\x01"]


class TestEncoding:
    def test_single_delete_keeps_its_bytes(self):
        assert DeleteBlock(4).to_dict() == {"kind": "delete", "slot": 4}
        assert DeleteBlock(4, 3).to_dict() == {"kind": "delete", "slot": 4, "count": 3}

    def test_builder_merges_only_ascending_runs(self):
        builder = UpdateBuilder(CODEC, state_with(6))
        for slot in (0, 1, 2, 4, 5, 5, 3, 2):
            builder.delete(slot)
        builder.append(b"tail")
        builder.delete(0).delete(1)
        actions = builder.build(AUTHOR, GUID, 1.0).branches[0].actions
        deletes = [a for a in actions if isinstance(a, DeleteBlock)]
        assert deletes == [
            DeleteBlock(0, 3),
            DeleteBlock(4, 2),
            DeleteBlock(5),
            DeleteBlock(3),
            DeleteBlock(2),
            DeleteBlock(0, 2),
        ]
        assert isinstance(actions[5], AppendBlock)


PAYLOAD = bytes(range(256)) * 2


class TestOverwriteSizeIsFlat:
    def test_client_write(self):
        backend = LocalBackend()
        client = OceanStoreHandle(
            backend, AUTHOR, KeyRing(AUTHOR, random.Random(552))
        )
        handle = client.create_object("flat-write")
        sizes = []
        submit = backend.submit_update

        def record(node, update):
            sizes.append(update.size_bytes())
            submit(node, update)

        backend.submit_update = record
        for i in range(20):
            assert client.write(handle, PAYLOAD[i:] + PAYLOAD[:i]).committed
        assert len(sizes) == 20
        assert sizes[19] == sizes[2]
        assert client.read(handle) == PAYLOAD[19:] + PAYLOAD[:19]

    def test_update_builder_delete_every_slot(self):
        backend = LocalBackend()
        client = OceanStoreHandle(
            backend, AUTHOR, KeyRing(AUTHOR, random.Random(553))
        )
        handle = client.create_object("flat-builder")
        sizes = []
        for i in range(20):
            builder = client.update_builder(handle).guard_version()
            for slot in range(len(builder.expected.data.slots)):
                builder.delete(slot)
            builder.append(PAYLOAD)
            sizes.append(builder.build(AUTHOR, handle.guid, 1.0).size_bytes())
            assert client.submit(handle, builder).committed
        assert sizes[19] == sizes[2]


# -- merged vs per-slot differential ----------------------------------------------

_slot = st.integers(min_value=-1, max_value=6)
_op = st.one_of(
    st.tuples(st.just("delete-run"), _slot, st.integers(1, 4), st.sampled_from([1, -1, 0])),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=4)),
    st.tuples(st.just("replace"), _slot, st.binary(min_size=1, max_size=4)),
    st.tuples(st.just("insert"), _slot, st.binary(min_size=1, max_size=4)),
)


def run_program(builder: UpdateBuilder, program) -> None:
    """Feed ``program`` to ``builder``: a delete run walks ``length``
    slots from ``start`` upwards, downwards or on one slot."""
    for op in program:
        kind = op[0]
        if kind == "delete-run":
            _, start, length, step = op
            for i in range(length):
                builder.delete(start + i * step)
        elif kind == "append":
            builder.append(op[1])
        elif kind == "replace":
            builder.replace(op[1], op[2])
        else:
            builder.insert(op[1], op[2])


def per_slot(actions):
    for action in actions:
        if isinstance(action, DeleteBlock):
            yield from (DeleteBlock(action.slot + i) for i in range(action.count))
        else:
            yield action


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 5), st.lists(_op, min_size=1, max_size=8))
def test_merged_update_matches_per_slot_deletes(initial_slots, program):
    initial = state_with(initial_slots)
    builder = UpdateBuilder(CODEC, initial)
    run_program(builder, program)
    merged = builder.build(AUTHOR, GUID, 1.0)
    expanded = signed(per_slot(merged.branches[0].actions))
    merged_outcome, merged_state = apply_update(initial, merged)
    expanded_outcome, expanded_state = apply_update(initial, expanded)
    assert merged_outcome == expanded_outcome
    assert snapshot(merged_state) == snapshot(expanded_state)
    # Merging loses no edit: the expansion is the builder's call sequence.
    calls = []
    for op in program:
        if op[0] == "delete-run":
            _, start, length, step = op
            calls += [DeleteBlock(start + i * step) for i in range(length)]
    assert [a for a in expanded.branches[0].actions if isinstance(a, DeleteBlock)] == calls
    assert merged.size_bytes() <= expanded.size_bytes()


# -- catch-up from the requester's horizon ------------------------------------------


def sorted_catch_up(replica, horizon):
    """The response built by sorting every certificate and executed seq."""
    certificates = tuple(
        cert for seq, cert in sorted(replica.certificates.items()) if seq > horizon
    )
    noop_seqs = tuple(
        seq
        for seq, digest in sorted(replica.executed_by_seq.items())
        if seq > horizon and digest == NOOP_DIGEST
    )
    if not certificates and not noop_seqs:
        return None
    size = SMALL_MESSAGE_BYTES + sum(
        sum(u.size_bytes() for u in cert.updates) + SMALL_MESSAGE_BYTES
        for cert in certificates
    )
    return CatchUpResponse(certificates, noop_seqs, replica.index), size


@pytest.fixture(scope="module")
def helper():
    _, network, ring, _, _ = golden.recovery_run("noop_padding", 1)
    replica = ring.replicas[1]
    assert replica.last_executed_seq == 2
    assert NOOP_DIGEST in replica.executed_by_seq.values()
    return network, replica


@pytest.mark.parametrize("horizon", [-5, -1, 0, 1, 2, 5, -(10**18), 10**18])
def test_catch_up_walks_from_the_horizon(helper, horizon):
    network, replica = helper
    sent = []
    network.send = lambda src, dst, payload, size_bytes, **kw: sent.append(
        (payload, size_bytes)
    )
    try:
        started = time.perf_counter()
        replica._on_catch_up_request(CatchUpRequest(2, horizon))
        assert time.perf_counter() - started < 0.5
    finally:
        del network.send
    expected = sorted_catch_up(replica, horizon)
    assert sent == ([] if expected is None else [expected])
