"""Update-differential harness: versions as values vs the in-place reference.

``apply_update`` builds the next state on one working copy and never
mutates its input, and ``replace``/``delete`` drop the block subtree they
detach.  The in-place form it replaced lives in ``reference_update.py``.
Its contract is that nothing a client or replica can observe changes:

1. A Hypothesis property draws random Fig. 4 programs (replace, insert,
   delete runs of one to three slots, append, append-search, with
   client-chosen block ids that collide and branches that abort) and
   runs them through a :class:`VersionLog` and the reference side by
   side.  Outcome, version, slots, logical ciphertext and search cells
   match at every step, and the block map is exactly the reference's
   reachable blocks.  Every published version still serializes to its
   commit-time bytes at the end.
2. On a deployment, every retained version read from the primary's log
   equals the same version rebuilt from archival fragments.
"""

import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference_update import reference_apply, reference_state
from repro.core import DeploymentConfig, OceanStoreSystem, make_client
from repro.core.system import serialize_state
from repro.crypto import make_principal
from repro.data import (
    AppendBlock,
    AppendSearchCells,
    CompareSize,
    CompareVersion,
    DeleteBlock,
    InsertBlock,
    ReplaceBlock,
    TruePredicate,
    UpdateBranch,
    VersionLog,
    make_update,
)
from repro.data.blocks import EXPLICIT_ID_BASE
from repro.naming import object_guid
from repro.sim import TopologyParams

AUTHOR = make_principal("differential-author", random.Random(264), bits=256)
GUID = object_guid(AUTHOR.public_key, "differential")
_OBJECT_NAMES = (f"differential-{i}" for i in itertools.count())

# A small pool of client-chosen ids, so programs reuse ids that are live,
# detached, or never used.
_block_id = st.one_of(
    st.none(), st.sampled_from([EXPLICIT_ID_BASE + i for i in range(3)])
)
_ciphertext = st.binary(min_size=1, max_size=6)
_slot = st.integers(min_value=0, max_value=2)
_action = st.one_of(
    st.builds(ReplaceBlock, _slot, _ciphertext, _block_id),
    st.builds(InsertBlock, _slot, _ciphertext, _block_id),
    st.builds(DeleteBlock, _slot, st.integers(min_value=1, max_value=3)),
    st.builds(AppendBlock, _ciphertext, _block_id),
    st.builds(
        AppendSearchCells,
        st.lists(st.binary(min_size=1, max_size=4), max_size=2).map(tuple),
    ),
)
_predicate = st.one_of(
    st.just(TruePredicate()),
    st.builds(CompareVersion, st.integers(min_value=0, max_value=8)),
    st.builds(CompareSize, st.integers(min_value=0, max_value=12)),
)
_branch = st.builds(
    UpdateBranch, _predicate, st.lists(_action, min_size=1, max_size=4).map(tuple)
)
fig4_programs = st.lists(
    st.lists(_branch, min_size=1, max_size=3), min_size=1, max_size=12
)


@settings(max_examples=200, deadline=None)
@given(fig4_programs)
def test_versions_match_in_place_reference(program):
    log = VersionLog()
    reference = reference_state()
    published = {0: serialize_state(log.head)}
    initial = log.head
    for ts, branches in enumerate(program):
        update = make_update(AUTHOR, GUID, branches, float(ts))
        outcome = log.apply(update)
        assert outcome == reference_apply(reference, update)
        head = log.head
        assert head.version == reference.version
        assert head.data.slots == reference.data.slots
        assert head.data.next_block_id == reference.data.next_block_id
        assert head.data.logical_ciphertext() == reference.data.logical_ciphertext()
        assert head.search_cells == reference.search_cells
        assert head.data.blocks == {
            block_id: reference.data.blocks[block_id]
            for block_id in reference.data.reachable()
        }
        if outcome.committed:
            published[outcome.new_version] = serialize_state(head)
    assert serialize_state(initial) == published[0]
    for version in log.versions():
        assert serialize_state(log.version(version).state) == published[version]


@pytest.fixture(scope="module")
def deployment():
    system = OceanStoreSystem(
        DeploymentConfig(
            seed=265,
            topology=TopologyParams(
                transit_nodes=4, stubs_per_transit=1, nodes_per_stub=4
            ),
        )
    )
    return system, make_client(system, "differential-client", seed=266)


_client_op = st.tuples(
    st.sampled_from(["append", "replace", "insert", "delete", "write", "index"]),
    st.integers(min_value=0, max_value=3),
    st.binary(min_size=1, max_size=16),
)


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.lists(_client_op, min_size=2, max_size=6))
def test_read_version_matches_archive(deployment, ops):
    system, client = deployment
    handle = client.create_object(next(_OBJECT_NAMES))
    assert client.append(handle, b"seed").committed
    for kind, slot, payload in ops:
        if kind == "write":
            client.write(handle, payload)
            continue
        builder = client.update_builder(handle)
        if kind == "append":
            builder.append(payload)
        elif kind == "index":
            builder.index_words([f"word{slot}"])
        else:
            slot = min(slot, max(len(builder.expected.data.slots) - 1, 0))
            if kind == "replace":
                builder.replace(slot, payload)
            elif kind == "insert":
                builder.insert(slot, payload)
            else:
                builder.delete(slot)
        client.submit(handle, builder)
    system.settle()

    primary = system.servers[system.rings.primary_for(handle.guid)]
    versions = primary.objects[handle.guid].log.versions()
    assert versions
    for version in versions:
        assert serialize_state(system.read_version(handle.guid, version)) == (
            serialize_state(system.restore_from_archive(handle.guid, version))
        )
