#!/usr/bin/env python
"""The conflict-resolution spectrum (Section 4.4.1).

OceanStore's update model spans "extremely loose consistency semantics
to ... ACID semantics".  This example walks the whole spectrum with two
users editing shared state concurrently:

1. **detection (OCC-style)**: version-guarded updates -- one writer wins,
   the other aborts;
2. **resolution (Bayou-style)**: multi-branch updates with a fallback --
   both contributions land, no aborts;
3. **branching (Lotus-Notes-style)**: an unresolvable conflict forks a
   branch in the version stream instead of losing work; replaying it
   onto main still fails its guard, so the owner reconciles by hand;
4. **structural merge (Coda-style)**: log-structured shared directories
   make concurrent namespace edits conflict-free by construction.

Run:  python examples/conflict_resolution.py
"""

from repro import DeploymentConfig, OceanStoreSystem, make_client
from repro.api import SharedDirectory
from repro.data import (
    BranchingVersionLog,
    TruePredicate,
    UpdateBranch,
    make_update,
)
from repro.sim import TopologyParams
from repro.util import GUID


def main() -> None:
    system = OceanStoreSystem(
        DeploymentConfig(
            seed=77,
            topology=TopologyParams(
                transit_nodes=4, stubs_per_transit=2, nodes_per_stub=4
            ),
        )
    )
    alice = make_client(system, "alice", seed=1)
    bob = make_client(system, "bob", seed=2)

    print("== 1. Detection: version guards make one writer abort ==")
    doc = alice.create_object("contested-doc")
    alice.write(doc, b"draft;")
    alice.grant_read(doc.guid, bob.keyring)
    bob_doc = bob.open_object(doc.guid)
    # Both build against the same version with a guard.
    a_edit = alice.update_builder(doc).guard_version().append(b"alice-edit;")
    b_edit = bob.update_builder(bob_doc).guard_version().append(b"bob-edit;")
    ra = alice.submit(doc, a_edit)
    rb = bob.submit(bob_doc, b_edit)
    print(f"   alice committed: {ra.committed}; bob committed: {rb.committed}")
    print(f"   document: {alice.read(doc)!r}")

    print("\n== 2. Resolution: multi-branch updates merge both edits ==")
    pad = alice.create_object("scratchpad")
    alice.write(pad, b"base;")
    alice.grant_read(pad.guid, bob.keyring)
    bob_pad = bob.open_object(pad.guid)
    updates = []
    for client, handle, tag in ((alice, pad, b"A"), (bob, bob_pad, b"B")):
        # Branch 1: guarded replace of block 0 (preferred).  Branch 2:
        # plain append (the fallback that always succeeds).
        primary = client.update_builder(handle).guard_version().replace(
            0, tag + b"-rewrote-base;"
        )
        fallback = client.update_builder(handle).append(tag + b"-appended;")
        update = make_update(
            client.principal,
            handle.guid,
            [
                UpdateBranch(primary._guards[0], tuple(primary._actions)),
                UpdateBranch(TruePredicate(), tuple(fallback._actions)),
            ],
            timestamp=1.0 if tag == b"A" else 2.0,
        )
        updates.append((client, update))
    for client, update in updates:
        system.submit_update(client.home_node, update)
    system.settle(60_000.0)
    print(f"   scratchpad: {alice.read(pad)!r}")
    print("   (the first writer's preferred branch fired; the second "
          "writer's fallback preserved their edit)")

    print("\n== 3. Branching: unresolvable conflicts fork the stream ==")
    from repro.data import AndPredicate, AppendBlock, CompareSize, CompareVersion

    log = BranchingVersionLog()
    obj_guid = GUID.hash_of(b"branchy-demo")

    def raw_update(payload, predicate, ts):
        # Payloads here stand in for ciphertext blocks; the branching
        # machinery is agnostic to what the bytes mean.
        return make_update(
            alice.principal, obj_guid,
            [UpdateBranch(predicate, (AppendBlock(payload),))], ts,
        )

    log.apply(raw_update(b"v1;", TruePredicate(), 1.0))
    # Guarded on the version *and* size the offline writer last saw.
    offline = raw_update(
        b"offline-work;", AndPredicate((CompareVersion(1), CompareSize(3))), 2.0
    )
    # Main moves on while the offline edit is in flight.
    log.apply(raw_update(b"mainline;", TruePredicate(), 3.0))
    outcome = log.apply(offline)
    print(f"   offline edit against main: committed={outcome.committed}")
    branch, branch_outcome = log.divert(offline, built_against_version=1)
    print(f"   diverted to {branch!r}: committed={branch_outcome.committed}")
    print(f"   branches outstanding: {log.branch_names()}")
    replayed = log.merge_by_replay(branch)
    print(f"   replayed onto main: committed={[o.committed for o in replayed]} "
          "(its guard still fails there)")
    reconciled = log.resolve(
        branch, raw_update(b"offline-work(reconciled);", TruePredicate(), 4.0)
    )
    print(f"   reconciled by hand: committed={reconciled.committed}; main at "
          f"version {log.head.version}; branches outstanding: {log.branch_names()}")

    print("\n== 4. Structural merge: shared directories never conflict ==")
    team = SharedDirectory.create(alice, "team-space")
    alice.grant_read(team.guid, bob.keyring)
    bob_team = SharedDirectory.open(bob, team.guid)
    assert team.bind("alice-report", GUID.hash_of(b"r1"))
    assert bob_team.bind("bob-dataset", GUID.hash_of(b"d1"))
    print(f"   merged directory: {team.list()}")
    report = bob_team.lookup("alice-report")
    print(f"   bob resolves alice-report -> {report.hex()[:12]}...")
    assert team.unbind("bob-dataset") and "bob-dataset" not in bob_team
    print(f"   after alice unbinds bob-dataset: {bob_team.list()}")
    print(f"   log length {team.log_length()}; after compaction: ", end="")
    team.compact()
    print(team.log_length())


if __name__ == "__main__":
    main()
