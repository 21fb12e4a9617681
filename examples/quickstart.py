#!/usr/bin/env python
"""Quickstart: stand up an OceanStore, store data, survive failures.

Walks the core value proposition in five minutes:

1. build a simulated global deployment;
2. create a self-certifying object and write through the Byzantine
   update path;
3. share it with a second user by key distribution;
4. crash a primary replica and keep working;
5. destroy every live replica and restore from deep archival fragments.

Run:  python examples/quickstart.py
"""

from repro import DeploymentConfig, OceanStoreSystem, make_client
from repro.consistency import FaultMode
from repro.sim import TopologyParams


def main() -> None:
    print("== 1. Building a simulated global deployment ==")
    config = DeploymentConfig(
        seed=2026,
        topology=TopologyParams(transit_nodes=4, stubs_per_transit=3, nodes_per_stub=5),
        secondaries_per_object=4,
    )
    system = OceanStoreSystem(config)
    print(f"   servers: {len(system.servers)}")
    print(f"   inner ring (Byzantine, m={system.ring.m}): nodes {system.ring_nodes}")

    print("\n== 2. Creating an object and writing through the update path ==")
    alice = make_client(system, "alice", seed=1)
    notes = alice.create_object("meeting-notes")
    print(f"   self-certifying GUID: {notes.guid.hex()[:16]}...")
    result = alice.write(notes, b"Agenda: ship the prototype.")
    print(f"   committed: {result.committed}, version: {result.new_version}")
    print(f"   read back: {alice.read(notes)!r}")

    print("\n== 3. Sharing with Bob (reader restriction = key distribution) ==")
    bob = make_client(system, "bob", seed=2)
    alice.grant_read(notes.guid, bob.keyring)
    bob_notes = bob.open_object(notes.guid)
    print(f"   bob reads: {bob.read(bob_notes)!r}")

    print("\n== 4. Crashing a primary replica (Byzantine fault tolerance) ==")
    system.ring.set_fault(2, FaultMode.SILENT)
    result = alice.append(notes, b" Bob owes coffee.")
    print(f"   write with 1 silent replica committed: {result.committed}")
    print(f"   read: {alice.read(notes)!r}")

    print("\n== 5. Deep archival restore (every commit is erasure-coded) ==")
    version = 2
    state = system.restore_from_archive(notes.guid, version)
    recovered = notes.codec.read_document(state.data)
    print(f"   version {version} rebuilt purely from fragments: {recovered!r}")

    stats = system.network
    print("\n== Done ==")
    print(f"   network messages: {stats.stats_total_messages}, "
          f"bytes: {stats.stats_total_bytes}")


if __name__ == "__main__":
    main()
