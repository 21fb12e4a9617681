"""Shared documents: self-certifying names, ACLs, facades, read revocation.

One small deployment, one owner and two collaborators:

* the owner keeps files in the Unix file system facade (Section 4.6),
  whose directories are ordinary objects (Section 4.1), edits them in
  optimistic transactions, and serves them through the read-only web
  gateway, permanent version links included;
* every object's GUID is the hash of its owner's key and its name, so
  anyone can check who owns it, and an SDSI certificate binds a local
  nickname to a collaborator's key (Section 4.1);
* writers are restricted by a signed ACL that the servers check on every
  update: the listed writer commits, a reader who is not listed does not
  (Section 4.2);
* read permission is revoked by re-keying the object and re-encrypting
  its content, so the revoked reader's key no longer opens later
  versions (Section 4.2).

Run:  PYTHONPATH=src python examples/shared_documents.py
"""

from __future__ import annotations

from repro import DeploymentConfig, OceanStoreSystem, make_client
from repro.access import ACL, ACLCertificate, Privilege
from repro.api import ApiEvent
from repro.api.facades import FileSystemFacade, TransactionalFacade, WebGateway
from repro.naming import NameCertificate, NamespaceStore, VersionedName, verify_object_guid
from repro.sim import TopologyParams


def main() -> None:
    system = OceanStoreSystem(
        DeploymentConfig(
            seed=2000,
            topology=TopologyParams(transit_nodes=4, stubs_per_transit=1, nodes_per_stub=4),
        )
    )
    alice = make_client(system, "alice", seed=1)
    bob = make_client(system, "bob", seed=2)
    carol = make_client(system, "carol", seed=3)

    # -- the file system facade and the web gateway (Section 4.6) --------------
    fs = FileSystemFacade(alice)
    fs.mkdir("/projects")
    fs.write_file("/projects/plan.txt", b"Q3 plan: ship the archive.")
    fs.append_file("/projects/plan.txt", b" Then the web gateway.")
    fs.write_file("/projects/draft.txt", b"scratch")
    fs.remove("/projects/draft.txt")
    print(f"/projects holds {fs.listdir('/projects')}; draft gone: "
          f"{not fs.exists('/projects/draft.txt')}")
    web = WebGateway(alice, filesystem=fs, archive_reader=system.read_version)
    page = web.get("oceanstore://fs/projects/plan.txt")
    print(f"GET oceanstore://fs/projects/plan.txt -> ok={page.ok} {page.body!r}")

    # -- self-certifying names and SDSI nicknames (Section 4.1) ----------------
    notes = alice.create_object("notes.txt")
    owners = [
        name
        for name, client in (("alice", alice), ("bob", bob))
        if verify_object_guid(notes.guid, client.principal.public_key, "notes.txt")
    ]
    print(f"notes.txt GUID {notes.guid.hex()[:16]}... certifies its owner: {owners}")
    assert alice.open_named("notes.txt").guid == notes.guid
    names = NamespaceStore()
    names.add(NameCertificate.issue(alice.principal, "bob", bob.principal.public_key))
    bob_key = names.resolve_chain(alice.principal.public_key, ["bob"])
    print(f"alice's nickname 'bob' resolves to bob's key: {bob_key == bob.principal.public_key}")

    # -- writers restricted by a signed ACL (Section 4.2) ----------------------
    plan_guid = fs.guid_of("/projects/plan.txt")
    acl = ACL()
    acl.grant(bob_key, Privilege.WRITE)
    installed = system.access.install_acl(
        plan_guid, acl, ACLCertificate.issue(alice.principal, plan_guid, acl)
    )
    print(f"ACL granting bob write access installed: {installed}")
    for reader in (bob, carol):
        alice.grant_read(plan_guid, reader.keyring)
    committed_versions: list[int] = []
    alice.on_event(ApiEvent.NEW_VERSION, lambda n: committed_versions.append(n.version), plan_guid)
    result = bob.append(bob.open_object(plan_guid), b" Bob: agreed.")
    print(f"bob (listed writer) appends: committed={result.committed}")
    result = carol.append(carol.open_object(plan_guid), b" Carol: vetoed.")
    print(f"carol (reader only) appends: committed={result.committed}")
    plan = alice.open_object(plan_guid)

    def retitle(txn) -> None:
        txn.read()  # the whole document joins the read set
        txn.replace(0, b"Q4 plan: ship the archive.")
        txn.insert(1, b" Status: draft.")

    committed = TransactionalFacade(alice).run(plan, retitle)
    print(f"alice retitles in a transaction: committed={committed}")
    print(f"plan.txt now reads {alice.read(plan)!r}; alice was notified of "
          f"versions {committed_versions}")

    # -- a permanent version link, then read revocation (Section 4.2) ----------
    link = VersionedName(plan_guid, 3).format()
    pinned = web.get(f"oceanstore://{link}")
    print(f"GET oceanstore://{link[:12]}...@3 -> {pinned.status} {pinned.body!r}")
    assert pinned.body == alice.read_version(plan, 3)
    plan = alice.revoke_readers(plan)
    alice.append(plan, b" (final)")
    print(f"after revocation alice reads {alice.read(plan)!r}")
    stale = carol.read(carol.open_object(plan_guid))
    print(f"carol's revoked key opens the new version: {stale == alice.read(plan)}")


if __name__ == "__main__":
    main()
