"""System-wide invariants checked after every chaos scenario.

A fault-injection run is only as good as its oracle.  These checks
encode the promises the paper actually makes, so a scenario "passes"
exactly when the promises survive the injected faults:

* **agreement-safety** -- honest primary-tier replicas never execute
  divergent updates at the same sequence number (Section 4.4.3: the
  primary tier "cooperate[s] in a Byzantine agreement protocol to choose
  the final commit order");
* **quorum-feasibility** -- the ring's fault budget holds: more than
  (n-1)//3 marked-faulty replicas means the 3m+1 assumption (footnote 8)
  is violated and safety is no longer guaranteed;
* **liveness** -- every update a scenario expected to commit executed on
  every honest replica (a caller that expects no progress names it in
  ``check_all``'s ``skip``);
* **version-monotonicity** -- committed versions in every version log,
  primary and secondary, form a strictly increasing chain ending at the
  head (Section 4.4.1's update log discipline);
* **routing-reconvergence** -- after churn stops and partitions heal,
  every object with a live replica is locatable from sampled live nodes
  (Section 4.3.3: the location mesh's soft state must reconverge);
* **archival-reconstruction** -- every archived version is still
  reconstructible from any k of its surviving fragments (Section 4.5's
  "retrieved correctly and completely, or not at all" erasure property);
* **ring-epoch-ownership** -- in a sharded control plane, the GUID-range
  shards partition the space exactly (no gaps, no overlaps), every
  shard's directory entry agrees with its live epoch and membership,
  memberships are disjoint, each current ring retains a live honest
  quorum, every dissemination-tree root is a member of the owning ring,
  and retired epochs stay strictly below the current one (the fence).
  Checked only when ``ring_count > 1``: a single-ring deployment has no
  ownership structure to break, and skipping it preserves pre-sharding
  chaos digests bit-for-bit.

The checker never mutates the system; reconvergence of soft state
(Bloom refresh, revives) is the *scenario's* job before it asks for a
verdict.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.archival.fragments import reconstruct_archival
from repro.archival.reed_solomon import CodingError
from repro.consistency.pbft import FaultMode, InnerRing
from repro.data.version_log import VersionLog
from repro.rings.sharding import GUID_SPACE

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import OceanStoreSystem


@dataclass(frozen=True, slots=True)
class InvariantViolation:
    """One broken promise: which invariant, and the evidence."""

    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"{self.invariant}: {self.detail}"


@dataclass(frozen=True, slots=True)
class InvariantReport:
    """Outcome of one full invariant pass."""

    checked: tuple[str, ...]
    violations: tuple[InvariantViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def violated_names(self) -> set[str]:
        return {v.invariant for v in self.violations}

    def render(self) -> str:
        lines = []
        for name in self.checked:
            broken = [v for v in self.violations if v.invariant == name]
            if not broken:
                lines.append(f"  ok    {name}")
            for violation in broken:
                lines.append(f"  FAIL  {name}: {violation.detail}")
        return "\n".join(lines)


# -- ring-level checks (usable on a bare InnerRing) -------------------------


def check_ring_agreement(ring: InnerRing) -> list[InvariantViolation]:
    """Honest replicas must agree on the digest executed at each slot."""
    violations = []
    executed: dict[int, dict[bytes, list[int]]] = {}
    for replica in ring.replicas:
        if replica.fault_mode is not FaultMode.HONEST:
            continue
        for seq, digest in replica.executed_by_seq.items():
            executed.setdefault(seq, {}).setdefault(digest, []).append(
                replica.index
            )
    for seq in sorted(executed):
        by_digest = executed[seq]
        if len(by_digest) > 1:
            detail = ", ".join(
                f"{digest[:4].hex()} on replicas {sorted(idxs)}"
                for digest, idxs in sorted(by_digest.items())
            )
            violations.append(
                InvariantViolation(
                    "agreement-safety",
                    f"divergent execution at seq {seq}: {detail}",
                )
            )
    return violations


def check_ring_quorum(ring: InnerRing) -> list[InvariantViolation]:
    """The 3m+1 assumption: marked faults within the tolerable budget."""
    faulty = ring.faulty_count()
    if faulty > ring.max_tolerable_faults:
        return [
            InvariantViolation(
                "quorum-feasibility",
                f"{faulty} faulty replicas but n={ring.n} tolerates only "
                f"{ring.max_tolerable_faults} (needs n >= {3 * faulty + 1})",
            )
        ]
    return []


def check_ring_liveness(
    ring: InnerRing, expected_update_ids: Iterable[bytes]
) -> list[InvariantViolation]:
    """Every expected update executed on every honest replica."""
    violations = []
    for update_id in expected_update_ids:
        missing = [
            r.index
            for r in ring.replicas
            if r.fault_mode is FaultMode.HONEST
            and update_id not in r.executed_updates
        ]
        if missing:
            violations.append(
                InvariantViolation(
                    "liveness",
                    f"update {update_id[:4].hex()} not executed on honest "
                    f"replicas {missing}",
                )
            )
    return violations


def check_version_log(log: VersionLog, where: str) -> list[InvariantViolation]:
    """Committed versions strictly increase and end at the head."""
    violations = []
    committed = [
        entry.resulting_version
        for entry in log.history()
        if entry.committed and entry.resulting_version is not None
    ]
    for prev, nxt in zip(committed, committed[1:]):
        if nxt <= prev:
            violations.append(
                InvariantViolation(
                    "version-monotonicity",
                    f"{where}: committed version went {prev} -> {nxt}",
                )
            )
    if committed and log.current_version != committed[-1]:
        violations.append(
            InvariantViolation(
                "version-monotonicity",
                f"{where}: head at v{log.current_version} but last "
                f"committed entry is v{committed[-1]}",
            )
        )
    return violations


# -- the system-level checker ----------------------------------------------


class InvariantChecker:
    """Runs every applicable invariant against a full deployment."""

    #: every invariant this checker knows how to evaluate
    ALL = (
        "agreement-safety",
        "quorum-feasibility",
        "liveness",
        "version-monotonicity",
        "routing-reconvergence",
        "archival-reconstruction",
        "ring-epoch-ownership",
    )

    def __init__(self, system: "OceanStoreSystem") -> None:
        self.system = system

    def check_all(
        self,
        rng: random.Random | None = None,
        expected_update_ids: Iterable[bytes] = (),
        skip: Iterable[str] = (),
    ) -> InvariantReport:
        """One full pass; ``rng`` drives fragment-subset sampling.

        ``skip`` names invariants a scenario deliberately leaves
        unchecked (e.g. routing reconvergence while nodes are still
        down on purpose); skipped names are absent from ``checked``.
        """
        rng = rng or random.Random(0)
        skipped = set(skip)
        if not self.system.rings.sharded:
            # Single-ring deployments have no ownership structure; the
            # skip also keeps their reports (and chaos trace digests)
            # identical to the pre-sharding implementation.
            skipped.add("ring-epoch-ownership")
        checked = [name for name in self.ALL if name not in skipped]
        violations: list[InvariantViolation] = []
        if "agreement-safety" in checked:
            # Safety is forever: retired epochs are checked too.
            for ring in self.system.rings.all_rings_ever():
                violations += check_ring_agreement(ring)
        if "quorum-feasibility" in checked:
            for ring in self.system.rings.rings():
                violations += check_ring_quorum(ring)
        if "liveness" in checked:
            if self.system.rings.sharded:
                violations += self.check_sharded_liveness(expected_update_ids)
            else:
                violations += check_ring_liveness(
                    self.system.ring, expected_update_ids
                )
        if "version-monotonicity" in checked:
            violations += self.check_version_monotonicity()
        if "routing-reconvergence" in checked:
            violations += self.check_routing_reconvergence()
        if "archival-reconstruction" in checked:
            violations += self.check_archival_reconstruction(rng)
        if "ring-epoch-ownership" in checked:
            violations += self.check_ring_ownership()
        return InvariantReport(
            checked=tuple(checked), violations=tuple(violations)
        )

    def check_sharded_liveness(
        self, expected_update_ids: Iterable[bytes]
    ) -> list[InvariantViolation]:
        """Every expected update executed somewhere authoritative.

        In a sharded deployment an update is live when *some* epoch's
        ring (current or retired -- commits before a handoff live in the
        old ring's replicas) executed it on every honest member that is
        still reachable; members crashed by the network stay honest but
        can answer nothing, so they are exempt.
        """
        violations = []
        network = self.system.network
        rings = self.system.rings.all_rings_ever()
        for update_id in expected_update_ids:
            satisfied = False
            for ring in rings:
                reachable = [
                    r
                    for r in ring.replicas
                    if r.fault_mode is FaultMode.HONEST
                    and not network.is_down(r.network_id)
                ]
                if reachable and all(
                    update_id in r.executed_updates for r in reachable
                ):
                    satisfied = True
                    break
            if not satisfied:
                violations.append(
                    InvariantViolation(
                        "liveness",
                        f"update {update_id[:4].hex()} not fully executed "
                        f"by any epoch's ring",
                    )
                )
        return violations

    def check_ring_ownership(self) -> list[InvariantViolation]:
        """Every GUID owned by exactly one ring epoch (sharded only)."""
        violations = []

        def fail(detail: str) -> None:
            violations.append(
                InvariantViolation("ring-epoch-ownership", detail)
            )

        provider = self.system.rings
        network = self.system.network
        shards = provider.shards

        # 1. The ranges partition [0, 2^160) exactly.
        if shards[0].range.low != 0:
            fail(f"first range starts at {shards[0].range.low:#x}, not 0")
        if shards[-1].range.high != GUID_SPACE:
            fail("last range does not reach the top of the GUID space")
        for left, right in zip(shards, shards[1:]):
            if left.range.high != right.range.low:
                fail(
                    f"gap/overlap between shard {left.shard_id} and "
                    f"{right.shard_id}: {left.range.describe()} vs "
                    f"{right.range.describe()}"
                )

        # 2. Directory entries agree with the live epoch + membership.
        for shard in shards:
            entry = provider.directory.entry(shard.shard_id)
            if entry.epoch != shard.epoch:
                fail(
                    f"shard {shard.shard_id}: directory at epoch "
                    f"{entry.epoch}, provider at {shard.epoch}"
                )
            if tuple(entry.members) != tuple(shard.members):
                fail(
                    f"shard {shard.shard_id}: directory membership "
                    f"{list(entry.members)} != live {list(shard.members)}"
                )

        # 3. Memberships are disjoint: no node serves two rings.
        owner: dict = {}
        for shard in shards:
            for member in shard.members:
                if member in owner:
                    fail(
                        f"node {member} serves both shard {owner[member]} "
                        f"and shard {shard.shard_id}"
                    )
                owner[member] = shard.shard_id

        # 4. Each current ring retains a live honest quorum -- a range
        # below quorum is effectively orphaned (no one can commit it).
        for shard in shards:
            live = sum(
                1
                for replica in shard.ring.replicas
                if replica.fault_mode is FaultMode.HONEST
                and not network.is_down(replica.network_id)
            )
            if live < shard.ring.quorum:
                fail(
                    f"shard {shard.shard_id} epoch {shard.epoch}: only "
                    f"{live} live honest members < quorum "
                    f"{shard.ring.quorum}; range {shard.range.describe()} "
                    f"is orphaned"
                )

        # 5. Every created object resolves into exactly one shard, and
        # its dissemination root is a member of that shard's ring.
        for guid in self.system.tiers:
            holders = [s.shard_id for s in shards if guid in s.range]
            if len(holders) != 1:
                fail(f"object {guid} owned by shards {holders}, not one")
                continue
            root = self.system.tiers[guid].tree.root
            members = shards[holders[0]].members
            if root not in members:
                fail(
                    f"object {guid}: tree root {root} is not a member of "
                    f"owning shard {holders[0]} ({list(members)})"
                )

        # 6. Retired epochs stay strictly below the current epoch.
        for shard in shards:
            for epoch, _ in shard.retired:
                if epoch >= shard.epoch:
                    fail(
                        f"shard {shard.shard_id}: retired epoch {epoch} "
                        f">= current {shard.epoch}"
                    )
        return violations

    def check_version_monotonicity(self) -> list[InvariantViolation]:
        violations = []
        for node in sorted(self.system.servers):
            server = self.system.servers[node]
            for guid, obj in server.objects.items():
                violations += check_version_log(
                    obj.log, f"primary {guid} at node {node}"
                )
        for guid in self.system.tiers:
            tier = self.system.tiers[guid]
            for node in sorted(tier.replicas):
                violations += check_version_log(
                    tier.replicas[node].committed_log,
                    f"secondary {guid} at node {node}",
                )
        return violations

    def check_routing_reconvergence(
        self, sample_starts: int = 3
    ) -> list[InvariantViolation]:
        """Objects with live replicas must be locatable from live nodes."""
        violations = []
        network = self.system.network
        live_nodes = [
            n for n in sorted(network.nodes()) if not network.is_down(n)
        ]
        if not live_nodes:
            return violations
        # Spread the sampled start points across the node-id range so the
        # probes cross domains (deterministic: no RNG involved).
        stride = max(1, len(live_nodes) // sample_starts)
        starts = live_nodes[::stride][:sample_starts]
        for guid in self.system.tiers:
            holders = set(self.system.rings.members_for(guid)) | set(
                self.system.tiers[guid].replicas
            )
            live_holders = {n for n in holders if not network.is_down(n)}
            if not live_holders:
                continue  # nothing to find; not a routing failure
            for start in starts:
                result = self.system.location.locate(start, guid)
                if not result.found or result.replica_node is None:
                    violations.append(
                        InvariantViolation(
                            "routing-reconvergence",
                            f"object {guid} not locatable from node {start} "
                            f"despite live replicas {sorted(live_holders)}",
                        )
                    )
                elif network.is_down(result.replica_node):
                    violations.append(
                        InvariantViolation(
                            "routing-reconvergence",
                            f"lookup of {guid} from {start} returned downed "
                            f"node {result.replica_node}",
                        )
                    )
        return violations

    def check_archival_reconstruction(
        self, rng: random.Random
    ) -> list[InvariantViolation]:
        """Any k surviving fragments must rebuild each archived version."""
        violations = []
        network = self.system.network
        for guid_bytes in sorted(self.system.archive_index.objects):
            archival, code = self.system.archive_index.objects[guid_bytes]
            by_index: dict[int, object] = {}
            for node in sorted(self.system.servers):
                if network.is_down(node):
                    continue
                for fragment in self.system.servers[node].fragments.get(
                    guid_bytes
                ):
                    by_index.setdefault(fragment.index, fragment)
            label = archival.archival_guid
            merkle_root = archival.fragments[0].merkle_root
            if len(by_index) < code.k:
                # Fewer than k survivors is probabilistic data loss,
                # which the durability model accepts (Section 4.5).  The
                # coding claim is conditional -- *any* k survivors must
                # decode -- so the obligation here flips: decoding below
                # the bound must fail loudly, never produce data.
                remnants = [by_index[i] for i in sorted(by_index)]
                try:
                    reconstruct_archival(remnants, code, merkle_root)
                except CodingError:
                    continue
                violations.append(
                    InvariantViolation(
                        "archival-reconstruction",
                        f"archival {label}: decoded from {len(by_index)} "
                        f"< k={code.k} fragments (coding bound violated)",
                    )
                )
                continue
            sample = rng.sample(sorted(by_index), code.k)
            chosen = [by_index[i] for i in sample]
            try:
                reconstruct_archival(chosen, code, merkle_root)
            except CodingError as exc:
                violations.append(
                    InvariantViolation(
                        "archival-reconstruction",
                        f"archival {label}: k-subset {sample} failed to "
                        f"decode ({exc})",
                    )
                )
        return violations


__all__ = [
    "InvariantChecker",
    "InvariantReport",
    "InvariantViolation",
    "check_ring_agreement",
    "check_ring_liveness",
    "check_ring_quorum",
    "check_version_log",
]
