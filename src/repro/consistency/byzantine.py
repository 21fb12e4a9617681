"""Byzantine replica strategies for the primary tier (Section 4.4.3).

The paper assumes "some fraction of the servers may be compromised and
behaving in arbitrarily faulty (i.e. Byzantine) ways"; an agreement
experiment that only *marks* replicas faulty tests nothing.  Each
strategy here makes a marked replica actively misbehave by transforming
its outgoing protocol messages per peer:

* :class:`SilentStrategy` -- say nothing (crash-equivalent);
* :class:`EquivocatingStrategy` -- tell different peers different
  things: conflicting pre-prepares when leading, conflicting votes when
  backing (the classic safety attack PBFT's intersecting quorums defeat);
* :class:`DelayedStrategy` -- speak the truth, but late (probes timeout
  and view-change liveness margins);
* :class:`CorruptDigestStrategy` -- garble every digest (a compromised
  replica whose messages fail verification everywhere).

Strategies see one outgoing ``(peer_index, payload)`` at a time and
return what actually crosses the wire: a list of ``(payload, delay_ms)``
pairs, possibly empty.  They are pure per-message transforms, so a run
remains a deterministic function of the deployment seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.crypto.hashes import sha256

if TYPE_CHECKING:  # pragma: no cover
    from repro.consistency.pbft import PBFTReplica

#: (payload, extra send delay in virtual ms)
Outgoing = tuple[object, float]


def _alternate_digest(digest: bytes) -> bytes:
    """A plausible-looking but conflicting digest for equivocation."""
    return sha256(b"equivocation" + digest)


def _garbled_digest(digest: bytes) -> bytes:
    return sha256(b"corrupt" + digest)


def _with_digest(payload: object, digest: bytes) -> object:
    """Copy a digest-carrying wire message with a substituted digest."""
    return replace(payload, digest=digest)  # type: ignore[type-var]


def _carries_digest(payload: object) -> bool:
    from repro.consistency.pbft import CheckpointMsg, CommitMsg, PrepareMsg, PrePrepare

    return isinstance(payload, (PrePrepare, PrepareMsg, CommitMsg, CheckpointMsg))


class ByzantineStrategy:
    """Base: honest passthrough.  Subclasses override :meth:`outgoing`."""

    name = "honest"

    def outgoing(
        self, replica: "PBFTReplica", peer_index: int, payload: object
    ) -> list[Outgoing]:
        return [(payload, 0.0)]


class SilentStrategy(ByzantineStrategy):
    """Sends nothing at all: indistinguishable from a crashed replica."""

    name = "silent"

    def outgoing(
        self, replica: "PBFTReplica", peer_index: int, payload: object
    ) -> list[Outgoing]:
        return []


@dataclass
class EquivocatingStrategy(ByzantineStrategy):
    """Conflicting protocol messages to different halves of the ring.

    Peers with even index receive the true message; odd-index peers
    receive one whose digest conflicts.  When the equivocator leads a
    view this produces genuinely conflicting pre-prepares for the same
    (view, seq) slot; as a backup it splits the vote.  Honest replicas
    must still never execute divergent updates (PBFT's quorum
    intersection), though the view may need to change to make progress.
    """

    name = "equivocate"

    def outgoing(
        self, replica: "PBFTReplica", peer_index: int, payload: object
    ) -> list[Outgoing]:
        if not _carries_digest(payload):
            return [(payload, 0.0)]
        if peer_index % 2 == 0:
            return [(payload, 0.0)]
        return [(_with_digest(payload, _alternate_digest(payload.digest)), 0.0)]


@dataclass
class DelayedStrategy(ByzantineStrategy):
    """Correct messages, delivered late.

    With ``delay_ms`` under the view-change timeout this slows commits
    without breaking them; above it, honest replicas depose the dawdler.
    """

    name = "delay"
    delay_ms: float = 800.0

    def outgoing(
        self, replica: "PBFTReplica", peer_index: int, payload: object
    ) -> list[Outgoing]:
        return [(payload, self.delay_ms)]


@dataclass
class CorruptDigestStrategy(ByzantineStrategy):
    """Every digest-carrying message goes out garbled, to everyone.

    Honest replicas reject the mismatched digests, so the replica's
    votes never count: behaviourally between silent and equivocating.
    """

    name = "corrupt"

    def outgoing(
        self, replica: "PBFTReplica", peer_index: int, payload: object
    ) -> list[Outgoing]:
        if not _carries_digest(payload):
            return [(payload, 0.0)]
        return [(_with_digest(payload, _garbled_digest(payload.digest)), 0.0)]
