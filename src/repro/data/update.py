"""The OceanStore update model (Section 4.4.1).

"Changes to data objects within OceanStore are made by client-generated
updates, which are lists of predicates associated with actions. ... to
apply an update against a data object, a replica evaluates each of the
update's predicates in order.  If any of the predicates evaluates to
true, the actions associated with the earliest true predicate are
atomically applied to the data object, and the update is said to commit.
Otherwise, no changes are applied, and the update is said to abort.  The
update itself is logged regardless."

Predicates are computable over ciphertext (Section 4.4.2):
compare-version and compare-size read unencrypted metadata;
compare-block hashes stored ciphertext; search runs the
Song-Wagner-Perrig test with a client-provided trapdoor.  Actions are the
structural ciphertext operations of Figure 4 plus search-index
maintenance.

Updates are signed by the client; replicas verify the signature against
the object's ACL before applying (Section 4.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.crypto.hashes import sha256
from repro.crypto.keys import Principal
from repro.crypto.rsa import PublicKey
from repro.crypto.searchable import SearchTrapdoor, server_search
from repro.data.blocks import BlockStructureError, CipherObject
from repro.util import serialization
from repro.util.ids import GUID


# ---------------------------------------------------------------------------
# Object state (what predicates see and actions mutate)
# ---------------------------------------------------------------------------


@dataclass
class DataObjectState:
    """One version's worth of replica-visible state: ciphertext blocks,
    unencrypted metadata, and the searchable-word index.

    A state is a value once published: only :func:`apply_update` mutates
    one, and only the working copy it has just made.  Replicas share
    published states, so an in-place edit would change them all.
    """

    data: CipherObject = field(default_factory=CipherObject)
    version: int = 0
    search_cells: list[bytes] = field(default_factory=list)

    @property
    def size_bytes(self) -> int:
        return self.data.size_bytes()

    def copy(self) -> "DataObjectState":
        """The working copy an applied update edits (one per update)."""
        return DataObjectState(
            data=self.data.copy(),
            version=self.version,
            search_cells=list(self.search_cells),
        )


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CompareVersion:
    """True iff the object's version equals ``version`` (unencrypted
    metadata; the basis of optimistic concurrency)."""

    version: int

    def evaluate(self, state: DataObjectState) -> bool:
        return state.version == self.version

    def to_dict(self) -> dict:
        return {"kind": "compare-version", "version": self.version}


@dataclass(frozen=True, slots=True)
class CompareSize:
    """True iff the object's ciphertext size in bytes equals ``size``."""

    size: int

    def evaluate(self, state: DataObjectState) -> bool:
        return state.size_bytes == self.size

    def to_dict(self) -> dict:
        return {"kind": "compare-size", "size": self.size}


@dataclass(frozen=True, slots=True)
class CompareBlock:
    """True iff the ciphertext at logical position ``index`` hashes to
    ``ciphertext_hash`` -- computable by any replica with no keys."""

    index: int
    ciphertext_hash: bytes

    def evaluate(self, state: DataObjectState) -> bool:
        try:
            _, block = state.data.block_at_logical(self.index)
        except BlockStructureError:
            return False
        return sha256(block.ciphertext) == self.ciphertext_hash

    def to_dict(self) -> dict:
        return {
            "kind": "compare-block",
            "index": self.index,
            "hash": self.ciphertext_hash,
        }


@dataclass(frozen=True, slots=True)
class SearchPredicate:
    """True iff the trapdoor's word occurs in the object's search index.

    Reveals only "a search was performed" and the boolean result
    (Section 4.4.2); the replica never sees the search word.
    """

    encrypted_word: bytes
    word_key: bytes

    def evaluate(self, state: DataObjectState) -> bool:
        trapdoor = SearchTrapdoor(
            encrypted_word=self.encrypted_word, word_key=self.word_key
        )
        return bool(server_search(state.search_cells, trapdoor))

    def to_dict(self) -> dict:
        return {
            "kind": "search",
            "encrypted_word": self.encrypted_word,
            "word_key": self.word_key,
        }


@dataclass(frozen=True, slots=True)
class TruePredicate:
    """Unconditional commit (e.g. plain appends)."""

    def evaluate(self, state: DataObjectState) -> bool:
        return True

    def to_dict(self) -> dict:
        return {"kind": "true"}


@dataclass(frozen=True, slots=True)
class AndPredicate:
    """All sub-predicates must hold (conjunction of guards)."""

    parts: tuple["Predicate", ...]

    def evaluate(self, state: DataObjectState) -> bool:
        return all(p.evaluate(state) for p in self.parts)

    def to_dict(self) -> dict:
        return {"kind": "and", "parts": [p.to_dict() for p in self.parts]}


Predicate = (
    CompareVersion
    | CompareSize
    | CompareBlock
    | SearchPredicate
    | TruePredicate
    | AndPredicate
)


def predicate_from_dict(data: dict) -> Predicate:
    kind = data["kind"]
    if kind == "compare-version":
        return CompareVersion(version=data["version"])
    if kind == "compare-size":
        return CompareSize(size=data["size"])
    if kind == "compare-block":
        return CompareBlock(index=data["index"], ciphertext_hash=data["hash"])
    if kind == "search":
        return SearchPredicate(
            encrypted_word=data["encrypted_word"], word_key=data["word_key"]
        )
    if kind == "true":
        return TruePredicate()
    if kind == "and":
        return AndPredicate(
            parts=tuple(predicate_from_dict(p) for p in data["parts"])
        )
    raise ValueError(f"unknown predicate kind {kind!r}")


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ReplaceBlock:
    """``block_id`` is the client-chosen stable identity the replacement
    ciphertext was encrypted for (None = server-sequential, only safe
    for single-writer flows)."""

    slot: int
    ciphertext: bytes
    block_id: int | None = None

    def apply(self, state: DataObjectState) -> None:
        state.data.replace(self.slot, self.ciphertext, self.block_id)

    def to_dict(self) -> dict:
        return {
            "kind": "replace",
            "slot": self.slot,
            "ciphertext": self.ciphertext,
            "block_id": self.block_id,
        }


@dataclass(frozen=True, slots=True)
class InsertBlock:
    slot: int
    ciphertext: bytes
    block_id: int | None = None

    def apply(self, state: DataObjectState) -> None:
        state.data.insert(self.slot, self.ciphertext, self.block_id)

    def to_dict(self) -> dict:
        return {
            "kind": "insert",
            "slot": self.slot,
            "ciphertext": self.ciphertext,
            "block_id": self.block_id,
        }


@dataclass(frozen=True, slots=True)
class DeleteBlock:
    slot: int

    def apply(self, state: DataObjectState) -> None:
        state.data.delete(self.slot)

    def to_dict(self) -> dict:
        return {"kind": "delete", "slot": self.slot}


@dataclass(frozen=True, slots=True)
class AppendBlock:
    ciphertext: bytes
    block_id: int | None = None

    def apply(self, state: DataObjectState) -> None:
        state.data.append(self.ciphertext, self.block_id)

    def to_dict(self) -> dict:
        return {
            "kind": "append",
            "ciphertext": self.ciphertext,
            "block_id": self.block_id,
        }


@dataclass(frozen=True, slots=True)
class AppendSearchCells:
    """Extend the object's searchable-word index (client-encrypted cells)."""

    cells: tuple[bytes, ...]

    def apply(self, state: DataObjectState) -> None:
        state.search_cells.extend(self.cells)

    def to_dict(self) -> dict:
        return {"kind": "append-search", "cells": list(self.cells)}


Action = ReplaceBlock | InsertBlock | DeleteBlock | AppendBlock | AppendSearchCells


def action_from_dict(data: dict) -> Action:
    kind = data["kind"]
    if kind == "replace":
        return ReplaceBlock(
            slot=data["slot"],
            ciphertext=data["ciphertext"],
            block_id=data.get("block_id"),
        )
    if kind == "insert":
        return InsertBlock(
            slot=data["slot"],
            ciphertext=data["ciphertext"],
            block_id=data.get("block_id"),
        )
    if kind == "delete":
        return DeleteBlock(slot=data["slot"])
    if kind == "append":
        return AppendBlock(
            ciphertext=data["ciphertext"], block_id=data.get("block_id")
        )
    if kind == "append-search":
        return AppendSearchCells(cells=tuple(data["cells"]))
    raise ValueError(f"unknown action kind {kind!r}")


# ---------------------------------------------------------------------------
# The update itself
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class UpdateBranch:
    """One (predicate, actions) pair."""

    predicate: Predicate
    actions: tuple[Action, ...]


@dataclass(frozen=True, slots=True)
class Update:
    """A signed, client-generated update.

    ``timestamp`` is the client's optimistic timestamp (Section 4.4.3):
    secondary replicas order tentative updates by it, and the primary
    tier uses it to guide the final serialization.
    """

    object_guid: GUID
    branches: tuple[UpdateBranch, ...]
    timestamp: float
    client_key: PublicKey
    update_id: bytes
    signature: bytes
    #: per-instance memo of :meth:`signed_bytes` -- the update is frozen,
    #: so the encoding is computed at most once per object no matter how
    #: many replicas re-verify, re-hash, or re-measure it
    _signed_cache: bytes | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: one-entry memo of :func:`apply_update`: ``(input state, (outcome,
    #: next state))`` -- replicas applying this update to the very same
    #: input state share one result (DESIGN §21)
    _applied: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def payload_dict(self) -> dict:
        return {
            "object": self.object_guid.to_bytes(),
            "branches": [
                {
                    "predicate": branch.predicate.to_dict(),
                    "actions": [a.to_dict() for a in branch.actions],
                }
                for branch in self.branches
            ],
            "timestamp": int(self.timestamp * 1000),
            "client": self.client_key.to_bytes(),
        }

    def signed_bytes(self) -> bytes:
        cached = self._signed_cache
        if cached is None:
            cached = serialization.encode(self.payload_dict())
            object.__setattr__(self, "_signed_cache", cached)
        return cached

    def verify_signature(self) -> bool:
        return self.client_key.verify(self.signed_bytes(), self.signature)

    def size_bytes(self) -> int:
        """Wire size of the update (for the Figure 6 cost model)."""
        return len(self.signed_bytes()) + len(self.signature)


def make_update(
    author: Principal,
    object_guid: GUID,
    branches: Sequence[UpdateBranch],
    timestamp: float,
) -> Update:
    """Build and sign an update."""
    unsigned = Update(
        object_guid=object_guid,
        branches=tuple(branches),
        timestamp=timestamp,
        client_key=author.public_key,
        update_id=b"",
        signature=b"",
    )
    body = unsigned.signed_bytes()
    update = Update(
        object_guid=object_guid,
        branches=unsigned.branches,
        timestamp=timestamp,
        client_key=author.public_key,
        update_id=sha256(body),
        signature=author.sign(body),
    )
    # payload_dict leaves out update_id and signature: the bytes are equal.
    object.__setattr__(update, "_signed_cache", body)
    return update


# ---------------------------------------------------------------------------
# Application semantics
# ---------------------------------------------------------------------------


def serialize_update(update: Update) -> bytes:
    """Full wire encoding of a signed update (self-contained)."""
    return serialization.encode(
        {
            "payload": update.payload_dict(),
            "update_id": update.update_id,
            "signature": update.signature,
        }
    )


def deserialize_update(data: bytes) -> Update:
    """Decode a wire update; raises ``ValueError`` on malformed input.

    The signature is *not* checked here (that is the receiver's
    explicit step via :meth:`Update.verify_signature`), but structural
    integrity is: the embedded update id must match the body.
    """
    from repro.crypto.rsa import PublicKey

    decoded = serialization.decode(data)
    payload = decoded["payload"]
    branches = tuple(
        UpdateBranch(
            predicate=predicate_from_dict(dict(branch["predicate"])),
            actions=tuple(action_from_dict(dict(a)) for a in branch["actions"]),
        )
        for branch in payload["branches"]
    )
    update = Update(
        object_guid=GUID.from_bytes(payload["object"]),
        branches=branches,
        timestamp=payload["timestamp"] / 1000,
        client_key=PublicKey.from_bytes(payload["client"]),
        update_id=decoded["update_id"],
        signature=decoded["signature"],
    )
    if sha256(update.signed_bytes()) != update.update_id:
        raise ValueError("update id does not match body (tampered wire data)")
    return update


@dataclass(frozen=True, slots=True)
class UpdateOutcome:
    committed: bool
    branch_index: int | None
    new_version: int | None


def apply_update(
    state: DataObjectState, update: Update
) -> tuple[UpdateOutcome, DataObjectState]:
    """Apply an update per Section 4.4.1 semantics.

    Predicates are evaluated in order against ``state``; the first true
    predicate's actions are applied atomically to one working copy, whose
    version is then bumped.  Returns the outcome and the resulting state:
    the working copy on commit, ``state`` itself otherwise (a failing
    action just discards the copy).  ``state`` is never mutated, so a
    published version stays a value.

    The result is a pure function of ``(state, update)``, so ``update``
    remembers its last one: a second call with the very same ``state``
    object (replicas that applied the same updates in the same order from
    the shared empty state) returns the same outcome and next state.
    """
    memo = update._applied
    if memo is not None and memo[0] is state:
        return memo[1]
    result = _apply(state, update)
    object.__setattr__(update, "_applied", (state, result))
    return result


def _apply(
    state: DataObjectState, update: Update
) -> tuple[UpdateOutcome, DataObjectState]:
    for i, branch in enumerate(update.branches):
        if not branch.predicate.evaluate(state):
            continue
        working = state.copy()
        try:
            for action in branch.actions:
                action.apply(working)
        except BlockStructureError:
            return UpdateOutcome(committed=False, branch_index=i, new_version=None), state
        working.version += 1
        return (
            UpdateOutcome(committed=True, branch_index=i, new_version=working.version),
            working,
        )
    return UpdateOutcome(committed=False, branch_index=None, new_version=None), state
