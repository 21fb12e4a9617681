"""Ciphertext block structure of an OceanStore object (Section 4.4.2,
Figure 4).

Objects are sequences of encrypted blocks.  To support insert and delete
*on ciphertext*, blocks are grouped into **data blocks** and **index
blocks**: index blocks contain pointers to other blocks elsewhere in the
object.  Each block has a stable *block id* -- the position fed to the
position-dependent cipher -- which never changes once the block is
written; inserting reorganizes pointers, not ciphertext.

* insert at slot *i*: append the new block and a copy of the displaced
  block, then replace slot *i*'s block with an index block pointing at
  both (Figure 4).
* delete at slot *i*: replace the block with an empty pointer block.

Each block has one parent, so ``replace`` and ``delete`` detach a whole
subtree, which the object drops: a state holds only the blocks it reaches.

The server manipulating this structure sees only ciphertext and pointer
topology; plaintext handling lives in :mod:`repro.data.ciphertext_ops`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Union


@dataclass(frozen=True, slots=True)
class DataBlock:
    """An encrypted payload block."""

    ciphertext: bytes


@dataclass(frozen=True, slots=True)
class IndexBlock:
    """A pointer block: children are block ids, in logical order.

    An empty child tuple is the "empty pointer block" used for deletion.
    """

    children: tuple[int, ...]


Block = Union[DataBlock, IndexBlock]

#: The one empty pointer block every delete points its slot at.
EMPTY_POINTER = IndexBlock(children=())


class BlockStructureError(RuntimeError):
    """Malformed block topology (dangling pointer, cycle, bad slot)."""


#: Client-chosen block identities live above this bit so they can never
#: collide with the server's sequential structural allocation.
EXPLICIT_ID_BASE = 1 << 62


@dataclass
class CipherObject:
    """The server-side (ciphertext) representation of an object's data.

    ``slots`` is the top-level block-id sequence; ``blocks`` maps block id
    to content.  Block ids are the *stable identities* the
    position-dependent cipher keys on.  Data blocks may carry a
    client-chosen id (above :data:`EXPLICIT_ID_BASE`): the client
    encrypted the payload for that identity before knowing the final
    serialization order, so concurrent appends commute.  Structural
    (index) blocks carry no ciphertext and use the server's sequential
    counter ``next_block_id``.

    The cipher keys on block ids, so an id is never reused: ids below the
    counter are spent, and a dropped id above it goes to ``retired``.
    """

    blocks: dict[int, Block] = field(default_factory=dict)
    slots: list[int] = field(default_factory=list)
    next_block_id: int = 0
    retired: set[int] = field(default_factory=set)

    # -- allocation ---------------------------------------------------------

    def allocate_id(self) -> int:
        block_id = self.next_block_id
        self.next_block_id += 1
        return block_id

    def _place_data_block(self, ciphertext: bytes, block_id: int | None) -> int:
        if block_id is None:
            block_id = self.allocate_id()
        elif block_id < 0:
            raise BlockStructureError(f"negative block id: {block_id}")
        elif (
            block_id < self.next_block_id
            or block_id in self.blocks
            or block_id in self.retired
        ):
            raise BlockStructureError(f"block id collision: {block_id}")
        self.blocks[block_id] = DataBlock(ciphertext)
        return block_id

    # -- structural operations (all ciphertext-only) -------------------------

    def append(self, ciphertext: bytes, block_id: int | None = None) -> int:
        """Append a data block as a new top-level slot; returns block id."""
        block_id = self._place_data_block(ciphertext, block_id)
        self.slots.append(block_id)
        return block_id

    def append_detached(self, ciphertext: bytes, block_id: int | None = None) -> int:
        """Store a data block without adding a slot (for insert's append
        step, where the new blocks are reached only via pointers)."""
        return self._place_data_block(ciphertext, block_id)

    def replace(self, slot: int, ciphertext: bytes, block_id: int | None = None) -> int:
        """Replace the block at top-level ``slot`` with fresh ciphertext.

        A new block identity is used: the cipher is position-dependent,
        so new content needs a new position to remain semantically secure.
        """
        self._check_slot(slot)
        block_id = self._place_data_block(ciphertext, block_id)
        self._drop(self.slots[slot])
        self.slots[slot] = block_id
        return block_id

    def insert(
        self, slot: int, ciphertext: bytes, block_id: int | None = None
    ) -> tuple[int, int, int]:
        """Insert before the block currently at ``slot`` (Figure 4).

        Appends the new block and a copy of the displaced block id, then
        swings the slot to an index block pointing at (new, displaced).
        Returns (new_block_id, displaced_block_id, index_block_id).
        """
        self._check_slot(slot)
        displaced_id = self.slots[slot]
        new_id = self.append_detached(ciphertext, block_id)
        index_id = self.allocate_id()
        self.blocks[index_id] = IndexBlock(children=(new_id, displaced_id))
        self.slots[slot] = index_id
        return new_id, displaced_id, index_id

    def delete(self, slot: int) -> int:
        """Replace the block at ``slot`` with an empty pointer block."""
        self._check_slot(slot)
        index_id = self.allocate_id()
        self.blocks[index_id] = EMPTY_POINTER
        self._drop(self.slots[slot])
        self.slots[slot] = index_id
        return index_id

    def _drop(self, root: int) -> None:
        """Remove the subtree under ``root``, which just lost its parent."""
        pending = [root]
        while pending:
            block_id = pending.pop()
            block = self.blocks.pop(block_id)
            if block_id >= self.next_block_id:
                self.retired.add(block_id)
            if isinstance(block, IndexBlock):
                pending.extend(block.children)

    def _check_slot(self, slot: int) -> None:
        if not 0 <= slot < len(self.slots):
            raise BlockStructureError(f"slot out of range: {slot}")

    # -- traversal -------------------------------------------------------------

    def logical_blocks(self) -> Iterator[tuple[int, DataBlock]]:
        """Yield (block_id, data block) pairs in logical order.

        Walks top-level slots, following index-block indirection
        depth-first.  Raises on dangling pointers or cycles.
        """
        for root in self.slots:
            yield from self._walk(root, seen=set())

    def _walk(self, block_id: int, seen: set[int]) -> Iterator[tuple[int, DataBlock]]:
        if block_id in seen:
            raise BlockStructureError(f"pointer cycle through block {block_id}")
        seen.add(block_id)
        block = self.blocks.get(block_id)
        if block is None:
            raise BlockStructureError(f"dangling pointer to block {block_id}")
        if isinstance(block, DataBlock):
            yield block_id, block
        else:
            for child in block.children:
                yield from self._walk(child, seen)

    def logical_ciphertext(self) -> list[bytes]:
        """Ciphertext payloads in logical order."""
        return [block.ciphertext for _, block in self.logical_blocks()]

    def block_at_logical(self, index: int) -> tuple[int, DataBlock]:
        """The (block_id, block) at logical position ``index``."""
        for i, pair in enumerate(self.logical_blocks()):
            if i == index:
                return pair
        raise BlockStructureError(f"logical index out of range: {index}")

    @property
    def logical_length(self) -> int:
        return sum(1 for _ in self.logical_blocks())

    def size_bytes(self) -> int:
        """Total ciphertext bytes reachable in logical order (the object's
        size as visible in unencrypted metadata)."""
        return sum(len(b.ciphertext) for _, b in self.logical_blocks())

    def copy(self) -> "CipherObject":
        """The data of an update's working copy: blocks are immutable, so
        both objects share them; only the containers are new."""
        return CipherObject(
            blocks=dict(self.blocks),
            slots=list(self.slots),
            next_block_id=self.next_block_id,
            retired=set(self.retired),
        )
