"""The reference update semantics the value-based ``apply_update`` is
tested against.

Before versions became values, :func:`~repro.data.update.apply_update`
mutated the state it was given and restored a full snapshot when an
action failed, and :class:`~repro.data.blocks.CipherObject` kept every
block it had ever stored, reachable or not.  That obviously-correct form
lives here, in the test tree: :func:`reference_state` builds a state on
:class:`ReferenceCipherObject` and :func:`reference_apply` applies an
update to it in place.  Predicates and actions are the production ones;
they only touch the state through the methods copied below.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.data.blocks import Block, BlockStructureError, DataBlock, IndexBlock
from repro.data.update import DataObjectState, Update, UpdateOutcome


@dataclass
class ReferenceCipherObject:
    """Slots over a block map that only ever grows."""

    blocks: dict[int, Block] = field(default_factory=dict)
    slots: list[int] = field(default_factory=list)
    next_block_id: int = 0

    def allocate_id(self) -> int:
        block_id = self.next_block_id
        self.next_block_id += 1
        return block_id

    def _place_data_block(self, ciphertext: bytes, block_id: int | None) -> int:
        if block_id is None:
            block_id = self.allocate_id()
        elif block_id in self.blocks:
            raise BlockStructureError(f"block id collision: {block_id}")
        elif block_id < 0:
            raise BlockStructureError(f"negative block id: {block_id}")
        self.blocks[block_id] = DataBlock(ciphertext)
        return block_id

    def append(self, ciphertext: bytes, block_id: int | None = None) -> int:
        block_id = self._place_data_block(ciphertext, block_id)
        self.slots.append(block_id)
        return block_id

    def replace(self, slot: int, ciphertext: bytes, block_id: int | None = None) -> int:
        self._check_slot(slot)
        block_id = self._place_data_block(ciphertext, block_id)
        self.slots[slot] = block_id
        return block_id

    def insert(
        self, slot: int, ciphertext: bytes, block_id: int | None = None
    ) -> tuple[int, int, int]:
        self._check_slot(slot)
        displaced_id = self.slots[slot]
        new_id = self._place_data_block(ciphertext, block_id)
        index_id = self.allocate_id()
        self.blocks[index_id] = IndexBlock(children=(new_id, displaced_id))
        self.slots[slot] = index_id
        return new_id, displaced_id, index_id

    def delete(self, slot: int) -> int:
        self._check_slot(slot)
        index_id = self.allocate_id()
        self.blocks[index_id] = IndexBlock(children=())
        self.slots[slot] = index_id
        return index_id

    def _check_slot(self, slot: int) -> None:
        if not 0 <= slot < len(self.slots):
            raise BlockStructureError(f"slot out of range: {slot}")

    def reachable(self) -> set[int]:
        """Every block id some slot reaches, index blocks included."""
        seen: set[int] = set()
        pending = list(self.slots)
        while pending:
            block_id = pending.pop()
            seen.add(block_id)
            block = self.blocks[block_id]
            if isinstance(block, IndexBlock):
                pending.extend(block.children)
        return seen

    def logical_blocks(self) -> Iterator[tuple[int, DataBlock]]:
        for root in self.slots:
            yield from self._walk(root)

    def _walk(self, block_id: int) -> Iterator[tuple[int, DataBlock]]:
        block = self.blocks[block_id]
        if isinstance(block, DataBlock):
            yield block_id, block
        else:
            for child in block.children:
                yield from self._walk(child)

    def logical_ciphertext(self) -> list[bytes]:
        return [block.ciphertext for _, block in self.logical_blocks()]

    def block_at_logical(self, index: int) -> tuple[int, DataBlock]:
        for i, pair in enumerate(self.logical_blocks()):
            if i == index:
                return pair
        raise BlockStructureError(f"logical index out of range: {index}")

    def size_bytes(self) -> int:
        return sum(len(b.ciphertext) for _, b in self.logical_blocks())

    def copy(self) -> "ReferenceCipherObject":
        return ReferenceCipherObject(
            blocks=dict(self.blocks),
            slots=list(self.slots),
            next_block_id=self.next_block_id,
        )


def reference_state() -> DataObjectState:
    return DataObjectState(data=ReferenceCipherObject())


def reference_apply(state: DataObjectState, update: Update) -> UpdateOutcome:
    """Section 4.4.1 in place: the first true predicate's actions apply to
    ``state`` itself, and a failing action restores a full snapshot."""
    for i, branch in enumerate(update.branches):
        if not branch.predicate.evaluate(state):
            continue
        snapshot = state.copy()
        try:
            for action in branch.actions:
                action.apply(state)
        except BlockStructureError:
            state.data = snapshot.data
            state.search_cells = snapshot.search_cells
            state.version = snapshot.version
            return UpdateOutcome(committed=False, branch_index=i, new_version=None)
        state.version += 1
        return UpdateOutcome(committed=True, branch_index=i, new_version=state.version)
    return UpdateOutcome(committed=False, branch_index=None, new_version=None)
