"""Client-side codec: plaintext edits -> ciphertext updates (Section 4.4.2).

Replicas never see plaintext, so clients do all encryption locally and
express edits as the ciphertext actions of Figure 4.  The position fed to
the position-dependent cipher is the block's stable *block id*; since the
server allocates ids deterministically (sequentially), a client that
knows the expected object state can precompute the ids its new blocks
will receive.  If the state changed under it, its guard predicates
(compare-version / compare-block) fail and the update aborts -- exactly
the optimistic-concurrency story of Section 4.4.

:class:`ClientCodec` handles key derivation, encryption, and decryption;
:class:`UpdateBuilder` accumulates edits against an expected state,
tracking the id counter so multi-action updates stay consistent.
"""

from __future__ import annotations

from functools import cached_property

from repro.crypto.blockcipher import BLOCK_SIZE, PositionDependentCipher
from repro.crypto.hashes import sha256
from repro.crypto.keys import ObjectKey, Principal
from repro.crypto.searchable import SearchableCipher
from repro.data.blocks import EXPLICIT_ID_BASE, CipherObject
from repro.data.update import (
    Action,
    AndPredicate,
    AppendBlock,
    AppendSearchCells,
    CompareBlock,
    CompareVersion,
    DataObjectState,
    DeleteBlock,
    InsertBlock,
    Predicate,
    ReplaceBlock,
    SearchPredicate,
    TruePredicate,
    Update,
    UpdateBranch,
    make_update,
)
from repro.util.ids import GUID


def chunk_plaintext(plaintext: bytes, block_size: int = BLOCK_SIZE) -> list[bytes]:
    """Split plaintext into block-sized chunks (last chunk may be short)."""
    if block_size <= 0:
        raise ValueError("block size must be positive")
    if not plaintext:
        return []
    return [
        plaintext[i : i + block_size] for i in range(0, len(plaintext), block_size)
    ]


class ClientCodec:
    """Per-object encryption context for one key generation."""

    def __init__(self, object_key: ObjectKey) -> None:
        self.object_key = object_key
        self._cipher = PositionDependentCipher(object_key.subkey("blocks"))

    @cached_property
    def _search(self) -> SearchableCipher:
        """Built on first use: most handles read and never search."""
        return SearchableCipher(self.object_key.subkey("search"))

    # -- encryption ------------------------------------------------------------

    def encrypt_block(self, block_id: int, plaintext: bytes) -> bytes:
        return self._cipher.encrypt_block(block_id, plaintext)

    def decrypt_block(self, block_id: int, ciphertext: bytes) -> bytes:
        return self._cipher.decrypt_block(block_id, ciphertext)

    def read_document(self, data: CipherObject) -> bytes:
        """Decrypt the whole object in logical order."""
        parts = []
        for block_id, block in data.logical_blocks():
            parts.append(self.decrypt_block(block_id, block.ciphertext))
        return b"".join(parts)

    def read_logical_block(self, data: CipherObject, index: int) -> bytes:
        block_id, block = data.block_at_logical(index)
        return self.decrypt_block(block_id, block.ciphertext)

    # -- predicate helpers -------------------------------------------------------

    def compare_block_predicate(
        self, data: CipherObject, index: int
    ) -> CompareBlock:
        """Predicate asserting logical block ``index`` still holds what the
        client believes it holds (hash of its *ciphertext*)."""
        _, block = data.block_at_logical(index)
        return CompareBlock(index=index, ciphertext_hash=sha256(block.ciphertext))

    def search_predicate(self, word: str) -> SearchPredicate:
        trapdoor = self._search.trapdoor(word)
        return SearchPredicate(
            encrypted_word=trapdoor.encrypted_word, word_key=trapdoor.word_key
        )

    def encrypt_search_words(self, words: list[str], base_position: int) -> list[bytes]:
        return self._search.encrypt_words(words, base_position=base_position)

    def decrypt_search_words(self, cells: list[bytes]) -> list[str]:
        return self._search.decrypt_words(cells, base_position=0)


class UpdateBuilder:
    """Accumulates plaintext edits against an expected object state.

    Every new data block gets a *client-chosen* stable identity (derived
    from ``entropy`` plus a counter, in the explicit-id namespace), and
    its ciphertext is encrypted for that identity before submission.
    Because identities are independent of serialization order, unguarded
    appends from concurrent clients commute -- the conflict-free path
    the email application relies on.

    The searchable-word index is the exception: SWP cells are keyed by
    stream position, so concurrent :meth:`index_words` against the same
    base state garble the later cells.  Guard such updates (e.g.
    :meth:`guard_version`) or confine indexing to a single writer.
    """

    def __init__(
        self,
        codec: ClientCodec,
        expected: DataObjectState,
        entropy: bytes | None = None,
    ) -> None:
        self.codec = codec
        self.expected = expected
        if entropy is None:
            # Single-writer default: unique per (object key, version).
            entropy = codec.object_key.subkey("block-ids") + bytes(
                [expected.version & 0xFF]
            ) + expected.version.to_bytes(8, "big")
        self._entropy = entropy
        self._id_counter = 0
        self._search_base = len(expected.search_cells)
        self._actions: list[Action] = []
        self._guards: list[Predicate] = []

    def _fresh_block_id(self) -> int:
        """A stable identity in the explicit-id namespace."""
        material = sha256(
            self._entropy + self._id_counter.to_bytes(8, "big")
        )
        self._id_counter += 1
        return EXPLICIT_ID_BASE | int.from_bytes(material[:7], "big")

    # -- guards ---------------------------------------------------------------

    def guard_version(self) -> "UpdateBuilder":
        """Commit only if the object is still at the expected version."""
        self._guards.append(CompareVersion(version=self.expected.version))
        return self

    def guard_block(self, index: int) -> "UpdateBuilder":
        """Commit only if logical block ``index`` is unchanged."""
        self._guards.append(
            self.codec.compare_block_predicate(self.expected.data, index)
        )
        return self

    def guard_contains_word(self, word: str) -> "UpdateBuilder":
        self._guards.append(self.codec.search_predicate(word))
        return self

    # -- edits -------------------------------------------------------------------

    def append(self, plaintext: bytes) -> "UpdateBuilder":
        """Append plaintext (chunked into blocks) at the end."""
        for chunk in chunk_plaintext(plaintext):
            block_id = self._fresh_block_id()
            ciphertext = self.codec.encrypt_block(block_id, chunk)
            self._actions.append(
                AppendBlock(ciphertext=ciphertext, block_id=block_id)
            )
        return self

    def replace(self, slot: int, plaintext: bytes) -> "UpdateBuilder":
        """Replace the top-level block at ``slot``."""
        block_id = self._fresh_block_id()
        ciphertext = self.codec.encrypt_block(block_id, plaintext)
        self._actions.append(
            ReplaceBlock(slot=slot, ciphertext=ciphertext, block_id=block_id)
        )
        return self

    def insert(self, slot: int, plaintext: bytes) -> "UpdateBuilder":
        """Insert a block before top-level ``slot`` (Figure 4)."""
        block_id = self._fresh_block_id()
        ciphertext = self.codec.encrypt_block(block_id, plaintext)
        self._actions.append(
            InsertBlock(slot=slot, ciphertext=ciphertext, block_id=block_id)
        )
        return self

    def delete(self, slot: int) -> "UpdateBuilder":
        """Empty top-level ``slot`` (Figure 4's empty pointer block).

        A delete of the slot just after the last action's delete run
        extends that run, so deleting every slot in ascending order
        ships one action.  Nothing else merges: a descending or repeated
        delete allocates its pointer blocks in another order.
        """
        last = self._actions[-1] if self._actions else None
        if isinstance(last, DeleteBlock) and last.slot + last.count == slot:
            self._actions[-1] = DeleteBlock(slot=last.slot, count=last.count + 1)
        else:
            self._actions.append(DeleteBlock(slot=slot))
        return self

    def index_words(self, words: list[str]) -> "UpdateBuilder":
        """Add words to the object's searchable index."""
        cells = self.codec.encrypt_search_words(words, self._search_base)
        self._actions.append(AppendSearchCells(cells=tuple(cells)))
        self._search_base += len(cells)
        return self

    # -- build ----------------------------------------------------------------------

    def build(
        self, author: Principal, object_guid: GUID, timestamp: float
    ) -> Update:
        """Sign the accumulated edits into an update.

        The paper's branch list is disjunctive (first true branch wins);
        "all guards must hold" for one branch is the conjunction of the
        guards, so multiple guards combine under an
        :class:`~repro.data.update.AndPredicate`.
        """
        predicate: Predicate
        if not self._guards:
            predicate = TruePredicate()
        elif len(self._guards) == 1:
            predicate = self._guards[0]
        else:
            predicate = AndPredicate(tuple(self._guards))
        branch = UpdateBranch(predicate=predicate, actions=tuple(self._actions))
        return make_update(author, object_guid, [branch], timestamp)
