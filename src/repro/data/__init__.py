"""The data model: ciphertext blocks, updates, versions, objects.

Implements Sections 4.4.1-4.4.2: the predicate/action update model, all
ciphertext-only operations (Figure 4), and per-update versioning.
"""

from repro.data.branching import Branch, BranchError, BranchingVersionLog, MAIN
from repro.data.blocks import (
    Block,
    BlockStructureError,
    CipherObject,
    DataBlock,
    IndexBlock,
)
from repro.data.ciphertext_ops import ClientCodec, UpdateBuilder, chunk_plaintext
from repro.data.objects import ArchivalReference, PersistentObject
from repro.data.update import (
    Action,
    AndPredicate,
    AppendBlock,
    AppendSearchCells,
    CompareBlock,
    CompareSize,
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
    UpdateOutcome,
    apply_update,
    make_update,
)
from repro.data.version_log import (
    LoggedUpdate,
    VersionLog,
    VersionNotFound,
    VersionRecord,
)

__all__ = [
    "Action",
    "Branch",
    "BranchError",
    "BranchingVersionLog",
    "MAIN",
    "AndPredicate",
    "AppendBlock",
    "AppendSearchCells",
    "ArchivalReference",
    "Block",
    "BlockStructureError",
    "CipherObject",
    "ClientCodec",
    "CompareBlock",
    "CompareSize",
    "CompareVersion",
    "DataBlock",
    "DataObjectState",
    "DeleteBlock",
    "IndexBlock",
    "InsertBlock",
    "LoggedUpdate",
    "PersistentObject",
    "Predicate",
    "ReplaceBlock",
    "SearchPredicate",
    "TruePredicate",
    "Update",
    "UpdateBranch",
    "UpdateBuilder",
    "UpdateOutcome",
    "VersionLog",
    "VersionNotFound",
    "VersionRecord",
    "apply_update",
    "chunk_plaintext",
    "make_update",
]
