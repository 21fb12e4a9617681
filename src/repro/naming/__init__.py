"""Naming: self-certifying GUIDs, directories, SDSI namespaces, versions.

Implements Section 4.1 of the paper plus the version-qualified permanent
hyper-link syntax from Section 4.5.
"""

from repro.naming.directory import (
    Directory,
    DirectoryEntry,
    DirectoryResolver,
    NameNotFound,
    NotADirectory,
    split_path,
)
from repro.naming.guid import object_guid, verify_object_guid
from repro.naming.logdir import (
    DirectoryRecord,
    DirectoryRecordError,
    bind_record,
    compact_records,
    fold_records,
    unbind_record,
)
from repro.naming.sdsi import NameCertificate, NamespaceStore, ResolutionError
from repro.naming.versions import (
    RetentionPolicy,
    VersionedName,
    VersionPolicy,
    parse_versioned_name,
)

__all__ = [
    "Directory",
    "DirectoryEntry",
    "DirectoryRecord",
    "DirectoryRecordError",
    "DirectoryResolver",
    "bind_record",
    "compact_records",
    "fold_records",
    "unbind_record",
    "NameCertificate",
    "NameNotFound",
    "NamespaceStore",
    "NotADirectory",
    "ResolutionError",
    "RetentionPolicy",
    "VersionPolicy",
    "VersionedName",
    "object_guid",
    "parse_versioned_name",
    "split_path",
    "verify_object_guid",
]
