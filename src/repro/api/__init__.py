"""The OceanStore client API (Section 4.6): sessions with Bayou-style
guarantees, updates, callbacks, and legacy facades."""

from repro.api.backend import Backend, SubmitResult, UnknownObject
from repro.api.callbacks import ApiEvent, CallbackRegistry, Notification
from repro.api.oceanstore import ObjectHandle, OceanStoreHandle
from repro.api.shared_directory import SharedDirectory
from repro.api.session import (
    GuaranteeViolation,
    Session,
    SessionGuarantee,
    SessionState,
)

__all__ = [
    "ApiEvent",
    "Backend",
    "CallbackRegistry",
    "GuaranteeViolation",
    "Notification",
    "ObjectHandle",
    "OceanStoreHandle",
    "Session",
    "SessionGuarantee",
    "SessionState",
    "SharedDirectory",
    "SubmitResult",
    "UnknownObject",
]
