"""Version-qualified names: permanent hyper-links (Section 4.5).

"For the user, we provide a naming syntax which explicitly incorporates
version numbers.  Such names can be included in other documents as a form
of permanent hyper-link."

The syntax here is ``<guid-hex>@<version>`` with ``@latest`` (or a bare
GUID) denoting the active form.  Versioning policy objects (after the
Elephant file system [44]) describe which versions to retain.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from repro.util.ids import GUID, GUID_BITS

_NAME_RE = re.compile(r"^(?P<hex>[0-9a-fA-F]+)(?:@(?P<version>\d+|latest))?$")


@dataclass(frozen=True, slots=True)
class VersionedName:
    """A reference to a specific version of an object (or the latest)."""

    guid: GUID
    version: int | None  # None means "latest" (the active form)

    def format(self) -> str:
        suffix = "latest" if self.version is None else str(self.version)
        return f"{self.guid.hex()}@{suffix}"


def parse_versioned_name(text: str) -> VersionedName:
    """Parse ``<hex>[@<version>|@latest]``; bare hex means latest."""
    match = _NAME_RE.match(text.strip())
    if match is None:
        raise ValueError(f"malformed versioned name: {text!r}")
    hex_part = match.group("hex")
    if len(hex_part) != GUID_BITS // 4:
        raise ValueError(
            f"GUID must be {GUID_BITS // 4} hex digits, got {len(hex_part)}"
        )
    version_part = match.group("version")
    version = None if version_part in (None, "latest") else int(version_part)
    return VersionedName(guid=GUID(int(hex_part, 16)), version=version)


class RetentionPolicy(Enum):
    """Versioning policies, in the spirit of Elephant's 'deciding when to
    forget' [44]: the paper plans "interfaces for retiring old versions"."""

    KEEP_ALL = "keep-all"
    KEEP_LANDMARKS = "keep-landmarks"
    KEEP_LAST_N = "keep-last-n"


@dataclass(frozen=True, slots=True)
class VersionPolicy:
    """Which archived versions of an object to retain."""

    policy: RetentionPolicy = RetentionPolicy.KEEP_ALL
    keep_last: int = 0
    landmark_interval: int = 10

    def retained(self, versions: list[int]) -> list[int]:
        """Filter a sorted list of version numbers down to those retained.

        The latest version is always retained (it is the active form).
        """
        if not versions:
            return []
        ordered = sorted(versions)
        latest = ordered[-1]
        if self.policy is RetentionPolicy.KEEP_ALL:
            return ordered
        if self.policy is RetentionPolicy.KEEP_LAST_N:
            if self.keep_last < 1:
                raise ValueError("keep_last must be >= 1 for KEEP_LAST_N")
            return ordered[-self.keep_last :]
        if self.policy is RetentionPolicy.KEEP_LANDMARKS:
            if self.landmark_interval < 1:
                raise ValueError("landmark_interval must be >= 1")
            kept = [v for v in ordered if v % self.landmark_interval == 0]
            if latest not in kept:
                kept.append(latest)
            return kept
        raise AssertionError(f"unhandled policy {self.policy}")
